"""Series evaluation, certified tails, and the transform algebra."""
import math
import random

import pytest

from biqz import (
    ONE,
    ZERO,
    Biquaternion,
    DivergentSeriesError,
    NoConvergenceError,
    OutsideROCError,
    Sequence,
    ZeroDivisorError,
    advance,
    advance_transform,
    convolve,
    delay,
    delay_transform,
    geometric_scale,
    geometric_sum,
    geometric_remainder,
    index_scale_transform,
    linear_left,
    linear_right,
    linear_two_sided,
    roc_estimate,
    transform,
)
from biqz.algebra import i, j, k
import biqz.catalog as cat

from helpers import (
    comp_dist,
    partial_transform,
    rand_biquat,
    rand_conditioned,
    rand_complex_shell,
    rel_err,
    root_magnitudes,
)

I = 1j


def geometric_partial(y, n_terms):
    total = ONE
    power = ONE
    for _ in range(1, n_terms):
        power = power * y
        total = total + power
    return total


def geometric_tail(y, start, extra=400):
    """sum_{n>=start} y**n by direct summation (no cancellation)."""
    power = y**start
    total = power
    for _ in range(extra):
        power = power * y
        total = total + power
    return total


class TestGeometricSum:
    def test_scalar(self):
        assert comp_dist(geometric_sum(0.5), 2.0) <= 1e-15

    def test_complex_axis(self):
        got = geometric_sum(0.5 * i)
        assert comp_dist(got, Biquaternion(0.8, 0.4)) <= 1e-15
        assert comp_dist(got, geometric_partial(0.5 * i, 200)) <= 1e-14

    def test_divergent_rejected(self):
        y = (i + j) * (1.2 / (i + j).real_norm())
        assert math.isclose(y.real_norm(), 1.2)
        with pytest.raises(DivergentSeriesError):
            geometric_sum(y)
        with pytest.raises(DivergentSeriesError):
            geometric_sum(1.0)

    def test_matches_partial_sums_randomly(self):
        rng = random.Random(41)
        for _ in range(50):
            y = rand_conditioned(rng)
            y = y * (rng.uniform(0.1, 0.6) / y.real_norm())
            if root_magnitudes(y)[0] > 0.85:
                continue
            assert comp_dist(geometric_sum(y), geometric_partial(y, 300)) <= 1e-12


class TestGeometricRemainder:
    def test_scalar_exact(self):
        assert geometric_remainder(0.5, 10) == 2.0 * 0.5**10

    def test_zero(self):
        assert geometric_remainder(ZERO, 5) == 0.0

    def test_real_direction_case(self):
        y = (i + j) * (0.45 / (i + j).real_norm())
        got = geometric_remainder(y, 20)
        want = geometric_tail(y, 20).real_norm()
        assert abs(got - want) <= 1e-12 * want

    def test_equality_random(self):
        # the remainder-norm identity, against directly summed tails
        rng = random.Random(42)
        done = 0
        while done < 100:
            y = rand_conditioned(rng, max_root_ratio=1.5)
            y = y * (rng.uniform(0.1, 0.8) / y.real_norm())
            if root_magnitudes(y)[0] > 0.9:
                continue
            done += 1
            for n_terms in (5, 10, 20):
                got = geometric_remainder(y, n_terms)
                want = geometric_tail(y, n_terms).real_norm()
                assert abs(got - want) <= 1e-10 * max(want, 1e-30)

    def test_divergent_rejected(self):
        with pytest.raises(DivergentSeriesError):
            geometric_remainder(1.5, 3)


class TestTransform:
    def test_all_ones_at_two(self):
        tv = transform(Sequence.constant(1), 2, eps=1e-15)
        assert tv.terms_used <= 60
        assert comp_dist(tv.value, 2.0) <= tv.tail_bound + 1e-13
        assert tv.certified

    def test_geometric_at_four(self):
        tv = transform(Sequence.geometric(2 * i), 4)
        assert comp_dist(tv.value, Biquaternion(0.8, 0.4)) <= tv.tail_bound + 1e-10

    def test_no_convergence(self):
        with pytest.raises(NoConvergenceError):
            transform(Sequence(Sequence.geometric(i + j).term), 1)  # no radius hint: the series loop raises

    def test_zero_divisor_point_rejected(self):
        with pytest.raises(ZeroDivisorError):
            transform(Sequence.constant(1), ONE + I * k)

    def test_radius_hint_enforced(self):
        with pytest.raises(OutsideROCError):
            transform(Sequence.constant(1), 0.5)

    def test_tail_bound_is_a_true_bound(self):
        rng = random.Random(43)
        for _ in range(60):
            p = rand_conditioned(rng, max_root_ratio=1.6)
            p = p * (rng.uniform(0.2, 0.8) / root_magnitudes(p)[0])
            x = rand_complex_shell(rng, 2.0, 5.0)
            tv = transform(Sequence.geometric(p), x, eps=1e-10)
            exact = (ONE - p * (1.0 / x)).inverse()
            assert comp_dist(tv.value, exact) <= tv.tail_bound + 1e-12

    def test_eventually_zero_sequence_terminates(self):
        seq = Sequence.from_terms([1, i, j])
        tv = transform(seq, 2)
        assert tv.tail_bound == 0.0
        assert comp_dist(tv.value, partial_transform(seq, 2, 3)) <= 1e-15

    @pytest.mark.parametrize("m, q", [(9, 0.5), (12, 0.5 + 0.2j)])
    def test_leading_zeros_do_not_certify(self, m, q):
        # C(n, m) * q**n is zero for n < m: a window of those zeros proves nothing
        entry = cat.binom(m, q)
        tv = transform(entry.sequence, 2)
        assert tv.certified and tv.terms_used > m + 8
        assert comp_dist(tv.value, entry.eval(2)) <= tv.tail_bound + 1e-12

    def test_term_after_twenty_zeros_is_summed(self):
        tv = transform(Sequence.from_terms([0] * 20 + [1]), 2)
        assert tv.certified
        assert tv.value == Biquaternion(2.0**-20)

    def test_all_zero_sequence_is_uncertified(self):
        tv = transform(Sequence.constant(0), 2, max_terms=100)
        assert tv.value == ZERO
        assert tv.terms_used == 100 and not tv.certified

    def test_invalid_args(self):
        seq = Sequence.constant(1)
        with pytest.raises(ValueError):
            transform(seq, 2, eps=0.0)
        with pytest.raises(ValueError):
            transform(seq, 2, max_terms=0)

    def test_nan_eps_is_refused(self):
        # NaN fails every comparison, so it would otherwise certify any tail
        with pytest.raises(ValueError, match="eps must be positive"):
            transform(cat.pow_p(0.5).sequence, 2, eps=math.nan)


class TestRocEstimate:
    def test_constant(self):
        assert abs(roc_estimate(Sequence.constant(1)) - 1.0) <= 0.01

    def test_geometric(self):
        assert abs(roc_estimate(Sequence.geometric(2 * i)) - 2.0) <= 0.02

    def test_zero_divisor_ratio(self):
        # powers of 1 + Ik double componentwise although the parameter's
        # real gauge is 0: the estimate must see the growth
        seq = Sequence.geometric(ONE + I * k)
        assert abs(roc_estimate(seq) - 2.0) <= 0.05

    def test_eventually_zero(self):
        assert roc_estimate(Sequence.delta()) == 0.0

    def test_minimum_window(self):
        with pytest.raises(ValueError):
            roc_estimate(Sequence.constant(1), 7)


class TestLinearity:
    def test_degenerate_combination(self):
        f = Sequence.geometric(0.5 * i)
        g = Sequence.constant(1)
        combo = linear_left(1, f, 0, g)
        for n in range(6):
            assert combo.term(n) == f.term(n)

    def test_left_example(self):
        f = Sequence.constant(1)
        g = Sequence(lambda n: n)
        combo = linear_left(i, f, j, g)
        got = transform(combo, 3).value
        want = i * 1.5 + j * 0.75
        assert comp_dist(got, want) <= 1e-10

    def test_right_with_zero_divisor_coefficient(self):
        f = Sequence.geometric(0.5 * j)
        c = ONE + I * k
        combo = linear_right(f, c, Sequence.constant(0), ZERO)
        got = transform(combo, 3).value
        want = transform(f, 3).value * c
        assert comp_dist(got, want) <= 1e-10

    def test_two_sided_identity(self):
        rng = random.Random(44)
        for _ in range(10):
            c1, c2 = rand_biquat(rng), rand_biquat(rng)
            f = Sequence.geometric(rand_conditioned(rng) * 0.4)
            g = Sequence.geometric(rand_conditioned(rng) * 0.4)
            x = rand_complex_shell(rng, 3.0, 6.0)
            got = transform(linear_two_sided(c1, f, g, c2), x).value
            want = c1 * transform(f, x).value + transform(g, x).value * c2
            assert rel_err(got, want) <= 1e-9


class TestGeometricScale:
    def test_unit_ratio(self):
        f = Sequence(lambda n: Biquaternion(n + 1))
        g = geometric_scale(f, ONE)
        for n in range(6):
            assert g.term(n) == f.term(n)

    def test_commuting_example(self):
        f = Sequence.constant(1)
        g = geometric_scale(f, 2 * i)
        x = 6 * i
        assert (2 * i).commutes_with(x)
        got = transform(g, x).value
        want = transform(f, (2 * i).inverse() * x).value
        assert comp_dist(got, Biquaternion(1.5)) <= 1e-10
        assert comp_dist(got, want) <= 1e-10

    def test_noncommuting_pair_detected(self):
        assert not i.commutes_with(j)

    def test_zero_divisor_ratio_rejected(self):
        with pytest.raises(ZeroDivisorError):
            geometric_scale(Sequence.constant(1), ONE + I * k)


class TestShifts:
    def test_advance_all_ones(self):
        f = Sequence.constant(1)
        got = advance_transform(f, 1, 2, eps=1e-14)
        assert comp_dist(got, 2.0) <= 1e-11

    def test_advance_matches_series(self):
        f = Sequence.geometric(I * j)
        x = Biquaternion(3)
        got = advance_transform(f, 2, x, eps=1e-13)
        want = transform(advance(f, 2), x, eps=1e-13).value
        assert comp_dist(got, want) <= 1e-10

    def test_advance_with_zero_head(self):
        f = Sequence(lambda n: Biquaternion(n))  # f_0 == 0
        x = Biquaternion(2.5)
        got = advance_transform(f, 1, x, eps=1e-13)
        assert comp_dist(got, transform(f, x, eps=1e-13).value * x) <= 1e-10

    def test_delay_all_ones(self):
        got = delay_transform(Sequence.constant(1), 3, 2, eps=1e-14)
        assert comp_dist(got, 0.25) <= 1e-12

    def test_delay_matches_padded_series(self):
        f = Sequence.geometric(2 * i)
        got = delay_transform(f, 1, 4)
        want = transform(delay(f, 1), 4).value
        assert comp_dist(got, want) <= 1e-10
        assert comp_dist(got, Biquaternion(0.2, 0.1)) <= 1e-10

    def test_round_trip(self):
        # eps well below the x**k amplification of the truncation error
        rng = random.Random(45)
        for _ in range(20):
            p = rand_conditioned(rng, max_root_ratio=1.8)
            p = p * (rng.uniform(0.3, 1.5) / root_magnitudes(p)[0])
            f = Sequence.geometric(p)
            x = rand_complex_shell(rng, 4.0, 8.0)
            n_shift = rng.choice([1, 2, 3])
            base = transform(f, x, eps=1e-15).value
            back = advance_transform(delay(f, n_shift), n_shift, x, eps=1e-15)
            assert rel_err(back, base) <= 1e-11

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            advance_transform(Sequence.constant(1), 0, 2)
        with pytest.raises(ValueError):
            delay_transform(Sequence.constant(1), 0, 2)


class TestIndexScale:
    def test_all_ones(self):
        got = index_scale_transform(Sequence.constant(1), 2.0)
        assert comp_dist(got, 2.0) <= 1e-6

    def test_matches_corrected_weighted_geometric(self):
        p = 2 * i
        got = index_scale_transform(Sequence.geometric(p), 4.0)
        want = cat.n_pow_p(p).eval(4)
        assert comp_dist(got, want) <= 1e-6
        series = transform(Sequence(lambda n: (p**n) * n), 4).value
        assert comp_dist(got, series) <= 1e-6

    def test_zero_sequence(self):
        assert index_scale_transform(Sequence.constant(0), 3.0) == ZERO

    def test_biquaternion_point_commuting_with_p(self):
        p = 0.3 + 0.4 * i + 0.2j * k
        x = p * (1.5 + 0.5j) + 2.0  # commutes with p
        assert p.commutes_with(x)
        got = index_scale_transform(cat.pow_p(p).sequence, x, eps=1e-15)
        want = cat.n_pow_p(p).eval(x)
        assert comp_dist(got, want) <= 1e-13 * want.component_norm()

    @pytest.mark.parametrize("p, x", [(0.5, 2.0), (0.9, 1.0), (0.99, 1.05)])
    def test_matches_n_pow_p_closed_form(self, p, x):
        # the weighted series, not a finite difference: the gap is the series' own
        got = index_scale_transform(cat.pow_p(p).sequence, x)
        want = cat.n_pow_p(p).eval(x)
        assert comp_dist(got, want) <= 1e-11 * want.component_norm()

    def test_keeps_the_radius_hint(self):
        with pytest.raises(OutsideROCError):
            index_scale_transform(cat.pow_p(2 * i).sequence, 1.5)


class TestConvolve:
    def test_delta_is_identity(self):
        g = Sequence(lambda n: Biquaternion(n, 1))
        w = convolve(Sequence.delta(), g)
        for n in range(8):
            assert w.term(n) == g.term(n)

    def test_factor_order_is_left(self):
        f = Sequence.from_terms([i], tail=ZERO)
        g = Sequence.from_terms([j], tail=ZERO)
        assert convolve(f, g).term(0) == i * j
        assert convolve(g, f).term(0) == j * i

    def test_kernel_relation(self):
        # convolving the geometric kernel with the deconvolved solution must
        # reproduce the geometric target
        from biqz import deconvolve_geometric

        target = Sequence.geometric(2 * i)
        sol = deconvolve_geometric(target, 3 * j, 31)
        recon = convolve(Sequence.geometric(3 * j), sol)
        for t in range(31):
            assert comp_dist(recon.term(t), target.term(t)) == 0.0

    def test_transform_identity_at_complex_point(self):
        f = Sequence.geometric(3 * j)
        g = Sequence.geometric(2 * i)
        x = 8.0
        got = transform(convolve(f, g), x, eps=1e-13).value
        want = transform(f, x, eps=1e-13).value * transform(g, x, eps=1e-13).value
        assert rel_err(got, want) <= 1e-9


class TestComponentwiseVsGaugeConvergence:
    """Partial sums converge componentwise iff they converge in the real
    gauge, checked on every catalog row with well-conditioned parameters."""

    @staticmethod
    def _criteria(seq, x):
        s16 = partial_transform(seq, x, 16)
        s32 = partial_transform(seq, x, 32)
        s64 = partial_transform(seq, x, 64)
        inc1 = s32 - s16
        inc2 = s64 - s32
        scale = max(1.0, s64.component_norm())
        comp_converges = inc2.component_norm() <= 1e-4 * scale and (
            inc2.component_norm() <= inc1.component_norm() + 1e-12
        )
        gauge_scale = max(1.0, s64.real_norm())
        gauge_converges = inc2.real_norm() <= 1e-4 * gauge_scale and (
            inc2.real_norm() <= inc1.real_norm() + 1e-12
        )
        return comp_converges, gauge_converges

    ENTRIES = [
        cat.const_one(),
        cat.ramp_n(),
        cat.ramp_n2(),
        cat.pow_p(0.9 * i + 0.3),
        cat.n_pow_p(0.8 * j - 0.4),
        cat.cos_qn(0.5 * j),
        cat.sin_qn(0.4 * i + 0.2),
        cat.binom_shifted(2, 0.4 * k),
        cat.binom(2, 0.5 * i - 0.3),
        cat.exp_over_fact(1.5 * j + 0.5),
    ]

    def test_agreement_inside_roc(self):
        for entry in self.ENTRIES:
            x_in = complex(2.5 * max(entry.roc_radius, 0.2), 0.7)
            comp_in, gauge_in = self._criteria(entry.sequence, x_in)
            assert comp_in and gauge_in, entry.name

    def test_agreement_outside_roc(self):
        for entry in self.ENTRIES:
            x_out = 0.5 * max(entry.roc_radius, 0.2)
            comp_out, gauge_out = self._criteria(entry.sequence, x_out)
            # both gauges must agree; rows with a true boundary diverge there
            # (the factorial row converges everywhere away from 0)
            assert comp_out == gauge_out, entry.name
            if entry.name != "exp_over_fact":
                assert not comp_out, entry.name
