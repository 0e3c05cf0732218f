"""Closed-form catalog vs truncated series, branches, and the row-5 variant."""
import math
import random

import pytest

import biqz.catalog as cat
from biqz import (
    ONE,
    Biquaternion,
    OutsideROCError,
    exp,
    transform,
)
from biqz.algebra import i, j, k

from helpers import comp_dist, rand_complex_shell, rand_conditioned, root_magnitudes

I = 1j


def check_entry_against_series(entry, points, extra_tol=1e-10):
    for x in points:
        tv = transform(entry.sequence, x, eps=1e-12)
        closed = entry.eval(x)
        assert comp_dist(tv.value, closed) <= tv.tail_bound + extra_tol, (
            f"{entry.name} at {x}: deviation {comp_dist(tv.value, closed)} "
            f"vs tail {tv.tail_bound}"
        )


def in_roc_points(rng, entry, count=6):
    lo = max(2.0 * entry.roc_radius, 0.5)
    hi = max(4.0 * entry.roc_radius, 2.0)
    return [rand_complex_shell(rng, lo, hi) for _ in range(count)]


class TestRegistry:
    def test_stable_names(self):
        assert cat.ALL_NAMES == (
            "const_one",
            "ramp_n",
            "ramp_n2",
            "pow_p",
            "n_pow_p",
            "cos_qn",
            "sin_qn",
            "binom_shifted",
            "binom",
            "exp_over_fact",
        )

    def test_build_with_literals(self):
        entry = cat.build("pow_p", {"p": "2i"})
        assert entry.params["p"] == 2 * i

    def test_build_errors(self):
        with pytest.raises(KeyError):
            cat.build("nope")
        with pytest.raises(ValueError):
            cat.build("pow_p")
        with pytest.raises(ValueError):
            cat.build("const_one", {"p": "1"})
        with pytest.raises(ValueError):
            cat.build("binom", {"m": 2})


class TestPointValues:
    def test_pow_p_example(self):
        assert comp_dist(cat.pow_p(2 * i).eval(4), Biquaternion(0.8, 0.4)) <= 1e-15

    def test_ramp_example(self):
        assert comp_dist(cat.ramp_n().eval(2), 2.0) <= 1e-15

    def test_exp_over_fact_example(self):
        got = cat.exp_over_fact(j).eval(2)
        want = Biquaternion(math.cos(0.5), 0, math.sin(0.5), 0)
        assert comp_dist(got, want) <= 1e-14

    def test_n_pow_p_corrected_example(self):
        assert comp_dist(cat.n_pow_p(0.5).eval(2), 4.0 / 9.0) <= 1e-15

    def test_n_pow_p_as_printed_disagrees(self):
        # the variant without the x**-1 factor and squared inverse cannot
        # match the series; this documents the discrepancy
        printed = cat.n_pow_p(0.5, as_printed=True).eval(2)
        series = transform(cat.n_pow_p(0.5).sequence, 2, eps=1e-13).value
        assert comp_dist(printed, series) > 0.1
        corrected = cat.n_pow_p(0.5).eval(2)
        assert comp_dist(corrected, series) <= 1e-10


class TestAllRowsAgainstSeries:
    def test_parameterless_rows(self):
        rng = random.Random(51)
        for name in ("const_one", "ramp_n", "ramp_n2"):
            check_entry_against_series(cat.build(name), in_roc_points(rng, cat.build(name)))

    def test_geometric_rows(self):
        rng = random.Random(52)
        for _ in range(5):
            p = rand_conditioned(rng)
            for name in ("pow_p", "n_pow_p"):
                entry = cat.build(name, {"p": p})
                check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_trig_rows_nondegenerate(self):
        rng = random.Random(53)
        for _ in range(4):
            while True:
                q = rand_conditioned(rng) * 0.8
                if abs(q.vec_abs()) >= 0.3:
                    break
            for name in ("cos_qn", "sin_qn"):
                entry = cat.build(name, {"q": q})
                check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_trig_rows_degenerate_complex(self):
        rng = random.Random(54)
        for _ in range(4):
            q = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            for name in ("cos_qn", "sin_qn"):
                entry = cat.build(name, {"q": q})
                assert abs(entry.params["q"].vec_abs()) == 0.0
                check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_trig_rows_degenerate_nilpotent(self):
        rng = random.Random(55)
        for _ in range(3):
            v = (i + I * j) * rng.uniform(0.2, 0.8)
            q = Biquaternion(rng.uniform(-0.8, 0.8)) + v
            assert abs(q.vec_abs()) < 1e-12  # nilpotent vector part
            for name in ("cos_qn", "sin_qn"):
                entry = cat.build(name, {"q": q})
                check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_binomial_rows(self):
        rng = random.Random(56)
        for m in (1, 2, 3):
            q = rand_conditioned(rng)
            for name in ("binom_shifted", "binom"):
                entry = cat.build(name, {"m": m, "q": q})
                check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_exp_row(self):
        rng = random.Random(57)
        for _ in range(4):
            entry = cat.build("exp_over_fact", {"q": rand_conditioned(rng, 2.0)})
            check_entry_against_series(entry, in_roc_points(rng, entry, 4))

    def test_zero_divisor_geometric_parameter(self):
        # powers of 1 + Ik grow componentwise like 2**n; the radius must see it
        entry = cat.pow_p(ONE + I * k)
        assert 1.9 <= entry.roc_radius <= 2.05
        rng = random.Random(58)
        check_entry_against_series(entry, in_roc_points(rng, entry, 6))


class TestBranchInvariance:
    """The nondegenerate closed forms must not depend on the square-root
    branch: flipping vec_abs and the direction unit together is a no-op."""

    @staticmethod
    def _cos_eval(q, x, flip):
        s = q.vector_part / q.vec_abs()
        if flip:
            s = -s
        x_inv = Biquaternion(x).inverse() if not isinstance(x, Biquaternion) else x.inverse()
        left = (ONE - exp(s * q) * x_inv).inverse()
        right = (ONE - exp(-(s * q)) * x_inv).inverse()
        return (left + right) * 0.5

    @staticmethod
    def _sin_eval(q, x, flip):
        s = q.vector_part / q.vec_abs()
        if flip:
            s = -s
        x_inv = Biquaternion(x).inverse() if not isinstance(x, Biquaternion) else x.inverse()
        left = (ONE - exp(s * q) * x_inv).inverse()
        right = (ONE - exp(-(s * q)) * x_inv).inverse()
        return s * (right - left) * 0.5

    def test_flip_is_identity(self):
        rng = random.Random(59)
        for _ in range(20):
            while True:
                q = rand_conditioned(rng) * 0.8
                if abs(q.vec_abs()) >= 0.3:
                    break
            x = rand_complex_shell(rng, 8.0, 12.0)
            plus_c = self._cos_eval(q, x, False)
            minus_c = self._cos_eval(q, x, True)
            assert comp_dist(plus_c, minus_c) <= 1e-12 * max(1.0, plus_c.component_norm())
            plus_s = self._sin_eval(q, x, False)
            minus_s = self._sin_eval(q, x, True)
            assert comp_dist(plus_s, minus_s) <= 1e-12 * max(1.0, plus_s.component_norm())
            # and the library agrees with the hand-built forms
            assert comp_dist(cat.cos_qn(q).eval(x), plus_c) <= 1e-12
            assert comp_dist(cat.sin_qn(q).eval(x), plus_s) <= 1e-12


class TestFamily:
    """const_one, ramp_n, pow_p, n_pow_p, binom_shifted and binom are members (m, s) of one family."""

    def _commuting_points(self, rng, entry, p):
        points = in_roc_points(rng, entry, 4)
        for _ in range(4):  # biquaternion points in p's commutant
            x = p * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + complex(rng.uniform(-1, 1), 0.3)
            points.append(x * (3.0 * max(entry.roc_radius, 0.5) / root_magnitudes(x)[1]))
        return points

    @pytest.mark.parametrize("alias", [(cat.pow_p, lambda p: cat.binom_shifted(0, p)),
                                       (cat.n_pow_p, lambda p: cat.binom(1, p))])
    def test_aliases_agree(self, alias):
        first, second = alias
        rng = random.Random(230)
        for _ in range(10):
            p = rand_conditioned(rng)
            a, b = first(p), second(p)
            assert a.roc_radius == b.roc_radius
            for n in range(30):
                assert repr(a.sequence.term(n)) == repr(b.sequence.term(n))
            for x in self._commuting_points(rng, a, p):
                assert p.commutes_with(x)
                assert repr(a.eval(x)) == repr(b.eval(x))

    def test_members_match_their_series_at_commuting_points(self):
        rng = random.Random(231)
        for _ in range(5):
            p = rand_conditioned(rng)
            for entry in (cat.pow_p(p), cat.n_pow_p(p), cat.binom_shifted(2, p), cat.binom(3, p)):
                check_entry_against_series(entry, self._commuting_points(rng, entry, p))


    def test_ramp_is_n_pow_p_at_one(self):
        # const_one and ramp_n are the family rows (0, 0) and (1, 1) at q = 1
        rng = random.Random(232)
        for _ in range(50):
            x = rand_conditioned(rng)
            x = x * (rng.uniform(1.5, 4.0) / root_magnitudes(x)[1])
            assert cat.ramp_n().eval(x) == cat.n_pow_p(1).eval(x)
            assert cat.const_one().eval(x) == cat.pow_p(1).eval(x)


class TestDomainChecks:
    def test_outside_roc(self):
        with pytest.raises(OutsideROCError):
            cat.const_one().eval(0.5)
        with pytest.raises(OutsideROCError):
            cat.pow_p(2 * i).eval(1.0)

    def test_binom_takes_a_zero_divisor_parameter(self):
        # the family's closed form (q*y)**m * G**m * G needs no q**-1
        for entry in (cat.binom(2, ONE + I * k), cat.binom_shifted(1, ONE + I * k)):
            assert entry.roc_radius == 2.0
            check_entry_against_series(entry, [3.0])

    def test_m_validation(self):
        with pytest.raises(ValueError):
            cat.binom(-1, 0.5 * i)

    def test_trig_radius_tracks_exponential_growth(self):
        entry = cat.cos_qn(2 * j)
        assert 6.5 <= entry.roc_radius <= math.e**2 + 0.1


class _Scripted(random.Random):
    """An rng whose uniform() replays fixed values."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def uniform(self, a, b):
        return next(self._values)


class TestDrawConditioned:
    KEPT = [0.9, 0.1, 0.2, 0, 0, 0, 0, 0]  # 0.9+0.1I+0.2i, roots 0.95 and 0.91

    @pytest.mark.parametrize("refused", [
        [0.2, 0, 0, 0, 0, 0, 0, 0],  # component size 0.2: too small to resolve
        [1, 0, 0, 0, 0, 0, 0, 1],  # 1+1Ik: complex norm 0, a zero divisor
    ], ids=["small", "zero_divisor"])
    def test_a_refused_draw_is_redrawn(self, refused):
        rng = _Scripted(refused + self.KEPT)
        assert cat.draw_conditioned(rng) == Biquaternion(0.9 + 0.1j, 0.2)
