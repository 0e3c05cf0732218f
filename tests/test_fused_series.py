"""The fused series loop of ``transform`` against the unfused reference loop,
and every place where an arithmetic result or a series quantity can leave
double range."""
import math
import random
import sys

import pytest

from biqz import (
    ONE,
    ZERO,
    Biquaternion,
    NoConvergenceError,
    OutsideROCError,
    Sequence,
    ZeroDivisorError,
    catalog,
    parse,
    transform,
)
from biqz.algebra import _result, sum_products

from helpers import rand_biquat, rand_conditioned, reference_transform, unsigned_zeros

INF = float("inf")
NAN = float("nan")


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _outcome(fn, *args, **kwargs):
    """What a series evaluation did, in a form two loops can be compared by."""
    try:
        tv = fn(*args, **kwargs)
    except Exception as exc:  # the type and message are the outcome
        return ("raised", type(exc), str(exc))
    return ("value", _reprs(tv.value), tv.terms_used, repr(tv.tail_bound))


def _same(f_fused, f_ref, x, **kwargs):
    """Fused and reference outcomes over separate, identical sequences."""
    got = _outcome(transform, f_fused, x, **kwargs)
    want = _outcome(reference_transform, f_ref, x, **kwargs)
    assert got == want
    return got


def _same_unsigned(f_fused, f_ref, x, **kwargs):
    """As :func:`_same`, with the zero parts of both values unsigned."""
    got = _outcome(transform, f_fused, x, **kwargs)
    assert unsigned_zeros(got) == unsigned_zeros(_outcome(reference_transform, f_ref, x, **kwargs))
    return got


def _bare(seq: Sequence) -> Sequence:
    """A view of ``seq`` with no radius hint, so the series loop itself meets every point."""
    return Sequence(seq.term)


def _signed_zeros(rng: random.Random) -> Biquaternion:
    def part():
        return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.0])
    return Biquaternion(*(complex(part(), part()) for _ in range(4)))


# points whose vector part is zero, some of it -0.0, with signed-zero scalar parts
COMPLEX_POINTS = [
    complex(0.0, 3.0), complex(-0.0, 3.0), complex(2.5, -0.0), complex(-2.5, -0.0), complex(-0.0, -2.0),
    Biquaternion(2, -0.0, complex(0.0, -0.0), 0j),
    Biquaternion(complex(-0.0, -1.5), complex(-0.0, -0.0), -0.0, complex(0.0, -0.0)),
]


def _smuggled(w=0j, x=0j, y=0j, z=0j) -> Biquaternion:
    """A value built around the constructor, so it may hold non-finite components."""
    q = object.__new__(Biquaternion)
    for name, value in zip("wxyz", (w, x, y, z)):
        object.__setattr__(q, name, complex(value))
    return q


class TestFusedLoopMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_at_biquaternion_points(self, seed):
        rng = random.Random(seed)
        terms = [rand_biquat(rng, 2.0) for _ in range(rng.randint(1, 80))]
        tail = rand_biquat(rng) if seed % 2 else ZERO
        for _ in range(4):
            x = rand_conditioned(rng, scale=3.0)
            if x.component_norm() < 1.0:
                continue
            _same(Sequence.from_terms(terms, tail), Sequence.from_terms(terms, tail), x)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_geometric_sequences(self, seed):
        rng = random.Random(100 + seed)
        p = rand_conditioned(rng, scale=0.5)
        for scale in (1.2, 2.0, 5.0):
            x = p * scale + rand_biquat(rng, 0.05)
            got = _same(_bare(Sequence.geometric(p)), _bare(Sequence.geometric(p)), x)
            capped = _same(_bare(Sequence.geometric(p)), _bare(Sequence.geometric(p)), x, max_terms=20)
            if scale == 5.0:  # far outside p's roots, both runs sum to a value
                assert got[0] == capped[0] == "value"

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zero_terms(self, seed):
        rng = random.Random(200 + seed)
        terms = [_signed_zeros(rng) for _ in range(40)]
        for x in (2.0, -2.0, parse("1.5-0.5Ii+0.25k"), _signed_zeros(rng) + 4.0, *COMPLEX_POINTS):
            for max_terms in (5, 12, 4096):
                _same(Sequence.from_terms(terms), Sequence.from_terms(terms), x, max_terms=max_terms)

    def test_all_zero_and_negative_zero_sequences(self):
        neg = Biquaternion(complex(-0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0))
        # a -0.0 part among nonzero ones: the scaled terms may differ from the full products in zero signs only
        one_neg = Biquaternion(1.0, complex(2.0, -0.0), -1j, 0.5)
        for first in (ZERO, neg, ONE, one_neg):
            for x in (3.0, -3.0, parse("-0.0+2k"), *COMPLEX_POINTS):
                got = _same_unsigned(Sequence.from_terms([first], neg), Sequence.from_terms([first], neg), x)
                assert got[0] == "value"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_signed_zero_sequences_at_complex_points(self, seed):
        # -0.0 parts in f_0, in later terms and in the point, where a scaled
        # term and the full product differ only in the sign of a zero part,
        # so the values are compared with their zero parts unsigned
        rng = random.Random(300 + seed)

        def signed_zero():
            return complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))

        for _ in range(50):
            terms = [_signed_zeros(rng) for _ in range(rng.randint(1, 30))]
            w = complex(rng.choice([0.0, -0.0, 1.5, -2.0, 3.0, 5.0, -4.0]), rng.choice([0.0, -0.0, 1.0, -2.5]))
            x = Biquaternion(w, signed_zero(), signed_zero(), signed_zero())
            tail = _signed_zeros(rng)
            max_terms = rng.choice([5, 12, 4096])
            _same_unsigned(_bare(Sequence.from_terms(terms, tail)), _bare(Sequence.from_terms(terms, tail)), x,
                           max_terms=max_terms)

    @pytest.mark.parametrize("x", ["3", "2.5", "(2+1I)", "3+0.5i", "2.2Ik+2.5"])
    def test_powers_of_one_plus_ik(self, x):
        p = parse("1+1Ik")
        got = _same(_bare(Sequence.geometric(p)), _bare(Sequence.geometric(p)), parse(x))
        assert got[0] == "value"

    @pytest.mark.parametrize("max_terms", [1, 2, 8, 9, 50, 300])
    def test_runs_that_hit_max_terms(self, max_terms):
        p = parse("1+1Ik")
        got = _same(Sequence.geometric(p), Sequence.geometric(p), 2.01, max_terms=max_terms)
        assert got[0] == "value" and got[2] == max_terms
        # a tail is reported once the ratio window is full, but not below eps
        assert (got[3] == "inf") == (max_terms <= 8)

    def test_the_long_boundary_series(self):
        a, b = catalog.pow_p(0.99).sequence, catalog.pow_p(0.99).sequence
        got = _same(a, b, 1.0)
        assert got[2] == 3208

    @pytest.mark.parametrize("name", ["cos_qn", "sin_qn", "binom", "n_pow_p", "exp_over_fact"])
    def test_catalog_rows(self, name):
        rng = random.Random(name)
        for params in catalog.ROWS[name].sample(rng):
            a, b = catalog.build(name, params), catalog.build(name, params)
            x = 1.5 * max(a.roc_radius, 1.0) + 0.5j
            _same(a.sequence, b.sequence, x)

    @pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-15])
    def test_tolerances(self, eps):
        p = parse("0.5+0.3i-0.2Ij")
        _same(Sequence.geometric(p), Sequence.geometric(p), parse("1.1-0.1k"), eps=eps)


class TestSameExceptions:
    def test_growing_terms_exceed_the_bail(self):
        got = _same(_bare(Sequence.geometric(3.0)), _bare(Sequence.geometric(3.0)), 1.0)
        assert got[:2] == ("raised", NoConvergenceError)

    def test_terms_still_growing_at_the_budget(self):
        got = _same(_bare(Sequence.geometric(1.5)), _bare(Sequence.geometric(1.5)), 1.0, max_terms=40)
        assert got[:2] == ("raised", NoConvergenceError)

    @pytest.mark.parametrize("kwargs", [{"eps": 0.0}, {"max_terms": 0}])
    def test_bad_arguments(self, kwargs):
        got = _same(Sequence.constant(1), Sequence.constant(1), 2.0, **kwargs)
        assert got[:2] == ("raised", ValueError)

    def test_outside_the_radius_hint(self):
        got = _same(catalog.pow_p(0.9).sequence, catalog.pow_p(0.9).sequence, 0.5)
        assert got[:2] == ("raised", OutsideROCError)

    def test_non_invertible_point(self):
        got = _same(Sequence.constant(1), Sequence.constant(1), parse("1+1Ik"))
        assert got[:2] == ("raised", ZeroDivisorError)

    def test_a_term_that_raises_stops_the_loop(self):
        def term(n):
            if n == 5:
                raise OverflowError("term 5")
            return ONE

        got = _same(Sequence(term), Sequence(term), 2.0)
        assert got[0] == "value" and got[2] == 5


class TestSeriesOverflowSites:
    """Each test fails against a fused loop that drops the matching check."""

    def test_an_overflowing_term_stops_the_loop(self):
        # f_1 and x**-1 = 1e100 are finite, their product is not
        f = [ONE, Biquaternion(1e250)]
        got = _same(Sequence.from_terms(f), Sequence.from_terms(f), 1e-100)
        assert got == ("value", _reprs(ONE), 1, "inf")

    def test_a_nan_term_stops_the_loop(self):
        # f_1 = 1e250 - 1e250 i and x**-1 = 5e99 - 5e99 i: the scalar part
        # of the product is inf - inf
        x = Biquaternion(1e-100, 1e-100)
        f = [ONE, Biquaternion(1e250, -1e250)]
        x_inv = x.inverse()
        assert math.isnan((f[1].w * x_inv.w - f[1].x * x_inv.x).real)
        got = _same(Sequence.from_terms(f), Sequence.from_terms(f), x)
        assert got == ("value", _reprs(ONE), 1, "inf")

    def test_finite_term_whose_norm_overflows_raises(self):
        # components of 1e160 are finite, but their squares are not
        f = [ONE, Biquaternion(1e160)]
        got = _same(Sequence.from_terms(f), Sequence.from_terms(f), 1.0)
        assert got[:2] == ("raised", NoConvergenceError)

    def test_overflowing_power_of_x_ends_the_series(self):
        # zero terms never reach the bail, but x**-4 = 1e400 leaves range, so
        # the product 0 * x**-4 is NaN and the series ends after f_3, as it
        # does for an overflowing term: a value, not a raise
        f = [ONE]
        for x in (1e-100, complex(1e-100, -0.0), complex(-1e-100, -0.0), complex(-0.0, 1e-100),
                  Biquaternion(1e-100, -0.0, complex(0.0, -0.0)), parse("1e-100+1e-120i")):
            got = _same(Sequence.from_terms(f), Sequence.from_terms(f), x)
            assert got == ("value", _reprs(ONE), 4, "inf")

    def test_power_past_double_range_inside_the_roc_gives_a_value(self):
        # term ratio 0.5/0.505 = 0.990: the series is finite, sums to 101, and
        # needs more terms than 0.505**-n stays finite for
        tv = transform(catalog.pow_p(0.5).sequence, 0.505)
        assert tv.terms_used * math.log(1 / 0.505) > math.log(sys.float_info.max)
        assert 1e-12 < tv.tail_bound < 1e-2
        assert (tv.value - 101).component_norm() <= tv.tail_bound + tv.terms_used * 101 * 2.0**-52
        assert _same(catalog.pow_p(0.5).sequence, catalog.pow_p(0.5).sequence, 0.505)[0] == "value"

    def test_growing_terms_whose_power_overflows_first_do_not_converge(self):
        # terms 0.2**n * 10**n = 2**n grow, but 10**n leaves range at n = 309,
        # before any term exceeds the bail: the full window of ratios 2 refuses
        f = Sequence(lambda n: 0.2**n)
        got = _same(f, Sequence(lambda n: 0.2**n), 0.1)
        assert got[:2] == ("raised", NoConvergenceError)
        assert "still growing" in got[2]


class TestArithmeticOverflow:
    big = Biquaternion(1e200, 1e200)

    @pytest.mark.parametrize("op", [
        lambda: Biquaternion(1e308) + Biquaternion(1e308),
        lambda: Biquaternion(1e308) - Biquaternion(-1e308),
        lambda: Biquaternion(1e10) * 1e300,
        lambda: 1e300 * Biquaternion(1e10),
        lambda: Biquaternion(1e10) / 1e-300,
        lambda: TestArithmeticOverflow.big * Biquaternion(1e200, -1e200),
        lambda: sum_products([(Biquaternion(1e154), Biquaternion(1e154))] * 2),
    ], ids=["add", "sub", "mul_scalar", "rmul", "truediv", "mul", "sum_products"])
    def test_inf_results_raise(self, op):
        with pytest.raises(ValueError, match="non-finite"):
            op()

    # a NaN sum or difference needs a non-finite operand: the scalar is
    # refused as it is embedded; big * big has the scalar part inf - inf
    @pytest.mark.parametrize("op", [
        lambda: Biquaternion(1.0) + NAN,
        lambda: Biquaternion(1.0) - NAN,
        lambda: Biquaternion(1.0) * NAN,
        lambda: NAN * Biquaternion(1.0),
        lambda: Biquaternion(1.0) / NAN,
        lambda: TestArithmeticOverflow.big * TestArithmeticOverflow.big,
        lambda: sum_products([(Biquaternion(1e200), Biquaternion(1e200)),
                              (Biquaternion(-1e200), Biquaternion(1e200))]),
    ], ids=["add", "sub", "mul_scalar", "rmul", "truediv", "mul", "sum_products"])
    def test_nan_results_raise(self, op):
        with pytest.raises(ValueError, match="non-finite"):
            op()

    @pytest.mark.parametrize("value", [INF, NAN])
    def test_negation_and_conjugate_check_their_results(self, value):
        # finite operands cannot give non-finite results here, so the
        # operand is built around the constructor
        bad = _smuggled(1.0, value)
        with pytest.raises(ValueError, match="non-finite"):
            -bad
        with pytest.raises(ValueError, match="non-finite"):
            bad.conj()

    @pytest.mark.parametrize("cns, w", [(complex(1e-300), 1e10), (complex(INF, INF), 1.0)], ids=["inf", "nan"])
    def test_inverse_checks_its_result(self, cns, w):
        # no finite value divides out of range, so the norms are stubbed:
        # 1e10 / 1e-300 is inf and 1 / (inf + inf I) is nan; a subnormal cns
        # would not be divided by, as inverse takes the unit copy there
        class Stubbed(Biquaternion):
            __slots__ = ()

            def complex_norm_sq(self):
                return cns

            def component_norm(self):
                return 0.0

        with pytest.raises(ValueError, match="non-finite"):
            Stubbed(w).inverse()

    @pytest.mark.parametrize("components", [(INF, 0, 0, 0), (0, 0, 0, complex(0, NAN))])
    def test_result_builder_raises_the_constructors_error(self, components):
        with pytest.raises(ValueError, match="non-finite biquaternion component"):
            _result(*(complex(c) for c in components))

    def test_results_are_built_in_complex(self):
        class Sub(complex):
            pass

        for q in (Biquaternion(2.0) * Sub(3), Sub(3) * Biquaternion(2.0), Biquaternion(6.0) / Sub(2),
                  Biquaternion(2.0) * True):
            assert all(type(c) is complex for c in (q.w, q.x, q.y, q.z))
