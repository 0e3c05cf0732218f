"""Constant-ratio powers stepped over raw components, at any access order:
bit-identical to a literal copy of the three-term step where the ratio's roots
lie apart, and to the Biquaternion products of ``stepped(ONE, lambda _: p)``
everywhere else."""
from fractions import Fraction
import math
import random
import sys
import threading

import pytest

import biqz.catalog as cat
from biqz import ONE, Biquaternion, Sequence, exp, geometric_scale, transform
from biqz.sequences import stepped

from helpers import _powers, comp_dist, literal_mul, literal_three_term_powers, rand_biquat, roots_apart

ZERO_PARTS = (0.0, -0.0)


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _hamilton_reference(p: Biquaternion):
    return stepped(ONE, lambda _: p)


def _reference(p: Biquaternion):
    """The stepping the library takes for p, written out independently."""
    return literal_three_term_powers(p) if roots_apart(p) else _hamilton_reference(p)


def _signed_zero_ratio(rng: random.Random) -> Biquaternion:
    """A random ratio of size below 1 with some real or imaginary parts 0.0 or -0.0."""
    parts = [rng.uniform(-0.6, 0.6) for _ in range(8)]
    for idx in rng.sample(range(8), rng.randrange(9)):
        parts[idx] = rng.choice(ZERO_PARTS)
    return Biquaternion.from_components(parts)


def _ratios() -> list[Biquaternion]:
    rng = random.Random(1500)
    ratios = [_signed_zero_ratio(rng) for _ in range(40)]
    ratios += [rand_biquat(rng, 0.5) for _ in range(10)]
    ratios += [
        Biquaternion(),
        Biquaternion(-0.0, -0.0, -0.0, -0.0),
        Biquaternion(complex(-0.0, 0.0), 0j, complex(0.0, -0.0), -0j),
        Biquaternion(1.0),
        Biquaternion(-1.0),
        Biquaternion(1.0, 0.0, 0.0, 1j),  # a zero divisor: its powers double
    ]
    return ratios


RATIOS = _ratios()


class TestUnweighted:
    @pytest.mark.parametrize("index", range(len(RATIOS)))
    def test_in_order_matches_stepped(self, index):
        p = RATIOS[index]
        got, want = _powers(p), _reference(p)
        for n in range(120):
            assert _reprs(got(n)) == _reprs(want(n)), (p, n)

    @pytest.mark.parametrize("p", [Biquaternion(), Biquaternion(-0.0, -0.0, -0.0, -0.0)])
    def test_zero_ratio(self, p):
        term = _powers(p)
        assert _reprs(term(0)) == _reprs(ONE)
        for n in (1, 2, 7, 3, 0, 1):
            assert _reprs(term(n)) == _reprs(_reference(p)(n)), n

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_access_and_restarts(self, seed):
        rng = random.Random(1600 + seed)
        p = _signed_zero_ratio(rng)
        want = [_reference(p)(n) for n in range(150)]
        term = _powers(p)
        order = list(range(150)) + [rng.randrange(150) for _ in range(150)]
        rng.shuffle(order)
        for n in order:
            assert _reprs(term(n)) == _reprs(want[n]), n

    def test_geometric_sequences_and_scales(self):
        rng = random.Random(1700)
        for _ in range(10):
            p = _signed_zero_ratio(rng) + 0.1  # invertible, for geometric_scale
            f = Sequence.from_terms([rand_biquat(rng) for _ in range(60)])
            geo, scaled = Sequence.geometric(p), geometric_scale(f, p)
            ref = _reference(p)
            for n in range(60):
                assert _reprs(geo.term(n)) == _reprs(ref(n)), n
                assert _reprs(scaled.term(n)) == _reprs(f.term(n) * ref(n)), n


def _weighted_rows(rng: random.Random):
    """(name, sequence, ratio, weight) for every weighted catalog row."""
    p = _signed_zero_ratio(rng)
    yield "n_pow_p", cat.n_pow_p(p).sequence, p, lambda n: n
    # m = 0 rows are pow_p, unweighted (test_pow_p_rows_are_unweighted)
    for m in (1, 3):
        yield "binom_shifted", cat.binom_shifted(m, p).sequence, p, lambda n, m=m: math.comb(n + m, m)
    q = rand_biquat(rng, 0.6)  # a second ratio, with no zero parts
    for m in (1, 3, 5):
        yield "binom", cat.binom(m, q).sequence, q, lambda n, m=m: math.comb(n, m)


class TestWeighted:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_stepped_times_weight(self, seed):
        rng = random.Random(1800 + seed)
        for name, seq, p, weight in _weighted_rows(rng):
            ref = _reference(p)
            for n in range(100):
                assert _reprs(seq.term(n)) == _reprs(ref(n) * weight(n)), (name, n)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_weights_after_a_restart(self, seed):
        # n_pow_p at n = 0 and binom at n < m weigh p**n by 0, also when a
        # restart from a later index reaches them
        rng = random.Random(1900 + seed)
        for name, _, p, weight in _weighted_rows(rng):
            term, ref = _powers(p, weight), _reference(p)
            for n in (9, 0, 4, 1, 2, 0, 6, 3):
                assert _reprs(term(n)) == _reprs(ref(n) * weight(n)), (name, n)

    def test_pow_p_rows_are_unweighted(self):
        # a weight of 1 could flip the sign of zero parts, so pow_p takes none,
        # nor do the family's other m = 0 rows, binom_shifted(0, p) and binom(0, p)
        for p in RATIOS[:20]:
            ref = _reference(p)
            for entry in (cat.pow_p(p), cat.binom_shifted(0, p), cat.binom(0, p)):
                for n in range(40):
                    assert _reprs(entry.sequence.term(n)) == _reprs(ref(n)), (entry.name, p, n)


class TestTrigPowers:
    @pytest.mark.parametrize("name", ["cos_qn", "sin_qn"])
    def test_nondegenerate_rows_match_stepped_powers(self, name):
        # every q, complex scalars and nilpotent vector parts included, takes
        # the one construction: combine the stepped powers of exp(+-I*q)
        rng = random.Random(2000)
        combine = {
            "cos_qn": lambda a, b: (a + b) * 0.5,
            "sin_qn": lambda a, b: b * 0.5j - a * 0.5j,
        }[name]
        qs = [rand_biquat(rng, 0.8) for _ in range(5)]
        qs += [Biquaternion(complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))) for _ in range(3)]
        qs += [Biquaternion(rng.uniform(-0.8, 0.8), u, 1j * u) for u in (0.2, -0.5, 0.8)]
        for q in qs:
            e_ref, f_ref = _reference(exp(q * 1j)), _reference(exp(q * -1j))
            seq = cat.build(name, {"q": q}).sequence
            for n in range(80):
                assert _reprs(seq.term(n)) == _reprs(combine(e_ref(n), f_ref(n))), (q, n)


def _failure(term, n) -> str | None:
    """The ValueError message of term(n), or None when it returns."""
    try:
        term(n)
    except ValueError as err:
        return str(err)
    return None


class TestOverflow:
    # the index and message of an overflow are the product's on either path;
    # the last ratio's roots lie apart, so its powers take the three-term step
    @pytest.mark.parametrize(
        "p",
        [
            Biquaternion(1e100),
            Biquaternion(1e30, -1e30j, 1e30, 0.0),
            Biquaternion(complex(3e50, -1e51), 0.0, complex(0.0, 2e50), -0.0),
        ],
    )
    def test_same_error_at_the_same_index(self, p):
        hamilton, ref = _hamilton_reference(p), _reference(p)
        first = next(n for n in range(100) if _failure(hamilton, n) is not None)
        term = _powers(p)
        for n in range(first):
            assert _reprs(term(n)) == _reprs(ref(n)), n
        message = _failure(term, first)
        assert message is not None and message == _failure(_hamilton_reference(p), first)
        # the failure leaves the stepper where it was: earlier indices still work
        assert _reprs(term(first - 1)) == _reprs(ref(first - 1))
        assert _failure(_powers(p), first + 3) == _failure(_hamilton_reference(p), first + 3)

    def test_three_term_overflow_one_step_early_is_redone_as_the_product(self):
        # roots 1.9t and 0.1t: 2*p0 * p**2 = 2t * p**2 overflows where p**3 ~ 1.9t * p**2 does not
        p = Biquaternion(3.7e102, 0.9j * 3.7e102)
        assert roots_apart(p)
        ref = _reference(p)
        assert _failure(ref, 3) is not None  # the literal three-term step leaves double range
        term = _powers(p)
        assert _reprs(term(3)) == _reprs(literal_mul(ref(2), p))
        assert _failure(term, 4) == _failure(_hamilton_reference(p), 4) is not None

    def test_weighted_overflow_raises_the_same_error(self):
        p = Biquaternion(1e200, 1e100j)
        assert _failure(_powers(p, lambda n: n), 2) == _failure(_hamilton_reference(p), 2) is not None
        # finite powers whose weighted components overflow
        big = Biquaternion(1e300, -1e300j)
        ref = _reference(big)
        message = _failure(_powers(big, lambda n: 1e10 * n), 1)
        assert message is not None and message == _failure(lambda n: ref(n) * (1e10 * n), 1)

    def test_int_weight_past_double_range_raises_value_error(self):
        # C(1100, 400) is about 1e312, past the largest double, while 0.5**1100 is finite
        with pytest.raises(ValueError, match="non-finite biquaternion component"):
            cat.binom(400, 0.5).sequence.term(1100)


U = 2.0**-53  # unit roundoff


class TestPaths:
    def test_guarded_ratios_take_the_product(self):
        # a zero ratio, complex scalars and nilpotent vector parts have a double root
        guarded = [
            Biquaternion(), Biquaternion(-0.0, -0.0, -0.0, -0.0), Biquaternion(1.0), Biquaternion(0.3 - 0.4j),
            Biquaternion(0.5, 0.2, 0.2j), exp(Biquaternion(0.1, 0.4, 0.4j) * 1j),
        ]
        for p in guarded:
            assert not roots_apart(p), p
            assert [_reprs(_powers(p)(n)) for n in range(60)] == [_reprs(_hamilton_reference(p)(n)) for n in range(60)]

    @pytest.mark.parametrize("d, apart", [(1 / 14, True), (1 / 16, False)])
    def test_the_gap_threshold_is_an_eighth_of_the_larger_root(self, d, apart):
        # roots 1 - d and 1 + d: 2d >= (1 + d)/8 exactly when d >= 1/15
        p = Biquaternion(1.0, 1j * d)
        assert roots_apart(p) is apart
        got = [_reprs(_powers(p)(n)) for n in range(60)]
        three_term = [_reprs(literal_three_term_powers(p)(n)) for n in range(60)]
        hamilton = [_reprs(_hamilton_reference(p)(n)) for n in range(60)]
        assert three_term != hamilton
        assert got == (three_term if apart else hamilton)

    def test_most_sampled_ratios_take_the_three_term_step(self):
        # 1 + Ik is a zero divisor with roots 0 and 2: its powers take the step too
        assert roots_apart(Biquaternion(1.0, 0.0, 0.0, 1j))
        assert sum(map(roots_apart, RATIOS)) >= 40

    def test_three_term_powers_track_the_product(self):
        # an error injected at one index grows at most 16 * rho**m over m more
        # steps where the roots lie rho/8 apart; sampled ratios, ones at that
        # gap and ones with roots of equal magnitude stay within 32*(n+1)*u
        rng = random.Random(2100)
        ratios = [p for p in RATIOS if roots_apart(p)]
        for _ in range(12):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            d = abs(c) / 14.9  # just past the gap d >= |c|/15 for roots c -+ d
            ratios += [Biquaternion(c, 1j * d), Biquaternion(abs(c), d)]  # the second's roots |c| +- I*d
        assert all(map(roots_apart, ratios)) and len(ratios) >= 60
        for p in ratios:
            term, hamilton = _powers(p), _hamilton_reference(p)
            for n in range(200):
                want = hamilton(n)
                assert comp_dist(term(n), want) <= 32 * (n + 1) * U * want.component_norm(), (p, n)


def _allowance(seq, x_inv: float, tv) -> float:
    """tail_bound + 16*u*sqrt(terms)*sum|terms| for a series at a real point."""
    total = sum(seq.term(n).component_norm() * x_inv**n for n in range(tv.terms_used))
    return tv.tail_bound + 16 * U * math.sqrt(tv.terms_used) * total


class TestNearDoubleRoots:
    # near a double root the three-term recurrence's rounding grows like
    # n**2*u: stepped by it, the R[e] series read 3.2x the allowance,
    # pow_p(0.999) 92x and pow_p(0.99) 0.93x; the guard keeps all three in
    def test_roots_a_thousandth_apart(self):
        # p = (1 - s/2) + (s/2)*e with e = I*i, e*e = 1: roots 1 and 1 - s, in R[e]
        s = 1e-3
        p = Biquaternion(1 - s / 2, 1j * (s / 2))
        x = 1 / 0.999
        seq = cat.pow_p(p).sequence
        tv = transform(seq, x, max_terms=50_000)
        assert tv.certified
        # (1 - p*x**-1)**-1 in R[e]: (u + v e)**-1 = (u - v e) / (u*u - v*v)
        u, v = 1 - Fraction(p.w.real) / Fraction(x), -Fraction(p.x.imag) / Fraction(x)
        det = u * u - v * v
        w, e = u / det, -v / det
        got = tv.value
        err = math.hypot(
            float(Fraction(got.w.real) - w), got.w.imag, got.x.real, float(Fraction(got.x.imag) - e),
            abs(got.y), abs(got.z),
        )
        assert err <= _allowance(seq, 1 / x, tv)

    @pytest.mark.parametrize("p, max_terms", [(0.99, 4096), (0.999, 40_000)])
    def test_real_ratio_near_one(self, p, max_terms):
        seq = cat.pow_p(p).sequence
        tv = transform(seq, 1, max_terms=max_terms)
        assert tv.certified
        exact = 1 / (1 - Fraction(p))  # 100 for p = 0.99, up to the rounding of p
        got = tv.value
        err = math.hypot(float(Fraction(got.w.real) - exact), got.w.imag, *map(abs, (got.x, got.y, got.z)))
        assert err <= _allowance(seq, 1.0, tv)


def test_threads_sharing_a_powers_term_function_get_the_in_order_values():
    p = Biquaternion(0.6 + 0.2j, 0.3 - 0.1j, -0.2 + 0.25j, 0.1 + 0.05j)
    want = [_reference(p)(n) for n in range(200)]
    term = _powers(p, lambda n: n + 1)
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(400):
            n = rng.randrange(200)
            if _reprs(term(n)) != _reprs(want[n] * (n + 1)):
                wrong.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
