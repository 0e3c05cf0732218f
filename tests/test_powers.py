"""Constant-ratio powers stepped over raw components: bit-identical to the
Biquaternion products of ``stepped(ONE, lambda _: p)``, at any access order."""
import math
import random
import sys
import threading

import pytest

import biqz.catalog as cat
from biqz import ONE, Biquaternion, Sequence, exp, geometric_scale
from biqz.sequences import _powers, stepped

from helpers import rand_biquat

ZERO_PARTS = (0.0, -0.0)


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _reference(p: Biquaternion):
    return stepped(ONE, lambda _: p)


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
    for m in (0, 1, 3):
        yield "binom_shifted", cat.binom_shifted(m, p).sequence, p, lambda n, m=m: math.comb(n + m, m)
    q = rand_biquat(rng, 0.6)  # binom needs an invertible q
    for m in (0, 1, 3, 5):
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
        # a weight of 1 could flip the sign of zero parts, so pow_p takes none
        for p in RATIOS[:20]:
            seq, ref = cat.pow_p(p).sequence, _reference(p)
            for n in range(40):
                assert _reprs(seq.term(n)) == _reprs(ref(n)), (p, n)


class TestTrigPowers:
    @pytest.mark.parametrize("name", ["cos_qn", "sin_qn"])
    def test_nondegenerate_rows_match_stepped_powers(self, name):
        # every q, complex scalars and nilpotent vector parts included, takes
        # the one construction: combine the stepped powers of exp(+-I*q)
        rng = random.Random(2000)
        combine = {
            "cos_qn": lambda a, b: (a + b) * 0.5,
            "sin_qn": lambda a, b: (b - a) * 0.5j,
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
    @pytest.mark.parametrize(
        "p",
        [
            Biquaternion(1e100),
            Biquaternion(1e30, -1e30j, 1e30, 0.0),
            Biquaternion(complex(3e50, -1e51), 0.0, complex(0.0, 2e50), -0.0),
        ],
    )
    def test_same_error_at_the_same_index(self, p):
        ref = _reference(p)
        first = next(n for n in range(100) if _failure(ref, n) is not None)
        term = _powers(p)
        for n in range(first):
            assert _reprs(term(n)) == _reprs(ref(n)), n
        message = _failure(term, first)
        assert message is not None and message == _failure(_reference(p), first)
        # the failure leaves the stepper where it was: earlier indices still work
        assert _reprs(term(first - 1)) == _reprs(ref(first - 1))
        assert _failure(_powers(p), first + 3) == _failure(_reference(p), first + 3)

    def test_weighted_overflow_raises_the_same_error(self):
        p = Biquaternion(1e200, 1e100j)
        assert _failure(_powers(p, lambda n: n), 2) == _failure(_reference(p), 2) is not None
        # finite powers whose weighted components overflow
        big = Biquaternion(1e300, -1e300j)
        ref = _reference(big)
        message = _failure(_powers(big, lambda n: 1e10 * n), 1)
        assert message is not None and message == _failure(lambda n: ref(n) * (1e10 * n), 1)


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
