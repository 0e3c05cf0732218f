"""cos_qn and sin_qn terms built once from the raw components of both powers
of exp(+-I*q): bit-identical to joining the two stepped power values, at any
access order, with the same error at the same index where a power leaves
double range; halving each part before the join keeps a finite term finite."""
import math
import random
import sys
import threading

import pytest

import biqz.catalog as cat
from biqz import Biquaternion, exp

from helpers import _powers

COMBINE = {
    "cos_qn": lambda a, b: (a + b) * 0.5,
    "sin_qn": lambda a, b: (b - a) * 0.5j,
}
# the joins the terms match bit for bit: sin_qn's b*0.5j - a*0.5j differs from
# (b - a)*0.5j only in the sign of exactly-zero parts, and where b - a leaves double range
JOINS = {**COMBINE, "sin_qn": lambda a, b: b * 0.5j - a * 0.5j}


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _joined(name: str, q: Biquaternion, joins=COMBINE):
    """Term function n -> the row's construction over stepped power values."""
    e_pow, f_pow = _powers(exp(q * 1j)), _powers(exp(q * -1j))
    return lambda n: joins[name](e_pow(n), f_pow(n))


def _boundary_trig(rng: random.Random) -> Biquaternion:
    """q with Im q0 = +-a and Re vec_abs = b, a, b ~ 0.05: the boundary-series
    benchmark's trig parameter, whose dominant ratio is exp(a + b)."""
    a = rng.uniform(0.04, 0.06) * rng.choice((-1, 1))
    b = rng.uniform(0.04, 0.06)
    va = complex(b, rng.uniform(-0.5, 0.5))
    u = [rng.gauss(0, 1) for _ in range(3)]
    length = math.sqrt(sum(c * c for c in u))
    return Biquaternion(complex(rng.uniform(-1, 1), a), *(va * c / length for c in u))


def _qs() -> list[Biquaternion]:
    rng = random.Random(2500)
    qs = [_boundary_trig(rng) for _ in range(3)]
    qs.append(Biquaternion(complex(rng.uniform(-1, 1), 0.02)))  # a complex scalar
    u = rng.uniform(0.2, 0.8)
    qs.append(Biquaternion(rng.uniform(-0.8, 0.8), u, 1j * u))  # a nilpotent vector part
    return qs


QS = _qs()


def _failure(term, n) -> str | None:
    """The ValueError message of term(n), or None when it returns."""
    try:
        term(n)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("name", sorted(COMBINE))
class TestFusedTerm:
    @pytest.mark.parametrize("q", QS, ids=range(len(QS)))
    def test_terms_are_the_joined_power_values(self, name, q):
        seq, want = cat.build(name, {"q": q}).sequence, _joined(name, q, JOINS)
        wrong = [n for n in range(4001) if _reprs(seq.term(n)) != _reprs(want(n))]
        assert wrong == []

    def test_out_of_order_reads_on_a_fresh_entry(self, name):
        q = QS[0]
        seq, want = cat.build(name, {"q": q}).sequence, _joined(name, q)
        for n in (3000, 10, 3001):
            assert _reprs(seq.term(n)) == _reprs(want(n)), n


@pytest.mark.parametrize("name", sorted(COMBINE))
class TestOverflow:
    def test_e_is_stepped_first_where_both_powers_overflow(self, name):
        q = Biquaternion(0.3, 300)
        e_message = _failure(_powers(exp(q * 1j)), 3)
        f_message = _failure(_powers(exp(q * -1j)), 3)
        assert e_message.endswith("(nan+infj)") and f_message.endswith("(nan-infj)")
        term = cat.build(name, {"q": q}).sequence.term
        assert _failure(term, 2) is None
        assert _failure(term, 3) == e_message

    @pytest.mark.parametrize("q", [Biquaternion(300j), Biquaternion(-300j)], ids=["f", "e"])
    def test_one_power_overflowing_raises_and_earlier_terms_hold(self, name, q):
        term, want = cat.build(name, {"q": q}).sequence._fn, _joined(name, q, JOINS)
        before = _reprs(term(2))
        assert _failure(term, 3) == _failure(want, 3) is not None
        assert _reprs(term(2)) == before == _reprs(want(2))

    def test_join_past_double_range_raises_the_values_error(self, name):
        # both powers are finite at index 2 (cosh(709.9) ~ 1e308), their sum is
        # not; each part is halved before the join, so the term is finite
        q = Biquaternion(0, 354.95)
        term, want = cat.build(name, {"q": q}).sequence._fn, _joined(name, q)
        assert _failure(want, 2) is not None and _failure(_powers(exp(q * 1j)), 2) is None
        value = term(2)
        if name == "cos_qn":  # cos(2*354.95i) = cosh(709.9)
            part, rest, exact = value.w, (value.x, value.y, value.z), math.cosh(709.9)
        else:  # sin(2*354.95i) = i*sinh(709.9)
            part, rest, exact = value.x, (value.w, value.y, value.z), math.sinh(709.9)
        assert math.isclose(part.real, exact, rel_tol=1e-12) and part.imag == 0.0
        assert rest == (0, 0, 0)
        assert _reprs(term(1)) == _reprs(want(1))


@pytest.mark.parametrize("name", sorted(COMBINE))
def test_threads_sharing_a_trig_term_function_get_the_in_order_values(name):
    # a trig term reads two power cores, so a thread switch between them must
    # not pair e**n with another index's f**n
    q = QS[0]
    ordered = cat.build(name, {"q": q}).sequence._fn
    want = [_reprs(ordered(n)) for n in range(200)]
    term = cat.build(name, {"q": q}).sequence._fn
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(400):
            n = rng.randrange(200)
            if _reprs(term(n)) != want[n]:
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
