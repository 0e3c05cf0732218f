"""Complex-scalar ratios step their powers in one complex product, with the
Hamilton product's bits; trig joins build unchecked yet finite; unforced
relations skip their empty forcing pass, bit for bit."""
import math
import random
import sys

import pytest

import biqz.catalog as cat
import biqz.sequences as sequences
from biqz import Biquaternion, ForcingTerm, LinearRecurrence, Sequence, verify_closed_form
from biqz.algebra import _hamilton, _result, _sum_pieces

from helpers import _powers, literal_mul, rand_biquat, rand_conditioned

STEPS = 300
BIG = sys.float_info.max

# 5e-324's roots lie "apart" (rho/8 underflows to 0), so it takes the three-term step
SCALARS = [0.0, -0.0, 1.0, 0.99, 0.3 - 0.4j, 1e300, -1e300, 5e-324, 1e-310,
           complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -0.99j]
FAST = [s for s in SCALARS if s != 5e-324]


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _chain(p: Biquaternion, steps: int):
    """[p**0, p**1, ...] by the literal Hamilton product, up to the first
    power past double range, and that power's error message or None."""
    values = [Biquaternion(1.0)]
    for _ in range(steps):
        try:
            values.append(literal_mul(values[-1], p))
        except ValueError as exc:
            return values, str(exc)
    return values, None


def _counting(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*parts):
        calls[0] += 1
        return _hamilton(*parts)

    monkeypatch.setattr(sequences, "_hamilton", counted)
    return calls


def _negative_zero_ratios() -> list[Biquaternion]:
    # one -0.0 in each of the six vector floats, then all six
    ratios = []
    for s in (0.99, 0.3 - 0.4j, 1.0, -1.0, -0.5):
        for i in range(6):
            parts = [0.0] * 6
            parts[i] = -0.0
            ratios.append(Biquaternion.from_components([s.real, s.imag, *parts]))
        ratios.append(Biquaternion(s, -0j, -0j, -0j))
    return ratios


class TestScalarStep:
    @pytest.mark.parametrize("s", FAST, ids=repr)
    def test_a_scalar_ratio_skips_the_hamilton_step(self, s, monkeypatch):
        calls = _counting(monkeypatch)
        term = _powers(Biquaternion(s))
        for n in range(STEPS + 1):
            try:
                term(n)
            except ValueError:
                break
        # only an overflowing step is redone as the product
        assert calls[0] == (1 if abs(s) == 1e300 else 0)

    @pytest.mark.parametrize("s", SCALARS, ids=repr)
    def test_powers_match_the_hamilton_chain(self, s):
        p = Biquaternion(s)
        want, error = _chain(p, STEPS)
        term = _powers(p)
        assert [_reprs(term(n)) for n in range(len(want))] == [_reprs(v) for v in want]
        if error is not None:
            with pytest.raises(ValueError) as info:
                term(len(want))
            assert str(info.value) == error

    @pytest.mark.parametrize("p", _negative_zero_ratios(), ids=repr)
    def test_a_negative_zero_vector_part_keeps_the_product(self, p, monkeypatch):
        assert all(v == 0.0 for c in (p.x, p.y, p.z) for v in (c.real, c.imag))
        want, _ = _chain(p, 60)
        calls = _counting(monkeypatch)
        term = _powers(p)
        assert [_reprs(term(n)) for n in range(61)] == [_reprs(v) for v in want]
        assert calls[0] == 60

    def test_the_one_product_would_flip_a_zero_sign_there(self):
        # why a -0.0 vector part keeps the product: (w*pw, 0j, 0j, 0j) differs from it
        p = Biquaternion(-1.0, complex(-0.0, 0.0))
        want, _ = _chain(p, 2)
        assert _reprs(want[2]) != tuple(map(repr, (want[1].w * p.w, 0j, 0j, 0j)))

    @pytest.mark.parametrize("s", [1e200, complex(1e200, 1e200), -1e300, complex(3e100, -2e100)], ids=repr)
    def test_overflow_raises_the_products_error_at_its_index(self, s):
        p = Biquaternion(s)
        want, error = _chain(p, STEPS)
        assert error is not None
        term = _powers(p)
        with pytest.raises(ValueError) as info:
            term(len(want))
        assert str(info.value) == error
        # earlier powers keep their bits, before and after the failure
        assert [_reprs(term(n)) for n in range(len(want))] == [_reprs(v) for v in want]
        with pytest.raises(ValueError):
            term(len(want) + 3)

    def test_catalog_power_rows_take_the_scalar_step(self, monkeypatch):
        calls = _counting(monkeypatch)
        entries = [cat.pow_p(0.99), cat.const_one(), cat.ramp_n(), cat.n_pow_p(0.3 - 0.4j), cat.binom(2, 0.5)]
        for entry in entries:
            entry.sequence.prefix(50)
        Sequence.geometric(0.5 + 0.5j).prefix(50)
        assert calls[0] == 0


class TestTrigJoins:
    PARTS = [(BIG, BIG, -BIG, complex(BIG, -BIG)), (complex(BIG, BIG), -BIG, BIG, complex(-BIG, BIG)),
             (complex(-BIG, -BIG), complex(BIG, -BIG), 0j, -0j), (BIG, -BIG, complex(BIG, BIG), 1.0)]

    @pytest.mark.parametrize("join", [cat._half_sum, cat._half_i_difference], ids=lambda j: j.__name__)
    def test_joins_at_the_largest_double_are_finite_and_as_checked(self, join, monkeypatch):
        got = [join(a, b) for a in self.PARTS for b in self.PARTS]
        assert all(math.isfinite(v) for q in got for c in (q.w, q.x, q.y, q.z) for v in (c.real, c.imag))
        monkeypatch.setattr(cat, "_built", _result)
        checked = [join(a, b) for a in self.PARTS for b in self.PARTS]
        assert list(map(_reprs, got)) == list(map(_reprs, checked))


def _unforced(seed: int) -> LinearRecurrence:
    rng = random.Random(seed)
    order = rng.randint(1, 4)
    coeffs = [rand_biquat(rng) for _ in range(order)] + [rand_conditioned(rng)]
    return LinearRecurrence(coeffs, [rand_biquat(rng) for _ in range(order)])


def _signed_zeros(rng: random.Random) -> LinearRecurrence:
    """An order-1 unforced relation whose parts are mostly signed zeros, so
    the sign of the sum the step starts from can reach a term."""
    def part():
        return complex(rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.0]), rng.choice([0.0, -0.0, 0.0, -0.0, 0.5]))

    def value():
        return Biquaternion(part(), part(), part(), part())

    lead = Biquaternion(rng.choice([1.0, -1.0]), *(rng.choice([0j, -0j]) for _ in range(3)))
    return LinearRecurrence([value(), lead], [value()])


def _old_solution(rec: LinearRecurrence, steps: int = 39):
    """The solution step with its forcing pass, written out as before the skip."""
    lead_inv = rec.coeffs[-1].inverse()
    negated = [-c for c in rec.coeffs]
    window = tuple(rec.initial)
    values = list(window)
    for k in range(1, steps + 1):
        acc, _ = _sum_pieces(rec._forcing(k - 1))
        (w, x, y, z), _ = _sum_pieces(zip(window, negated), acc)
        window = window[1:] + (_result(*_hamilton(w, x, y, z, lead_inv.w, lead_inv.x, lead_inv.y, lead_inv.z)),)
        values.append(window[-1])
    return values


def _old_identity_gap(rec: LinearRecurrence, f: Sequence, n: int):
    lhs, scale = _sum_pieces(zip(map(f.term, range(n, n + len(rec.coeffs))), rec.coeffs), scale=1.0)
    rhs, scale = _sum_pieces(rec._forcing(n), scale=scale)
    dw, dx, dy, dz = map(complex.__sub__, lhs, rhs)
    return math.hypot(dw.real, dw.imag, dx.real, dx.imag, dy.real, dy.imag, dz.real, dz.imag), scale


class TestUnforcedRelations:
    @pytest.mark.parametrize("seed", range(3700, 3712))
    def test_solution_terms_match_the_forcing_pass(self, seed, monkeypatch):
        rec = _unforced(seed)
        want = _old_solution(rec)
        monkeypatch.setattr(rec, "_forcing", lambda n: pytest.fail("an unforced step read its forcing"))
        got = rec.solution().prefix(len(want))
        assert list(map(_reprs, got)) == list(map(_reprs, want))

    def test_signed_zero_terms_match_the_forcing_pass(self):
        # the step's sum starts from +0.0 parts, as the sum over no forcing pieces did
        rng = random.Random(1)
        for _ in range(600):
            rec = _signed_zeros(rng)
            want = _old_solution(rec, 4)
            assert list(map(_reprs, rec.solution().prefix(len(want)))) == list(map(_reprs, want))

    @pytest.mark.parametrize("seed", range(3700, 3712))
    def test_closed_form_rows_match_the_forcing_pass(self, seed, monkeypatch):
        rec = _unforced(seed)
        rng = random.Random(seed)
        # an off candidate, a -0.0-laden one and one past double range
        candidates = [rec.solution(), Sequence(lambda n: rand_biquat(rng)),
                      Sequence(lambda n: Biquaternion(-0.0, -0j, complex(-0.0, 0.0), n)),
                      Sequence(lambda n: Biquaternion(BIG, BIG * 1j, -BIG))]
        for candidate in candidates:
            candidate.prefix(30)
            gaps = [tuple(map(repr, rec.identity_gap(candidate, n))) for n in range(25)]
            want = [tuple(map(repr, _old_identity_gap(rec, candidate, n))) for n in range(25)]
            assert gaps == want
            got = repr(verify_closed_form(rec, candidate, 25))
            monkeypatch.setattr(LinearRecurrence, "identity_gap", _old_identity_gap)
            assert repr(verify_closed_form(rec, candidate, 25)) == got
            monkeypatch.undo()

    def test_a_forced_relation_still_reads_its_forcing(self):
        # f(n+1) - 0.5 f(n) = 2**n, f(0) = 1
        rec = LinearRecurrence([-0.5, 1], [1], [ForcingTerm(Sequence.geometric(2), [1])])
        assert rec.solution().prefix(4) == [Biquaternion(v) for v in (1.0, 1.5, 2.75, 5.375)]
        assert rec.identity_gap(rec.solution(), 2) == (0.0, 5.375)
