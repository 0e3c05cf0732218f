"""A complex-scalar coefficient (exactly zero vector part) scales its piece in
4 complex products, not the Hamilton product's 16: in the solution step, the
forcing side, the relation check, ``sum_products`` and spec candidates.  Each
matches the Hamilton path written out as it was, in every nonzero bit, and
raises where it raised.  ``q ** n`` starts from its first factor, and a
relation's coefficients, initial values and forcing terms are tuples."""
import math
import random
import sys
from pathlib import Path

import pytest

import biqz.cli as cli
from biqz import (
    ONE,
    Biquaternion,
    ForcingTerm,
    LinearRecurrence,
    NoConvergenceError,
    Sequence,
    verify_closed_form,
)
from biqz.algebra import _hamilton, _result, sum_products
from biqz.cli import main

from helpers import rand_biquat, rand_conditioned

N_TERMS = 30
BIG = 1e300


def _unsigned(q: Biquaternion) -> tuple[str, ...]:
    # -0.0 + 0.0 is 0.0: zero parts compare unsigned, nonzero ones bit for bit
    return tuple(repr(c + 0j) for c in (q.w, q.x, q.y, q.z))


def _outcome(run):
    """('value', result) or (exception type, message): what a call returned or raised."""
    try:
        return "value", run()
    except (ValueError, NoConvergenceError) as exc:
        return type(exc), str(exc)


def _counting(monkeypatch) -> list[int]:
    """Count every ``_hamilton`` call, through each biqz module that binds the name."""
    calls = [0]

    def counted(*parts):
        calls[0] += 1
        return _hamilton(*parts)

    for name, module in list(sys.modules.items()):
        if (name == "biqz" or name.startswith("biqz.")) and hasattr(module, "_hamilton"):
            monkeypatch.setattr(module, "_hamilton", counted)
    return calls


# -- the Hamilton path as it was: every piece by the 16-product form --------


def _hamilton_sum(pairs, acc=(0j, 0j, 0j, 0j), scale=None):
    w, x, y, z = acc
    for p, q in pairs:
        aw, ax, ay, az = _hamilton(p.w, p.x, p.y, p.z, q.w, q.x, q.y, q.z)
        if scale is not None:
            size = math.hypot(aw.real, aw.imag, ax.real, ax.imag, ay.real, ay.imag, az.real, az.imag)
            if size > scale:
                scale = size
        w, x, y, z = w + aw, x + ax, y + ay, z + az
    return (w, x, y, z), scale


def _old_solution(rec: LinearRecurrence) -> Sequence:
    lead_inv = rec.coeffs[-1].inverse()
    negated = [-c for c in rec.coeffs]
    values = list(rec.initial)

    def term(n: int) -> Biquaternion:
        while len(values) <= n:
            k = len(values) - rec.order + 1
            try:
                acc, _ = _hamilton_sum(rec._forcing(k - 1))
                (w, x, y, z), _ = _hamilton_sum(zip(values[k - 1:], negated), acc)
                values.append(_result(*_hamilton(w, x, y, z, lead_inv.w, lead_inv.x, lead_inv.y, lead_inv.z)))
            except ValueError as exc:
                raise NoConvergenceError(
                    f"recurrence solution leaves double range at index {k - 1 + rec.order}"
                ) from exc
        return values[n]

    return Sequence(term, name="recurrence")


def _old_rhs(rec: LinearRecurrence, n: int) -> Biquaternion:
    return _result(*_hamilton_sum(rec._forcing(n))[0])


def _old_identity_gap(rec: LinearRecurrence, f: Sequence, n: int):
    lhs, scale = _hamilton_sum(zip(map(f.term, range(n, n + len(rec.coeffs))), rec.coeffs), scale=1.0)
    rhs, scale = _hamilton_sum(rec._forcing(n), scale=scale)
    dw, dx, dy, dz = map(complex.__sub__, lhs, rhs)
    return math.hypot(dw.real, dw.imag, dx.real, dx.imag, dy.real, dy.imag, dz.real, dz.imag), scale


# -- random relations --------------------------------------------------------


def _signed_zero_vector(rng: random.Random) -> Biquaternion:
    """A complex scalar whose vector part is zeros of random signs."""
    zeros = [complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))) for _ in range(3)]
    return Biquaternion(complex(rng.uniform(-2, 2), rng.uniform(-1, 1)), *zeros)


DRAWS = {
    "real": lambda rng: Biquaternion(rng.uniform(-2, 2)),
    "complex": lambda rng: Biquaternion(complex(rng.uniform(-2, 2), rng.uniform(-1, 1))),
    "signed_zero_vector": _signed_zero_vector,
    "generic": lambda rng: rand_biquat(rng, 1.0),
}


def _coeff(rng: random.Random) -> Biquaternion:
    return DRAWS[rng.choice(list(DRAWS))](rng)


def _relation(seed: int) -> LinearRecurrence:
    """Order 1-3 with mixed coefficients and an invertible lead; odd seeds are
    forced.  The same seed draws an equal relation with fresh sequences."""
    rng = random.Random(seed)
    order = rng.randint(1, 3)
    coeffs = [_coeff(rng) for _ in range(order)]
    lead = _coeff(rng)
    while lead.component_norm() < 0.5 or not lead.is_invertible():
        lead = rand_conditioned(rng)
    initial = [rng.choice([_coeff, lambda r: rand_biquat(r, 1.0)])(rng) for _ in range(order)]
    forcing = []
    for _ in range(rng.randint(1, 2) if seed % 2 else 0):
        ratio = _coeff(rng) * (0.9 / max(1.0, _coeff(rng).component_norm()))
        g = rng.choice([Sequence.geometric(ratio), Sequence.constant(_coeff(rng))])
        forcing.append(ForcingTerm(g, [_coeff(rng) for _ in range(rng.randint(1, 2))]))
    return LinearRecurrence(coeffs + [lead], initial, forcing)


@pytest.mark.parametrize("seed", range(3900, 3940))
def test_relations_match_the_hamilton_path(seed, monkeypatch):
    rec, old = _relation(seed), _relation(seed)
    want_terms = _outcome(lambda: [_unsigned(v) for v in _old_solution(old).prefix(N_TERMS)])
    assert _outcome(lambda: [_unsigned(v) for v in rec.solution().prefix(N_TERMS)]) == want_terms
    n_rows = N_TERMS - rec.order + 1
    assert [_unsigned(rec.rhs(n)) for n in range(n_rows)] == [_unsigned(_old_rhs(old, n)) for n in range(n_rows)]
    if want_terms[0] != "value":
        return
    # the solution itself (gaps of rounding size) and a geometric that does not solve it
    candidates = [_old_solution(_relation(seed)), Sequence.geometric(_coeff(random.Random(seed)) * 0.5)]
    for c in candidates:
        assert ([repr(rec.identity_gap(c, n)) for n in range(n_rows)]
                == [repr(_old_identity_gap(old, c, n)) for n in range(n_rows)])
    got = [repr(verify_closed_form(rec, c, N_TERMS)) for c in candidates]
    monkeypatch.setattr(LinearRecurrence, "identity_gap", _old_identity_gap)
    assert [repr(verify_closed_form(old, c, N_TERMS)) for c in candidates] == got


def test_the_draws_cover_each_kind_forced_and_unforced():
    relations = [_relation(seed) for seed in range(3900, 3940)]
    pieces = [c for rec in relations for c in rec.coeffs]
    pieces += [c for rec in relations for ft in rec.forcing for c in ft.coeffs]
    assert any(c.w.imag == 0 and c.x == c.y == c.z == 0 for c in pieces)
    assert any(c.w.imag != 0 and c.x == c.y == c.z == 0 for c in pieces)
    assert any(math.copysign(1.0, c.x.real) < 0 and c.x == 0 for c in pieces)
    assert any(c.x != 0 for c in pieces)
    assert {bool(rec.forcing) for rec in relations} == {False, True}


def test_sum_products_matches_the_hamilton_path():
    rng = random.Random(3941)
    for _ in range(200):
        pairs = [(rand_biquat(rng), _coeff(rng)) for _ in range(rng.randint(1, 4))]
        assert _unsigned(sum_products(pairs)) == _unsigned(_result(*_hamilton_sum(pairs)[0]))


# -- products counted ---------------------------------------------------------


class TestHamiltonCounts:
    def test_example4_at_100_terms(self, monkeypatch, capsys):
        # 1,124 with every piece a Hamilton product
        calls = _counting(monkeypatch)
        spec = str(Path(cli.__file__).parent / "specs" / "example4.json")
        assert main(["recurrence", spec, "--terms", "100", "--json"]) == 0
        assert calls[0] == 231
        assert '"pass": true' in capsys.readouterr().out

    def test_paper_suite(self, monkeypatch, capsys):
        # 1,788 with every piece a Hamilton product and q ** n starting from ONE;
        # 883 with only the pieces scaled
        calls = _counting(monkeypatch)
        assert main(["paper-suite", "--json"]) == 0
        assert calls[0] == 863
        capsys.readouterr()

    def test_scalar_pieces_take_no_hamilton_product(self, monkeypatch):
        rec = LinearRecurrence([Biquaternion(0.25, -0j, 0j, -0j), -0.5j, 1], [1j, 2],
                               [ForcingTerm(Sequence.constant(1.5), [2j, -1])])
        calls = _counting(monkeypatch)
        rec.solution().prefix(N_TERMS)
        # the step's product by the lead inverse, one per term past the initial values
        assert calls[0] == N_TERMS - rec.order
        for n in range(N_TERMS - rec.order):  # rows reading terms 0..N_TERMS-1
            rec.identity_gap(rec.solution(), n)
        sum_products([(rand_biquat(random.Random(0)), Biquaternion(2j))])
        assert calls[0] == N_TERMS - rec.order

    def test_a_generic_coefficient_keeps_the_hamilton_product(self, monkeypatch):
        rec = LinearRecurrence([Biquaternion(0.5, 0.0, -0.0, 1e-300j), 1], [1])
        calls = _counting(monkeypatch)
        rec.solution().prefix(N_TERMS)
        assert calls[0] == 2 * (N_TERMS - rec.order)


# -- spec candidates ------------------------------------------------------------


def _candidate(geos, monkeypatch) -> Sequence:
    """cli._candidate_sequence of ``geometric`` pieces whose literals name the given values."""
    values = {}

    def literal(value):
        values[f"v{len(values)}"] = value
        return f"v{len(values) - 1}"

    desc = {"geometric": [{"coeff": literal(c), "ratio": literal(r), "delay": d} for c, r, d in geos]}
    monkeypatch.setattr(cli, "parse", values.__getitem__)
    return cli._candidate_sequence(desc, "candidate")


def _old_candidate(geos):
    """A candidate's term as the Hamilton path summed it, and its checked values where that overflowed."""
    powers = [Sequence.geometric(ratio) for _, ratio, _ in geos]

    def term(n: int) -> Biquaternion:
        w = x = y = z = 0j
        try:
            for (c, _, dly), p in zip(geos, powers):
                if n >= dly:
                    p = p.term(n - dly)
                    pw, px, py, pz = _hamilton(c.w, c.x, c.y, c.z, p.w, p.x, p.y, p.z)
                    w, x, y, z = w + pw, x + px, y + py, z + pz
            return _result(w, x, y, z)
        except ValueError:
            acc = Biquaternion()
            for (c, _, dly), p in zip(geos, powers):
                if n >= dly:
                    acc = acc + c * p.term(n - dly)
            return acc

    return term


@pytest.mark.parametrize("seed", range(3950, 3960))
def test_candidates_match_the_hamilton_path(seed, monkeypatch):
    rng = random.Random(seed)
    geos = [(_coeff(rng), _coeff(rng) * 0.45, rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    got, want = _candidate(geos, monkeypatch), _old_candidate(geos)
    assert [_unsigned(got.term(n)) for n in range(40)] == [_unsigned(want(n)) for n in range(40)]


def test_a_scalar_candidate_takes_no_hamilton_product(monkeypatch):
    cand = _candidate([(Biquaternion(3.2 + 0.4j), Biquaternion(0.5j), 0),
                       (Biquaternion(-3.2 + 1.6j, -0j), Biquaternion(0.25), 1)], monkeypatch)
    calls = _counting(monkeypatch)
    cand.prefix(40)
    assert calls[0] == 0


# -- overflow: the same exception, message and index ------------------------------


OVERFLOWS = {
    # a scalar-coefficient piece past double range
    "piece": lambda: LinearRecurrence([-BIG, 1], [1e10]),
    # two finite scalar pieces whose partial sum leaves double range
    "partial_sum": lambda: LinearRecurrence([-1e308, -1e308, 1], [1, 1]),
    # a forcing piece past double range
    "forcing_piece": lambda: LinearRecurrence([-0.5j, 1], [1], [ForcingTerm(Sequence.geometric(1e10), [1e290j])]),
    # forcing pieces whose partial sum leaves double range
    "forcing_sum": lambda: LinearRecurrence([-0.5, 1], [1], [ForcingTerm(Sequence.constant(1e308), [1, 1])]),
}


@pytest.mark.parametrize("kind", OVERFLOWS)
def test_overflow_in_the_step_and_the_check(kind, monkeypatch):
    rec, old = OVERFLOWS[kind](), OVERFLOWS[kind]()
    got = _outcome(lambda: [_unsigned(v) for v in rec.solution().prefix(10)])
    assert got == _outcome(lambda: [_unsigned(v) for v in _old_solution(old).prefix(10)])
    assert got[0] is NoConvergenceError
    f = Sequence.geometric(1e10) if kind == "piece" else Sequence.constant(1e308)
    gaps = [repr(rec.identity_gap(f, n)) for n in range(6)]
    assert gaps == [repr(_old_identity_gap(old, f, n)) for n in range(6)]
    assert any("inf" in g or "nan" in g for g in gaps)
    report = verify_closed_form(rec, f, 8)
    monkeypatch.setattr(LinearRecurrence, "identity_gap", _old_identity_gap)
    assert repr(verify_closed_form(old, f, 8)) == repr(report) and not report.passed


def test_the_step_names_the_first_index_past_range():
    with pytest.raises(NoConvergenceError, match="at index 1$"):
        OVERFLOWS["piece"]().solution().term(3)
    with pytest.raises(NoConvergenceError, match="at index 2$"):
        OVERFLOWS["partial_sum"]().solution().term(3)


CANDIDATE_OVERFLOWS = {
    # a scalar-coefficient piece past double range at n = 2
    "piece": [(Biquaternion(BIG), Biquaternion(1e5), 0)],
    # two finite scalar pieces whose partial sum leaves double range at n = 0
    "partial_sum": [(Biquaternion(1e308), Biquaternion(1), 0), (Biquaternion(1e308j), Biquaternion(1j), 0)],
    # a scalar piece past double range after a generic one
    "after_generic": [(Biquaternion(1, 1), Biquaternion(0.5), 0), (Biquaternion(-BIG), Biquaternion(1e5), 1)],
}


@pytest.mark.parametrize("kind", CANDIDATE_OVERFLOWS)
def test_candidate_overflow_raises_the_same_message_at_the_same_index(kind, monkeypatch):
    geos = CANDIDATE_OVERFLOWS[kind]
    got, want = _candidate(geos, monkeypatch), _old_candidate(geos)
    outcomes = [_outcome(lambda: _unsigned(got.term(n))) for n in range(6)]
    assert outcomes == [_outcome(lambda: _unsigned(want(n))) for n in range(6)]
    assert any(o[0] is ValueError and o[1].startswith("non-finite biquaternion component") for o in outcomes)


# -- powers start from their first factor -------------------------------------------


def _old_pow(q: Biquaternion, n: int) -> Biquaternion:
    result, base = ONE, q
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


class TestPowers:
    def test_match_the_chain_from_one(self):
        rng = random.Random(3970)
        for _ in range(60):
            q = rng.choice([_coeff, lambda r: rand_biquat(r, 1.2)])(rng)
            for n in range(41):
                assert _unsigned(q**n) == _unsigned(_old_pow(q, n)), (q, n)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 40])
    def test_one_product_fewer(self, n, monkeypatch):
        q = rand_biquat(random.Random(n))
        calls = _counting(monkeypatch)
        q**n
        assert calls[0] == n.bit_length() + bin(n).count("1") - 2

    def test_first_and_zeroth_powers(self, monkeypatch):
        q = Biquaternion(-0.0, 0.5, -0j, 2j)
        calls = _counting(monkeypatch)
        assert q**1 is q and q**0 is ONE
        assert calls[0] == 0

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("size", [1e100, 1e160])
    def test_overflow_raises_as_the_chain(self, size, n):
        q = Biquaternion(size, size * 1e-10j)
        assert _outcome(lambda: _unsigned(q**n)) == _outcome(lambda: _unsigned(_old_pow(q, n)))
        assert _outcome(lambda: q**n)[0] is ValueError


# -- a relation's parts are fixed once it memoizes ----------------------------------


class TestFixedParts:
    @staticmethod
    def _relation():
        # f(n+1) - 0.5 f(n) = 2**n
        return LinearRecurrence([-0.5, 1], [1], [ForcingTerm(Sequence.geometric(2), [1])])

    def test_an_edit_raises_instead_of_leaving_a_stale_memo(self):
        rec = self._relation()
        assert rec.solution().term(3) == 5.375
        with pytest.raises(AttributeError):
            rec.forcing.append(ForcingTerm(Sequence.constant(100), [1]))
        with pytest.raises(TypeError):
            rec.coeffs[0] = Biquaternion(-2)
        with pytest.raises(TypeError):
            rec.initial[0] = Biquaternion(7)
        assert rec.solution().term(3) == 5.375 and rec.rhs(2) == 4

    def test_a_relation_built_with_the_extra_term(self):
        forcing = [ForcingTerm(Sequence.geometric(2), [1]), ForcingTerm(Sequence.constant(100), [1])]
        assert LinearRecurrence([-0.5, 1], [1], forcing).solution().term(3) == 180.375

    def test_the_parts_are_tuples_of_the_given_values(self):
        rec = self._relation()
        assert type(rec.coeffs) is type(rec.initial) is type(rec.forcing) is tuple
        assert rec.coeffs == (Biquaternion(-0.5), ONE) and rec.initial == (ONE,)
        assert rec.forcing[0].coeffs == [ONE]
