"""A forced relation sums each right side once per base index and keeps it;
spec candidates sum their pieces over raw components; trig powers of a
complex-scalar q step in one complex product.  Each matches, bit for bit, the
forcing pass and value expressions written out as they were before."""
import math
import random
import sys
import threading

import pytest

import biqz.catalog as cat
import biqz.cli as cli
import biqz.sequences as sequences
from biqz import (
    Biquaternion,
    ForcingTerm,
    LinearRecurrence,
    NoConvergenceError,
    Sequence,
    exp,
    iterate,
    verify_closed_form,
)
from biqz.algebra import _hamilton, _result, _sum_pieces
from biqz.cli import _load_recurrence, load_bundled_spec

from helpers import rand_biquat, rand_conditioned

ZERO_PARTS = (0.0, -0.0)
N_TERMS = 30
BIG = 1e200


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _unsigned(q: Biquaternion) -> tuple[str, ...]:
    # -0.0 + 0.0 is 0.0: zero parts compare unsigned, nonzero ones bit for bit
    return tuple(repr(c + 0j) for c in (q.w, q.x, q.y, q.z))


def _signed_zeros(rng: random.Random, scale: float = 1.0) -> Biquaternion:
    """A random value with some real or imaginary parts 0.0 or -0.0."""
    parts = [rng.uniform(-scale, scale) for _ in range(8)]
    for idx in rng.sample(range(8), rng.randrange(9)):
        parts[idx] = rng.choice(ZERO_PARTS)
    return Biquaternion.from_components(parts)


def _forced(seed: int, draw) -> LinearRecurrence:
    """Order 1-4, 1-3 forcing terms of 1-2 coefficients, an invertible lead;
    the same seed draws an equal relation with fresh sequences."""
    rng = random.Random(seed)
    order = rng.randint(1, 4)
    coeffs = [draw(rng) for _ in range(order)] + [rand_conditioned(rng)]
    initial = [draw(rng) for _ in range(order)]
    forcing = []
    for _ in range(rng.randint(1, 3)):
        g = rng.choice([
            lambda: Sequence.geometric(rand_biquat(rng, 0.9)),
            lambda: Sequence.constant(draw(rng)),
            lambda: Sequence(lambda n: Biquaternion(n, -0.0, 0.5 * n, complex(-0.0, n))),
        ])()
        forcing.append(ForcingTerm(g, [draw(rng) for _ in range(rng.randint(1, 2))]))
    return LinearRecurrence(coeffs, initial, forcing)


# -- the forcing pass as it was: summed anew by every reader ----------------


def _old_solution(rec: LinearRecurrence) -> Sequence:
    """The solution step summing ``_forcing(k - 1)`` itself, as a term function."""
    lead_inv = rec.coeffs[-1].inverse()
    negated = [-c for c in rec.coeffs]
    values = list(rec.initial)

    def term(n: int) -> Biquaternion:
        while len(values) <= n:
            k = len(values) - rec.order + 1
            try:
                acc, _ = _sum_pieces(rec._forcing(k - 1))
                (w, x, y, z), _ = _sum_pieces(zip(values[k - 1:], negated), acc)
                values.append(_result(*_hamilton(w, x, y, z, lead_inv.w, lead_inv.x, lead_inv.y, lead_inv.z)))
            except ValueError as exc:
                raise NoConvergenceError(
                    f"recurrence solution leaves double range at index {k - 1 + rec.order}"
                ) from exc
        return values[n]

    return Sequence(term, name="recurrence")


def _old_rhs(rec: LinearRecurrence, n: int) -> Biquaternion:
    return _result(*_sum_pieces(rec._forcing(n))[0])


def _old_identity_gap(rec: LinearRecurrence, f: Sequence, n: int):
    lhs, scale = _sum_pieces(zip(map(f.term, range(n, n + len(rec.coeffs))), rec.coeffs), scale=1.0)
    rhs, scale = _sum_pieces(rec._forcing(n), scale=scale)
    dw, dx, dy, dz = map(complex.__sub__, lhs, rhs)
    return math.hypot(dw.real, dw.imag, dx.real, dx.imag, dy.real, dy.imag, dz.real, dz.imag), scale


def _outcome(run):
    """('value', repr of the result) or (exception type, message): what a call returned or raised."""
    try:
        return "value", repr(run())
    except (ValueError, NoConvergenceError) as exc:
        return type(exc), str(exc)


class TestCallCounts:
    @pytest.mark.parametrize("seed", range(3800, 3806))
    def test_iterate_then_verify_reads_each_side_once(self, seed, monkeypatch):
        rec = _forced(seed, rand_biquat)
        calls = []
        forcing = rec._forcing
        monkeypatch.setattr(rec, "_forcing", lambda n: calls.append(n) or forcing(n))
        iterate(rec, N_TERMS)
        verify_closed_form(rec, Sequence.geometric(0.5), N_TERMS)
        assert sorted(calls) == list(range(N_TERMS - rec.order + 1))

    def test_example4_reads_each_side_once(self, monkeypatch):
        rec = _load_recurrence(load_bundled_spec("example4"))
        calls = []
        forcing = rec._forcing
        monkeypatch.setattr(rec, "_forcing", lambda n: calls.append(n) or forcing(n))
        iterate(rec, 100)
        assert verify_closed_form(rec, rec.solution(), 100).passed
        rec.rhs(50)
        assert sorted(calls) == list(range(99))


DRAWS = {"random": rand_biquat, "signed_zeros": _signed_zeros}


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("seed", range(3810, 3830))
@pytest.mark.parametrize("order", ["iterate_first", "verify_first"])
def test_forced_relations_match_the_forcing_pass(seed, draw, order, monkeypatch):
    rec, old = _forced(seed, DRAWS[draw]), _forced(seed, DRAWS[draw])
    want_terms = list(map(_reprs, _old_solution(old).prefix(N_TERMS)))
    candidates = [Sequence.geometric(DRAWS[draw](random.Random(seed)) * 0.9),
                  Sequence(lambda n: Biquaternion(-0.0, -0j, complex(-0.0, 0.0), n))]
    n_rows = N_TERMS - rec.order + 1
    want_rows = [[tuple(map(repr, _old_identity_gap(old, c, n))) for n in range(n_rows)] for c in candidates]
    want_rhs = [_reprs(_old_rhs(old, n)) for n in range(n_rows)]

    def verified():
        return [repr(verify_closed_form(rec, c, N_TERMS)) for c in candidates]

    got_verified = verified() if order == "verify_first" else None
    got_terms = list(map(_reprs, rec.solution().prefix(N_TERMS)))
    if order == "iterate_first":
        got_verified = verified()
    assert got_terms == want_terms
    assert [[tuple(map(repr, rec.identity_gap(c, n))) for n in range(n_rows)] for c in candidates] == want_rows
    assert [_reprs(rec.rhs(n)) for n in range(n_rows)] == want_rhs
    monkeypatch.setattr(LinearRecurrence, "identity_gap", _old_identity_gap)
    assert [repr(verify_closed_form(old, c, N_TERMS)) for c in candidates] == got_verified


def test_threads_sharing_a_fresh_forced_relation_get_the_in_order_rows():
    want_rec = _forced(3810, _signed_zeros)
    f = Sequence.geometric(0.5)
    want = (list(map(_reprs, want_rec.solution().prefix(N_TERMS))),
            [repr(want_rec.identity_gap(f, n)) for n in range(N_TERMS - want_rec.order + 1)])
    wrong = []

    def worker(rec, gaps_first):
        rows = [repr(rec.identity_gap(f, n)) for n in range(N_TERMS - rec.order + 1)] if gaps_first else None
        terms = list(map(_reprs, rec.solution().prefix(N_TERMS)))
        rows = rows or [repr(rec.identity_gap(f, n)) for n in range(N_TERMS - rec.order + 1)]
        if (terms, rows) != want:
            wrong.append(1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            shared = _forced(3810, _signed_zeros)
            threads = [threading.Thread(target=worker, args=(shared, t % 2 == 0)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert wrong == []


class TestOverflow:
    RELATIONS = {
        # a piece past double range: the unchecked sum is inf, its build raises
        "piece": lambda: LinearRecurrence([-0.5, 1], [1], [ForcingTerm(Sequence.geometric(1e10), [1e290])]),
        # a forcing term that raises: 1e200**2 leaves double range in the power core
        "term": lambda: LinearRecurrence([-0.5, 1], [1], [ForcingTerm(Sequence.constant(2), [1]),
                                                         ForcingTerm(Sequence.geometric(BIG), [1])]),
    }

    @pytest.mark.parametrize("kind", RELATIONS)
    @pytest.mark.parametrize("order", ["iterate_first", "verify_first"])
    def test_same_exception_message_and_index(self, kind, order):
        make = self.RELATIONS[kind]
        rec, old = make(), make()
        f = Sequence.constant(1.0)

        def step():
            return rec.solution().prefix(10)

        def gaps():
            return [rec.identity_gap(f, n) for n in range(6)]

        runs = [step, gaps] if order == "iterate_first" else [gaps, step]
        got = {run.__name__: _outcome(run) for run in runs}
        assert got["step"] == _outcome(lambda: _old_solution(old).prefix(10))
        assert got["gaps"] == _outcome(lambda: [_old_identity_gap(old, f, n) for n in range(6)])
        assert got["step"][0] is NoConvergenceError and got["gaps"][0] == (ValueError if kind == "term" else "value")
        # a side that raised was not kept: reading it again raises again
        assert _outcome(step) == got["step"] and _outcome(lambda: rec.rhs(5)) == _outcome(lambda: _old_rhs(old, 5))

    def test_the_indices_read(self):
        rec = self.RELATIONS["term"]()
        with pytest.raises(NoConvergenceError, match="at index 3$"):
            rec.solution().term(5)
        with pytest.raises(ValueError, match="non-finite"):
            rec.identity_gap(Sequence.constant(1.0), 2)

    def test_a_nan_piece_size_never_replaces_the_scale(self):
        nan_piece = ForcingTerm(Sequence.constant(Biquaternion(BIG, BIG * 1j)), [Biquaternion(BIG, -BIG * 1j)])
        (w, x, _, _), size = _sum_pieces([(nan_piece.sequence.term(0), nan_piece.coeffs[0])], scale=-math.inf)
        assert size == -math.inf and math.isnan(math.hypot(w.real, w.imag, x.real, x.imag))
        f = Sequence.constant(3.0)
        for forcing, want_scale in [([nan_piece], 3.0), ([nan_piece, ForcingTerm(Sequence.constant(7.0), [1])], 7.0),
                                    ([ForcingTerm(Sequence.constant(7.0), [1]), nan_piece], 7.0)]:
            rec, old = LinearRecurrence([-1, 1], [1], forcing), LinearRecurrence([-1, 1], [1], forcing)
            gap, scale = rec.identity_gap(f, 0)
            assert scale == want_scale and math.isnan(gap)
            assert repr((gap, scale)) == repr(_old_identity_gap(old, f, 0))


# -- spec candidates ---------------------------------------------------------


def _old_candidate(poly, geos):
    """A candidate's term as the sum of checked values it was."""
    powers = [Sequence.geometric(ratio) for _, ratio, _ in geos]

    def term(n: int) -> Biquaternion:
        acc = Biquaternion()
        for degree, coeff in enumerate(poly):
            acc = acc + coeff * (n**degree)
        for (coeff, _, dly), p in zip(geos, powers):
            if n >= dly:
                acc = acc + coeff * p.term(n - dly)
        return acc

    return term


def _candidate(poly, geos, monkeypatch) -> Sequence:
    """cli._candidate_sequence of a descriptor whose literals name the given values."""
    values = {}

    def literal(value):
        values[f"v{len(values)}"] = value
        return f"v{len(values) - 1}"

    desc = {"polynomial": [literal(c) for c in poly],
            "geometric": [{"coeff": literal(c), "ratio": literal(r), "delay": d} for c, r, d in geos]}
    monkeypatch.setattr(cli, "parse", values.__getitem__)
    return cli._candidate_sequence(desc, "candidate")


def _coeff(rng: random.Random):
    return rng.choice([
        lambda: _signed_zeros(rng, 2.0),
        lambda: Biquaternion(complex(rng.uniform(-2, 2), rng.choice([rng.uniform(-1, 1), 0.0, -0.0]))),
        lambda: Biquaternion(rng.choice([0.0, -0.0]), complex(-0.0, rng.uniform(-1, 1))),
        lambda: rand_biquat(rng, 2.0),
    ])()


@pytest.mark.parametrize("seed", range(3840, 3870))
def test_candidate_values_match_the_value_expression(seed, monkeypatch):
    rng = random.Random(seed)
    poly = [_coeff(rng) for _ in range(rng.randint(0, 4))]
    geos = [(_coeff(rng), rng.choice([rand_biquat(rng, 0.6), _signed_zeros(rng, 0.9)]), rng.randint(0, 5))
            for _ in range(rng.randint(0 if poly else 1, 3))]
    got, want = _candidate(poly, geos, monkeypatch), _old_candidate(poly, geos)
    for n in range(61):
        assert _reprs(got.term(n)) == _reprs(want(n)), (seed, n)


OVERFLOWS = {
    # a polynomial piece past double range at n = 2
    "polynomial_piece": ([0, 1e308], []),
    # a partial sum past double range at n = 1
    "polynomial_sum": ([1e308, 1e308], []),
    # a geometric product past double range at n = 2, after two finite polynomial pieces
    "geometric_piece": ([1, 2], [(1e300, 1e5, 0)]),
    # a geometric power that raises in the power core at n = 2 + delay
    "geometric_power": ([1], [(1, BIG, 2)]),
    # a piece past double range before a later piece raises: the earlier error wins
    "first_error": ([0, 1e308] + [0] * 307 + [1], [(1, BIG, 0)]),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_candidate_overflow_raises_the_same_message_at_the_same_index(name, monkeypatch):
    poly, geos = OVERFLOWS[name]
    poly = [Biquaternion(c) for c in poly]
    geos = [(Biquaternion(c), Biquaternion(r), d) for c, r, d in geos]
    got, want = _candidate(poly, geos, monkeypatch), _old_candidate(poly, geos)
    outcomes = [(_outcome(lambda: _reprs(got.term(n))), _outcome(lambda: _reprs(want(n)))) for n in range(12)]
    assert all(a == b for a, b in outcomes), outcomes
    assert any(a[0] is ValueError for a, _ in outcomes)


def test_the_cli_candidate_overflow_message(monkeypatch):
    cand = _candidate([Biquaternion(1e308), Biquaternion(1e308)], [], monkeypatch)
    assert _reprs(cand.term(0)) == _reprs(Biquaternion(1e308))
    with pytest.raises(ValueError, match=r"^non-finite biquaternion component: \(inf\+0j\)$"):
        cand.term(1)


# -- trig powers at a complex-scalar q ---------------------------------------


def _hamilton_stepped_join(q, join, n_terms):
    """Today's trig terms: e = exp(I*q), f = exp(-I*q) as exp returns them, each
    power by the Hamilton product from 1, joined per term."""
    q = Biquaternion(q)
    e, f = exp(q * 1j), exp(q * -1j)
    ep, fp = (1 + 0j, 0j, 0j, 0j), (1 + 0j, 0j, 0j, 0j)
    out = []
    for _ in range(n_terms):
        out.append(join(ep, fp))
        ep, fp = _hamilton(*ep, e.w, e.x, e.y, e.z), _hamilton(*fp, f.w, f.x, f.y, f.z)
    return out


@pytest.mark.parametrize("q", [0.5, 0.3 - 0.2j, -1.0, 0.7 + 0.4j])
@pytest.mark.parametrize("row", ["cos_qn", "sin_qn"])
def test_trig_powers_of_a_complex_scalar_take_no_hamilton_step(row, q, monkeypatch):
    calls = []
    monkeypatch.setattr(sequences, "_hamilton", lambda *a: calls.append(1) or _hamilton(*a))
    terms = cat.build(row, {"q": q}).sequence.prefix(200)
    assert calls == []
    monkeypatch.undo()
    want = _hamilton_stepped_join(q, cat._half_sum if row == "cos_qn" else cat._half_i_difference, 200)
    assert list(map(_unsigned, terms)) == list(map(_unsigned, want))
