"""Recurrence iteration and relation checks over raw components: bit-identical
to the loop of Biquaternion operations in ``helpers``, overflow included."""
import json
import random
import sys
import threading

import pytest

from biqz import ForcingTerm, LinearRecurrence, NoConvergenceError, Sequence, verify_closed_form
from biqz.algebra import Biquaternion
from biqz.cli import _load_recurrence, load_bundled_spec, main

from helpers import (
    rand_biquat,
    rand_conditioned,
    reference_identity_gap,
    reference_rhs,
    reference_solution,
)

ZERO_PARTS = (0.0, -0.0)
N_TERMS = 30


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


def _forcing(rng: random.Random, draw) -> ForcingTerm:
    g = rng.choice([
        lambda: Sequence.geometric(rand_biquat(rng, 0.9)),
        lambda: Sequence.constant(draw(rng)),
        lambda: Sequence(lambda n: Biquaternion(n, -0.0, 0.5 * n, complex(-0.0, n))),
    ])()
    return ForcingTerm(g, [draw(rng) for _ in range(rng.randint(1, 3))])


def _recurrence(seed: int, draw) -> LinearRecurrence:
    """Order 1-4, 0-2 forcing terms of 1-3 coefficients, an invertible lead."""
    rng = random.Random(seed)
    order = rng.randint(1, 4)
    lead = rand_conditioned(rng)
    coeffs = [draw(rng) for _ in range(order)] + [lead]
    initial = [draw(rng) for _ in range(order)]
    forcing = [_forcing(rng, draw) for _ in range(rng.randint(0, 2))]
    return LinearRecurrence(coeffs, initial, forcing)


SEEDS = range(1600, 1640)
DRAWS = {"random": rand_biquat, "signed_zeros": _signed_zeros}


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("seed", SEEDS)
class TestRandomRelations:
    def test_solution_matches_reference(self, seed, draw):
        rec = _recurrence(seed, DRAWS[draw])
        got, want = rec.solution(), reference_solution(rec)
        for n in range(N_TERMS):
            assert _reprs(got.term(n)) == _reprs(want.term(n)), (seed, n)

    def test_solution_matches_reference_on_nonzero_parts(self, seed, draw):
        # the step adds products by the negated coefficients, which equal the
        # subtracted products but in the sign of exactly-zero parts
        rec = _recurrence(seed, DRAWS[draw])
        got, want = rec.solution(), reference_solution(rec)
        for n in range(N_TERMS):
            assert _unsigned(got.term(n)) == _unsigned(want.term(n)), (seed, n)

    def test_rhs_matches_reference(self, seed, draw):
        rec = _recurrence(seed, DRAWS[draw])
        for n in range(6):
            assert _reprs(rec.rhs(n)) == _reprs(reference_rhs(rec, n))

    def test_identity_gap_matches_reference(self, seed, draw):
        rec = _recurrence(seed, DRAWS[draw])
        rng = random.Random(seed)
        # the solution itself (small gaps) and an unrelated geometric candidate
        for f in (rec.solution(), Sequence.geometric(DRAWS[draw](rng))):
            for n in range(N_TERMS - rec.order):
                got, want = rec.identity_gap(f, n), reference_identity_gap(rec, f, n)
                assert tuple(map(repr, got)) == tuple(map(repr, want)), (seed, n)


def test_signed_zero_operands_keep_their_signs():
    minus = Biquaternion(complex(-0.0, -0.0), -0.0, complex(0.0, -0.0), -0.0)
    rec = LinearRecurrence([minus, Biquaternion(1.0, -0.0)], [minus])
    for n in range(5):
        assert _reprs(rec.solution().term(n)) == _reprs(reference_solution(rec).term(n))
    assert _reprs(rec.rhs(0)) == _reprs(reference_rhs(rec, 0))


@pytest.mark.parametrize("seed", range(1640, 1646))
def test_any_access_order_matches_the_in_order_reference(seed):
    # the solution steps a window of M terms from the initial values, so a
    # cold high index and every index below it after that give the same bits
    rec = _recurrence(seed, rand_biquat)
    want = reference_solution(rec)
    got = rec.solution()
    for n in [25, 3, 0, 40, *range(39, -1, -1)]:
        assert _reprs(got.term(n)) == _reprs(want.term(n)), (seed, n)


def test_threads_sharing_a_fresh_solution_get_the_in_order_values():
    rec = LinearRecurrence([-0.25, -0.5, 1.0], [1.0, 2.0])  # f(n+2) = 0.5 f(n+1) + 0.25 f(n)
    want = [_reprs(v) for v in rec.solution().prefix(300)]
    wrong = []

    def worker(solution):
        for n in range(300):
            if _reprs(solution.term(n)) != want[n]:
                wrong.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            shared = LinearRecurrence(rec.coeffs, rec.initial).solution()
            threads = [threading.Thread(target=worker, args=(shared,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert wrong == []


def _error(run):
    with pytest.raises(NoConvergenceError) as info:
        run()
    return type(info.value), str(info.value)


class TestOverflow:
    def test_geometric_overflow_names_index_4(self):
        rec = LinearRecurrence([-1e100, 1], [1])
        got = _error(lambda: rec.solution().term(10))
        assert got == _error(lambda: reference_solution(rec).term(10))
        assert got[1] == "recurrence solution leaves double range at index 4"

    def test_example1_overflow_names_index_2048(self):
        rec = _load_recurrence(load_bundled_spec("example1"))
        got = _error(lambda: rec.solution().prefix(5000))
        assert got == _error(lambda: reference_solution(rec).prefix(5000))
        assert got[1] == "recurrence solution leaves double range at index 2048"

    def test_overflowing_forcing_piece_names_the_same_index(self):
        forcing = [ForcingTerm(Sequence.geometric(1e10), [1e290])]
        rec = LinearRecurrence([-0.5, 1], [1], forcing)
        got = _error(lambda: rec.solution().term(10))
        assert got == _error(lambda: reference_solution(rec).term(10))
        assert got[1] == "recurrence solution leaves double range at index 3"

    def test_overflowing_relation_reads_a_non_finite_gap(self):
        rec = LinearRecurrence([-1e10, 1], [1])
        huge = Sequence.constant(1e300)
        with pytest.raises(ValueError):
            reference_identity_gap(rec, huge, 0)
        gap, scale = rec.identity_gap(huge, 0)
        assert gap == scale == float("inf")
        report = verify_closed_form(rec, huge, n_terms=4)
        assert not report.passed
        assert report.max_rel_error == report.max_abs_error == float("inf")

    def test_cancelling_overflows_read_inf_not_nan(self):
        rec = LinearRecurrence([-1e10, 1e10], [1e300])
        report = verify_closed_form(rec, Sequence.constant(1e300), n_terms=4)
        assert report.first_failure_index == 0
        assert report.max_rel_error == report.max_abs_error == float("inf")

    def test_overflowing_initial_row_reads_inf(self):
        rec = LinearRecurrence([-1, 1], [-1e308])
        report = verify_closed_form(rec, Sequence.constant(1e308), n_terms=5)
        assert report.first_failure_index == 0
        assert report.max_rel_error == report.max_abs_error == float("inf")

    def test_candidate_terms_that_raise_keep_raising(self):
        def term(n):
            if n == 2:
                raise ValueError("candidate left double range")
            return Biquaternion(1.0)

        rec = LinearRecurrence([-1, 1], [1])
        with pytest.raises(ValueError, match="candidate left double range"):
            verify_closed_form(rec, Sequence(term), n_terms=5)


def _strict_report(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


OVERFLOW_SPEC = {
    "coeffs": ["-1e10", "1"],
    "initial": ["1"],
    "candidate": {"geometric": [{"coeff": "1", "ratio": "1e10"},
                                {"coeff": "1e300", "ratio": "1", "delay": 3}]},
}


class TestCli:
    def test_overflowing_relation_check_fails_with_exit_1(self, capsys, tmp_path):
        spec = tmp_path / "overflow.json"
        spec.write_text(json.dumps(OVERFLOW_SPEC), encoding="utf-8")
        code, report = _strict_report(capsys, "recurrence", str(spec), "--terms", "10")
        assert code == 1
        assert report["errors"] == []
        verification = report["results"]["verification"]
        assert verification["pass"] is False
        assert verification["max_rel_error"] == "inf"

    def test_overflowing_initial_value_gap_fails_with_exit_1(self, capsys, tmp_path):
        spec = tmp_path / "initial.json"
        spec.write_text(json.dumps({"coeffs": ["-1", "1"], "initial": ["-1e308"],
                                    "candidate": {"polynomial": ["1e308"]}}), encoding="utf-8")
        code, report = _strict_report(capsys, "recurrence", str(spec), "--terms", "5")
        assert code == 1
        assert report["errors"] == []
        verification = report["results"]["verification"]
        assert verification["first_failure_index"] == 0
        assert verification["max_rel_error"] == "inf"

    def test_overflowing_deconvolution_candidate_gap_fails_with_exit_1(self, capsys, tmp_path):
        spec = tmp_path / "deconvolve.json"
        spec.write_text(json.dumps({"deconvolve": {"kernel": "0.5", "target": {"polynomial": ["1e308"]}},
                                    "candidate": {"polynomial": ["-1e308"]}, "roundtrip_terms": 3}),
                        encoding="utf-8")
        code, report = _strict_report(capsys, "recurrence", str(spec))
        assert code == 1
        assert report["errors"] == []
        assert report["results"]["candidate_rel_error"] == "inf"
        assert report["results"]["roundtrip_rel_error"] == 0.0

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    @pytest.mark.parametrize("command", [
        ("eval", "pow_p", "--param", "p=0.5", "--at", "2"),
        ("verify-catalog", "--rows", "const_one"),
        ("recurrence", "example1.json"),  # refused before the spec is read
    ])
    def test_bad_tol_is_a_value_error_with_exit_2(self, capsys, command, tol):
        code, report = _strict_report(capsys, *command, f"--tol={tol}")
        assert code == 2
        assert report["results"] == {}
        assert [e["name"] for e in report["errors"]] == ["Value"]
        assert "--tol" in report["errors"][0]["message"]

    def test_zero_tol_is_accepted(self, capsys):
        code, report = _strict_report(capsys, "eval", "pow_p", "--param", "p=0.5", "--at", "2", "--tol", "0")
        assert code in (0, 1)
        assert report["errors"] == []
