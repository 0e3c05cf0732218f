"""Checks on values whose squared components overflow, and catalog names that
are not strings.

The component norm is ``math.hypot`` over the eight floats, so it stays finite
on components far above 1e154, where their squares overflow; a check there
reports its true relative error.  Only a length above the largest double reads
inf, so a gap and its scale can both be inf and their ratio NaN; such a ratio
must fail a check and report inf, not slip past ``rel > tol`` or ``max()``.  A
spec whose ``catalog`` value is a list or an object exits 2 naming the value.
``geometric_remainder`` reads ``geometric_sum`` and keeps its error order.
``commutes_with`` answers for finite operands whose products leave double range."""
import json
import math

import pytest

from biqz import catalog
from biqz.algebra import ONE, Biquaternion
from biqz.cli import main
from biqz.errors import DivergentSeriesError
from biqz.recurrence import LinearRecurrence, verify_closed_form
from biqz.sequences import Sequence
from biqz.ztransform import geometric_remainder


def _run(capsys, tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = main(["recurrence", str(spec), "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestVerifyOverflow:
    def _rec(self):
        # f(n+1) = 1e10 f(n): f(n) = 1e10**n, whose squares overflow past n = 15
        return LinearRecurrence([-Biquaternion(1e10), ONE], [ONE])

    def test_doubled_tail_fails(self):
        rec = self._rec()
        sol = rec.solution()
        cand = Sequence(lambda n: sol.term(n) * (2.0 if n >= 20 else 1.0))
        rep = verify_closed_form(rec, cand, n_terms=30)
        assert not rep.passed
        assert rep.first_failure_index == 19  # the identity at n = 19 reads f(20)
        assert rep.max_rel_error == pytest.approx(0.5)  # gap f(20) over scale 2 f(20)
        assert rep.max_abs_error == pytest.approx(1e200)

    def test_exact_solution_still_passes(self):
        # gap 0 over a huge scale is 0
        rec = self._rec()
        rep = verify_closed_form(rec, rec.solution(), n_terms=30)
        assert rep.passed
        assert rep.max_rel_error == 0.0
        assert rep.n_checked == 31

    def test_finite_failure_keeps_its_size(self):
        rec = LinearRecurrence([-ONE, ONE], [ONE])
        rep = verify_closed_form(rec, Sequence.constant(1.5), n_terms=5)
        assert rep.first_failure_index == 0
        assert rep.max_rel_error == 0.5

    def test_nan_tolerance_certifies_nothing(self):
        rec = LinearRecurrence([-ONE, ONE], [ONE])
        assert not verify_closed_form(rec, rec.solution(), n_terms=5, tol=math.nan).passed

    def test_cli_reports_inf(self, capsys, tmp_path):
        payload = {
            # f(n) = 1e7**n stays finite over the 40 iterated terms; the
            # candidate doubles it from n = 25, where its squares overflow
            "coeffs": ["-1e7", "1"],
            "initial": ["1"],
            "candidate": {"geometric": [{"coeff": "1", "ratio": "1e7"},
                                        {"coeff": "1e175", "ratio": "1e7", "delay": 25}]},
        }
        code, report = _run(capsys, tmp_path, payload)
        assert code == 1
        ver = report["results"]["verification"]
        assert ver["pass"] is False
        assert ver["max_rel_error"] == pytest.approx(0.5)
        assert ver["first_failure_index"] == 24
        assert set(ver) == {"max_abs_error", "max_rel_error", "first_failure_index",
                            "n_checked", "tolerance", "pass"}


class TestDeconvolveOverflow:
    def _payload(self, candidate_geos):
        return {
            "deconvolve": {"kernel": "0", "target": {"geometric": [{"coeff": "1", "ratio": "1e10"}]}},
            "candidate": {"geometric": candidate_geos},
        }

    def test_doubled_tail_fails(self, capsys, tmp_path):
        # the candidate doubles the solution 1e10**t from t = 20, where the
        # squares of both the gap and the candidate overflow
        code, report = _run(capsys, tmp_path, self._payload(
            [{"coeff": "1", "ratio": "1e10"}, {"coeff": "1e200", "ratio": "1e10", "delay": 20}]))
        assert code == 1
        assert report["results"]["candidate_rel_error"] == pytest.approx(0.5)
        assert report["results"]["roundtrip_rel_error"] == 0.0

    def test_exact_candidate_passes(self, capsys, tmp_path):
        code, report = _run(capsys, tmp_path, self._payload([{"coeff": "1", "ratio": "1e10"}]))
        assert code == 0
        assert report["results"]["candidate_rel_error"] == 0.0


class TestCatalogNames:
    @pytest.mark.parametrize("name", [["pow_p"], {"a": 1}, 3, None, True])
    def test_build_refuses(self, name):
        with pytest.raises(ValueError, match="catalog name must be a string"):
            catalog.build(name)

    @pytest.mark.parametrize("payload, shown", [
        ({"coeffs": ["-1", "1"], "initial": ["1"], "candidate": {"catalog": ["pow_p"]}},
         "list ['pow_p']"),
        ({"coeffs": ["-1", "1"], "initial": ["1"],
          "forcing": [{"catalog": {"a": 1}, "coeffs": ["1"]}]}, "dict {'a': 1}"),
        ({"deconvolve": {"kernel": "0", "target": {"catalog": ["const_one"]}}},
         "list ['const_one']"),
    ])
    def test_spec_exits_2(self, capsys, tmp_path, payload, shown):
        code, report = _run(capsys, tmp_path, payload)
        assert code == 2
        (err,) = report["errors"]
        assert err["name"] == "Value"
        assert err["message"] == f"catalog name must be a string, got {shown}"


class TestGeometricRemainder:
    def test_errors_keep_their_order(self):
        with pytest.raises(ValueError, match="n_terms must be positive"):
            geometric_remainder(2.0, 0)  # divergent too, but n_terms is checked first
        with pytest.raises(DivergentSeriesError):
            geometric_remainder(2.0, 3)


class TestCommutesOverflow:
    def test_large_operands(self):
        # each product is 1e400, past double range; the operands are finite
        big_i, big_j = Biquaternion(0, 1e200), Biquaternion(0, 0, 1e200)
        assert big_i.commutes_with(big_i)
        assert not big_i.commutes_with(big_j)

    def test_component_norm_past_double_range(self):
        c = 1.7e308 + 1.7e308j
        big = Biquaternion(c, c, c, c)  # its component norm reads inf
        assert big.commutes_with(big)
        assert not big.commutes_with(Biquaternion(0, 0, 1))

    def test_zero_and_tiny_operands(self):
        assert Biquaternion().commutes_with(Biquaternion(0, 1e200))
        assert Biquaternion(0, 1e200).commutes_with(0)
        # |ij - ji| = 2e-400 against tol * max(1, |p||q|) = 1e-12
        assert Biquaternion(0, 1e-200).commutes_with(Biquaternion(0, 0, 1e-200))
        assert not Biquaternion(0, 1e-3).commutes_with(Biquaternion(0, 0, 1e-3))
