"""Scale-free inverses, malformed specs, double-range failures, and long recurrence verification."""
import json
from importlib import resources

import pytest

from biqz import ONE, ZERO, Biquaternion, LiteralParseError, ZeroDivisorError, exp, parse
from biqz.algebra import i, k
from biqz.cli import main

from helpers import comp_dist

I = 1j


class TestInverseScale:
    def test_inverse_is_scale_free(self):
        base = ONE + 0.5 * i
        for e in range(-150, 151, 10):
            q = base * 10.0**e
            assert q.is_invertible(), e
            assert comp_dist(q * q.inverse(), ONE) <= 1e-14, e

    def test_small_scalar_inverts(self):
        assert comp_dist(Biquaternion(1e-7).inverse(), Biquaternion(1e7)) <= 1e-8

    def test_zero_divisor_and_zero_raise(self):
        for q in (ONE + I * k, ZERO):
            assert not q.is_invertible()
            with pytest.raises(ZeroDivisorError):
                q.inverse()


def _run_spec(capsys, tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = main(["recurrence", str(spec), "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestMalformedSpecs:
    def test_parse_refuses_non_string(self):
        with pytest.raises(LiteralParseError):
            parse(1)

    def test_non_string_coefficient_is_parse_error(self, capsys, tmp_path):
        code, report = _run_spec(capsys, tmp_path, {"coeffs": [1, "-2", "1"], "initial": ["0", "0"]})
        assert code == 2
        assert report["errors"][0]["name"] == "LiteralParse"

    def test_array_top_level_is_parse_error(self, capsys, tmp_path):
        code, report = _run_spec(capsys, tmp_path, [1, 2])
        assert code == 2
        assert report["errors"][0]["name"] == "Value"
        assert "JSON object" in report["errors"][0]["message"]


class TestDoubleRange:
    def test_weight_past_double_range_is_a_domain_error(self, capsys, tmp_path):
        forcing = {"catalog": "binom", "params": {"m": 400, "q": "0.5"}, "coeffs": ["1"]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"coeffs": ["-0.5", "1"], "initial": ["0"], "forcing": [forcing]}))
        code = main(["recurrence", str(spec), "--terms", "1200", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["errors"][0]["name"] == "NoConvergence"

    def test_exp_past_double_range_raises_value_error(self):
        with pytest.raises(ValueError, match="non-finite biquaternion component"):
            exp(Biquaternion(800))

    def test_trig_parameter_past_double_range_is_a_value_error(self, capsys):
        code = main(["eval", "cos_qn", "--param", "q=1000I", "--at", "2", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["errors"][0]["name"] == "Value"


class TestLongVerification:
    def test_example4_verifies_to_100_terms(self, capsys):
        # (1+Ik)**n pieces have real gauge 0, so only a componentwise residual
        # scale keeps the relative error meaningful this far out
        spec = str(resources.files("biqz").joinpath("specs", "example4.json"))
        code = main(["recurrence", spec, "--terms", "100", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        verification = report["results"]["verification"]
        assert verification["pass"] is True
        assert verification["n_checked"] == 101
