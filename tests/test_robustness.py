"""Scale-free inverses, malformed specs, double-range failures, and long recurrence verification."""
import json
from importlib import resources

import pytest

from biqz import ONE, ZERO, Biquaternion, LiteralParseError, ZeroDivisorError, as_biquaternion, exp, parse
from biqz import catalog
from biqz.algebra import i, k
from biqz.cli import load_bundled_spec, main
from biqz.errors import OutsideROCError
from biqz.recurrence import ForcingTerm, LinearRecurrence, transform_value
from biqz.sequences import Sequence
from biqz.ztransform import transform

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


BIG = 10**400  # an int past double range, where complex(BIG) raises OverflowError
NON_FINITE = "non-finite biquaternion component"
HALF = LinearRecurrence([-0.5, 1], [1])  # f(n+1) = 0.5 f(n), f(0) = 1

ENTRY_POINTS = {
    "constructor": lambda n: Biquaternion(n),
    "as_biquaternion": lambda n: as_biquaternion(n),
    "add": lambda n: ONE + n,
    "mul": lambda n: ONE * n,
    "rmul": lambda n: n * ONE,
    "truediv": lambda n: ONE / n,
    "transform": lambda n: transform(Sequence.constant(1), n),
    "catalog.build": lambda n: catalog.build("pow_p", {"p": n}),
    "LinearRecurrence": lambda n: LinearRecurrence([n, 1], [1]),
    "transform_value": lambda n: transform_value(HALF, n),
}


def _catalog_param_paths(payload, path=()):
    """Paths to every value inside a catalog descriptor's "params" object."""
    if isinstance(payload, dict):
        if isinstance(payload.get("params"), dict):
            yield from (path + ("params", key) for key in payload["params"])
        for key, value in payload.items():
            yield from _catalog_param_paths(value, path + (key,))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _catalog_param_paths(value, path + (index,))


def _strict_report(capsys, code_expected, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=lambda t: pytest.fail(f"non-JSON token {t}"))
    assert (code, captured.err) == (code_expected, "")
    return report


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

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_raises_the_values_error(self, entry):
        with pytest.raises(ValueError, match=NON_FINITE):
            ENTRY_POINTS[entry](BIG)

    @pytest.mark.parametrize("entry", ["constructor", "mul", "truediv", "catalog.build"])
    def test_past_the_digit_limit_the_same_error(self, entry):
        with pytest.raises(ValueError, match=NON_FINITE):
            ENTRY_POINTS[entry](10**5000)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example5"])
    def test_spec_parameter_past_double_range_exits_2(self, name, capsys, tmp_path):
        base = load_bundled_spec(name)
        paths = list(_catalog_param_paths(base))
        assert paths
        for path in paths:
            payload = json.loads(json.dumps(base))
            target = payload
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = 10**399  # a 400-digit JSON integer
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(payload))
            report = _strict_report(capsys, 2, ["recurrence", str(spec), "--json"])
            assert report["errors"][0]["name"] == "Value", path


class TestSolvePowers:
    def test_power_past_double_range_raises_the_values_error(self):
        rec = LinearRecurrence([0.25, -1, 1], [1, 0.5])  # f(n+2) - f(n+1) + 0.25 f(n) = 0
        with pytest.raises(ValueError, match=NON_FINITE):
            transform_value(rec, 1e160)

    def test_first_order_solve_at_a_huge_point_still_returns(self):
        assert transform_value(HALF, 1e200) == ONE

    def test_a_radius_refuses_before_the_powers(self):
        hinted = Sequence(lambda n: ZERO, radius_hint=1e170)
        rec = LinearRecurrence([0.25, -1, 1], [1, 0.5], [ForcingTerm(hinted, [1, 1, 1])])
        with pytest.raises(OutsideROCError):
            transform_value(rec, 1e160)

    def test_string_point_is_refused(self):
        with pytest.raises(TypeError):
            transform_value(HALF, "2")

    def test_cli_sample_point_past_double_range_exits_2(self, capsys):
        spec = str(resources.files("biqz").joinpath("specs", "example1.json"))
        report = _strict_report(capsys, 2, ["recurrence", spec, "--x-samples", "1e160", "--json"])
        assert report["errors"][0]["name"] == "Value"

    def test_uncertified_sample_series_fails_its_check(self, capsys):
        spec = str(resources.files("biqz").joinpath("specs", "example1.json"))
        report = _strict_report(capsys, 1, ["recurrence", spec, "--max-terms", "5", "--x-samples", "1e6", "--json"])
        (check,) = report["results"]["transform_checks"]
        assert check["pass"] is False and check["rel_error"] < 1e-9


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
