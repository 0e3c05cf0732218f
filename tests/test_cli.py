"""CLI surface: subcommands, exit codes, JSON reports, determinism."""
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from biqz.cli import load_bundled_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def bundled_path(name: str) -> str:
    return str(resources.files("biqz").joinpath("specs", f"{name}.json"))


class TestEval:
    def test_catalog_comparison_passes(self, capsys):
        code, report = run_json(capsys, "eval", "pow_p", "--param", "p=2i", "--at", "4")
        assert code == 0
        assert report["pass"] is True
        value = report["results"]["series_value"]
        assert value["literal"].startswith("0.800000000")
        assert len(value["components"]) == 8
        assert report["results"]["terms_used"] > 1

    def test_outside_roc_is_domain_error(self, capsys):
        code, report = run_json(capsys, "eval", "const_one", "--at", "0.5")
        assert code == 3
        assert report["errors"][0]["name"] == "OutsideROC"

    def test_malformed_literal_is_parse_error(self, capsys):
        code, report = run_json(capsys, "eval", "pow_p", "--param", "p=1+2q", "--at", "4")
        assert code == 2
        assert report["errors"][0]["name"] == "LiteralParse"

    def test_unknown_entry_is_parse_error(self, capsys):
        code, _ = run_json(capsys, "eval", "zeta", "--at", "4")
        assert code == 2

    def test_as_printed_variant_fails_verification(self, capsys):
        code, report = run_json(
            capsys, "eval", "n_pow_p", "--param", "p=0.5", "--at", "2", "--as-printed"
        )
        assert code == 1
        assert report["pass"] is False

    def test_zero_divisor_point_is_domain_error(self, capsys):
        code, report = run_json(capsys, "eval", "pow_p", "--param", "p=0.5", "--at", "1+1Ik")
        assert code == 3
        assert report["errors"][0]["name"] == "ZeroDivisor"

    def test_nan_eps_is_a_strict_json_parse_error(self, capsys):
        code, out = run_cli(capsys, "eval", "pow_p", "--param", "p=0.5", "--at", "2", "--eps", "nan", "--json")
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert code == 2
        assert report["pass"] is False
        assert report["errors"] == [{"name": "Value", "message": "eps must be positive"}]

    def test_series_past_the_power_range_is_a_value(self, capsys):
        # 0.505**-n leaves double range near n = 1,040, before the tail is below eps
        code, out = run_cli(capsys, "eval", "pow_p", "--param", "p=0.5", "--at", "0.505", "--json")
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert code <= 1
        assert report["errors"] == []
        assert isinstance(report["results"]["tail_bound"], float)

    def test_point_whose_squares_overflow_is_a_value(self, capsys):
        # cns(1e160) overflows; the point inverts as its power-of-two-scaled copy
        code, out = run_cli(capsys, "eval", "const_one", "--at", "1e160", "--json")
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert code == 0
        assert report["pass"] is True

    def test_parameter_whose_squares_overflow_is_outside_roc(self, capsys):
        code, out = run_cli(capsys, "eval", "pow_p", "--param", "p=1e170", "--at", "2", "--json")
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert code == 3
        assert report["errors"][0]["name"] == "OutsideROC"

    def test_parameter_whose_squares_underflow_is_outside_roc(self, capsys):
        # the radius is 1e-170, not 0, so the 2-term series is never summed
        code, out = run_cli(capsys, "eval", "pow_p", "--param", "p=1e-170i", "--at", "1e-171", "--json")
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert code == 3
        assert report["errors"][0]["name"] == "OutsideROC"

    def test_binom_with_a_zero_divisor_parameter(self, capsys):
        code, report = run_json(capsys, "eval", "binom", "--param", "m=2", "--param", "q=1+1Ik", "--at", "3")
        assert code == 0
        assert report["pass"] is True

    def test_params_do_not_carry_over_between_calls(self, capsys):
        code, report = run_json(capsys, "eval", "pow_p", "--param", "p=0.5", "--at", "4")
        assert code == 0
        assert report["inputs"]["params"] == {"p": "0.5"}
        code, report = run_json(capsys, "eval", "const_one", "--at", "4")
        assert code == 0
        assert report["inputs"]["params"] == {}
        code, report = run_json(capsys, "eval", "pow_p", "--at", "4")
        assert code == 2
        assert "requires parameter 'p'" in report["errors"][0]["message"]


class TestVerifyCatalog:
    def test_default_run_passes_all_rows(self, capsys):
        code, report = run_json(capsys, "verify-catalog", "--points", "4", "--seed", "3")
        assert code == 0
        rows = report["results"]["rows"]
        assert [r["row"] for r in rows] == list(
            ("const_one", "ramp_n", "ramp_n2", "pow_p", "n_pow_p", "cos_qn",
             "sin_qn", "binom_shifted", "binom", "exp_over_fact")
        )
        assert all(r["pass"] for r in rows)

    def test_single_row_selection(self, capsys):
        code, report = run_json(capsys, "verify-catalog", "--rows", "const_one")
        assert code == 0
        assert len(report["results"]["rows"]) == 1

    def test_uncertified_series_fail_their_rows(self, capsys):
        # 5 terms never fill the 8-ratio window, so every series is uncertified
        code, report = run_json(capsys, "verify-catalog", "--rows", "const_one,pow_p", "--max-terms", "5")
        assert code == 1
        assert [r["pass"] for r in report["results"]["rows"]] == [False, False]

    def test_uncertified_rows_report_inf_excess(self, capsys):
        # an uncertified series has an inf budget, and its excess over that budget is inf
        code, report = run_json(capsys, "verify-catalog", "--rows", "const_one,pow_p", "--max-terms", "5")
        assert code == 1
        rows = report["results"]["rows"]
        assert [r["max_excess_over_budget"] for r in rows] == ["inf", "inf"]
        assert [r["pass"] for r in rows] == [False, False]

    def test_as_printed_fails_only_weighted_geometric_row(self, capsys):
        code, report = run_json(
            capsys, "verify-catalog", "--points", "4", "--seed", "3", "--as-printed"
        )
        assert code == 1
        status = {r["row"]: r["pass"] for r in report["results"]["rows"]}
        assert status["n_pow_p"] is False
        assert all(ok for row, ok in status.items() if row != "n_pow_p")

    def test_unknown_row_is_parse_error(self, capsys):
        code, _ = run_json(capsys, "verify-catalog", "--rows", "nope")
        assert code == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_parse_error(self, capsys, points):
        code, report = run_json(capsys, "verify-catalog", "--points", points)
        assert code == 2
        assert report["pass"] is False
        assert report["errors"][0]["name"] == "Value"
        assert "--points" in report["errors"][0]["message"]

    def test_deterministic_reports(self, capsys):
        _, out1 = run_cli(capsys, "verify-catalog", "--seed", "5", "--points", "3", "--json")
        _, out2 = run_cli(capsys, "verify-catalog", "--seed", "5", "--points", "3", "--json")
        assert out1 == out2

    def test_eval_and_recurrence_deterministic(self, capsys):
        eval_args = ("eval", "cos_qn", "--param", "q=0.4j", "--at", "9", "--json")
        _, out1 = run_cli(capsys, *eval_args)
        _, out2 = run_cli(capsys, *eval_args)
        assert out1 == out2
        rec_args = ("recurrence", bundled_path("example4"), "--json")
        _, out3 = run_cli(capsys, *rec_args)
        _, out4 = run_cli(capsys, *rec_args)
        assert out3 == out4

    def test_seed_changes_draws(self, capsys):
        _, r1 = run_json(capsys, "verify-catalog", "--seed", "1", "--points", "3")
        _, r2 = run_json(capsys, "verify-catalog", "--seed", "2", "--points", "3")
        assert r1["results"] != r2["results"]


class TestRecurrence:
    def test_bundled_specs_pass(self, capsys):
        for name in ("example1", "example2", "example3", "example4", "example5"):
            code, report = run_json(capsys, "recurrence", bundled_path(name))
            assert code == 0, name
            assert report["pass"] is True

    def test_verification_details_present(self, capsys):
        _, report = run_json(capsys, "recurrence", bundled_path("example4"))
        verif = report["results"]["verification"]
        assert verif["pass"] is True and verif["first_failure_index"] is None
        assert report["results"]["transform_checks"]

    def test_perturbed_candidate_fails(self, capsys, tmp_path):
        payload = json.loads(resources.files("biqz").joinpath("specs", "example1.json").read_text())
        payload["candidate"] = {"catalog": "pow_p", "params": {"p": "1i+1.01j"}}
        spec = tmp_path / "wrong.json"
        spec.write_text(json.dumps(payload))
        code, report = run_json(capsys, "recurrence", str(spec))
        assert code == 1
        assert report["results"]["verification"]["first_failure_index"] in (0, 1)

    def test_x_samples_override(self, capsys):
        code, report = run_json(
            capsys, "recurrence", bundled_path("example1"), "--x-samples", "5,7I"
        )
        assert code == 0
        assert [c["x"] for c in report["results"]["transform_checks"]] == ["5", "7I"]

    def test_missing_file_is_parse_error(self, capsys):
        code, _ = run_json(capsys, "recurrence", "no_such_spec.json")
        assert code == 2

    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code, _ = run_json(capsys, "recurrence", str(spec))
        assert code == 2

    def test_order_mismatch_is_parse_error(self, capsys, tmp_path):
        payload = json.loads(resources.files("biqz").joinpath("specs", "example1.json").read_text())
        payload["order"] = 3
        spec = tmp_path / "mismatch.json"
        spec.write_text(json.dumps(payload))
        code, _ = run_json(capsys, "recurrence", str(spec))
        assert code == 2

    def test_zero_divisor_leading_coefficient_is_domain_error(self, capsys, tmp_path):
        spec = tmp_path / "degenerate.json"
        spec.write_text(json.dumps({
            "coeffs": ["1", "1+1Ik"],
            "initial": ["1"],
        }))
        code, report = run_json(capsys, "recurrence", str(spec))
        assert code == 3
        assert report["errors"][0]["name"] == "ZeroDivisor"


class TestPaperSuite:
    def test_all_checks_pass(self, capsys):
        code, report = run_json(capsys, "paper-suite")
        assert code == 0
        checks = report["results"]["checks"]
        assert [c["name"] for c in checks] == [
            "example1", "example2", "example3", "example4", "example5",
            "zero_divisor_powers",
        ]
        assert all(c["pass"] for c in checks)

    def test_human_output_and_exit(self, capsys):
        code, out = run_cli(capsys, "paper-suite")
        assert code == 0
        assert "6/6 checks passed" in out

    def test_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "paper-suite", "--json")
        _, out2 = run_cli(capsys, "paper-suite", "--json")
        assert out1 == out2


class TestUsage:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "biqz" in capsys.readouterr().out


class TestClosedStdout:
    # the reader closes the pipe before the report is written, as `| head`
    # does once it has its lines: the command still exits with its verdict
    # and prints nothing to stderr
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify-catalog", "--json", "--seed", "0"], 0),
            (["eval", "pow_p", "--param", "p=0.5", "--at", "2"], 0),
            (["eval", "pow_p", "--param", "p=2", "--at", "1.5", "--json"], 3),
        ],
    )
    def test_no_traceback(self, argv, code):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "biqz", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert err == b""

    def test_reader_closing_after_100_bytes(self):
        # as `| head -c 100`: part of the report is read before the pipe closes
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "biqz", "verify-catalog", "--json", "--seed", "0"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestSmallPaths:
    def test_text_report_names_its_error(self, capsys):
        code, out = run_cli(capsys, "eval", "pow_p", "--param", "p=2", "--at", "1.5")
        assert code == 3
        assert out.splitlines()[:2] == [
            "eval: FAIL",
            "  error OutsideROC: smaller root magnitude 1.5 of x <= radius hint 2.0",
        ]

    def test_param_without_equals_is_a_parse_error(self, capsys):
        code, report = run_json(capsys, "eval", "pow_p", "--param", "p", "--at", "4")
        assert code == 2
        assert report["errors"][0]["name"] == "LiteralParse"

    def test_unknown_bundled_spec_names_the_five(self):
        with pytest.raises(KeyError) as raised:
            load_bundled_spec("example9")
        assert "example1, example2, example3, example4, example5" in str(raised.value)
