"""A spec's ``order`` and a geometric candidate's ``delay`` are checked, not
coerced: anything but a nonnegative integer exits 2 naming the key."""
import json
from importlib import resources

import pytest

from biqz.cli import main

REFUSED = [2.9, 2.0, True, None, -1, "2.9", "two", [2]]


def _run(capsys, tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = main(["recurrence", str(spec), "--json"])
    return code, json.loads(capsys.readouterr().out)


def _bundled(name: str) -> dict:
    return json.loads(resources.files("biqz").joinpath("specs", f"{name}.json").read_text())


def _refused(code, report, key):
    assert code == 2
    error = report["errors"][0]
    assert error["name"] == "Value"
    assert error["message"].startswith(f"{key} must be a nonnegative integer")


class TestOrder:
    @pytest.mark.parametrize("value", REFUSED)
    def test_refused_with_exit_2(self, capsys, tmp_path, value):
        code, report = _run(capsys, tmp_path, _bundled("example1") | {"order": value})
        _refused(code, report, "order")

    @pytest.mark.parametrize("value", [2, "2"])
    def test_the_true_order_passes(self, capsys, tmp_path, value):
        code, report = _run(capsys, tmp_path, _bundled("example1") | {"order": value})
        assert code == 0 and report["pass"]

    def test_a_wrong_order_is_refused(self, capsys, tmp_path):
        code, report = _run(capsys, tmp_path, _bundled("example1") | {"order": 3})
        assert code == 2
        assert "declares order 3" in report["errors"][0]["message"]

    def test_order_may_be_left_out(self, capsys, tmp_path):
        payload = _bundled("example1")
        del payload["order"]
        code, report = _run(capsys, tmp_path, payload)
        assert code == 0 and report["pass"]


def _with_delay(value) -> dict:
    payload = _bundled("example4")
    payload["candidate"]["geometric"][1]["delay"] = value
    return payload


class TestDelay:
    @pytest.mark.parametrize("value", REFUSED + [1.9])
    def test_refused_with_exit_2(self, capsys, tmp_path, value):
        code, report = _run(capsys, tmp_path, _with_delay(value))
        _refused(code, report, "delay")

    @pytest.mark.parametrize("value", [0, "0"])
    def test_zero_delay_passes(self, capsys, tmp_path, value):
        code, report = _run(capsys, tmp_path, _with_delay(value))
        assert code == 0 and report["pass"]

    @pytest.mark.parametrize("value", [1, "1"])
    def test_a_delay_is_applied_not_truncated(self, capsys, tmp_path, value):
        # delaying (Ik)**n breaks example 4's candidate: verification fails
        code, report = _run(capsys, tmp_path, _with_delay(value))
        assert code == 1
        assert report["results"]["verification"]["pass"] is False
