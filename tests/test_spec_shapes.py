"""Spec keys that hold lists or objects are shape-checked: a number, a string
or a list in the wrong place exits 2 naming the key.  A string where a list of
literals belongs must not be iterated one character per literal."""
import json
from importlib import resources

import pytest

from biqz.cli import main


def _run(capsys, tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = main(["recurrence", str(spec), "--json"])
    return code, json.loads(capsys.readouterr().out)


def _bundled(name: str) -> dict:
    return json.loads(resources.files("biqz").joinpath("specs", f"{name}.json").read_text())


def _order1(**changes) -> dict:
    """f(n+1) = f(n): every list key set, so a string reads as valid literals."""
    payload = {
        "coeffs": ["-1", "1"],
        "initial": ["1"],
        "forcing": [{"catalog": "const_one", "coeffs": ["0"]}],
        "candidate": {"polynomial": ["1"]},
        "x_samples": ["4"],
    }
    return payload | changes


def _with_forcing_coeffs(value) -> dict:
    return _order1(forcing=[{"catalog": "const_one", "coeffs": value}])


def _with_geometric(value) -> dict:
    payload = _bundled("example5")
    payload["candidate"]["geometric"] = value
    return payload


def _with_target(value) -> dict:
    payload = _bundled("example5")
    payload["deconvolve"]["target"] = value
    return payload


CASES = [
    ("coeffs", "list", _order1(coeffs=5)),
    ("coeffs", "list", _order1(coeffs="11")),  # iterated: ["1", "1"]
    ("coeffs", "list", _order1(coeffs={"0": "-1", "1": "1"})),
    ("initial", "list", _order1(initial="1")),
    ("initial", "list", _order1(initial=1)),
    ("forcing", "list", _order1(forcing={"catalog": "const_one", "coeffs": ["0"]})),
    ("forcing", "object", _order1(forcing=[1])),
    ("forcing", "object", _order1(forcing=["const_one"])),
    ("coeffs", "list", _with_forcing_coeffs("0")),
    ("coeffs", "list", _with_forcing_coeffs(0)),
    ("candidate", "object", _order1(candidate=3)),
    ("candidate", "object", _order1(candidate=["1"])),
    ("polynomial", "list", _order1(candidate={"polynomial": "12"})),  # iterated: 1 + 2n
    ("polynomial", "list", _order1(candidate={"polynomial": 1})),
    ("x_samples", "list", _order1(x_samples="34")),  # iterated: x = 3 and x = 4
    ("x_samples", "list", _order1(x_samples=4)),
    ("deconvolve", "object", {"deconvolve": 1}),
    ("deconvolve", "object", {"deconvolve": ["3j"]}),
    ("geometric", "list", _with_geometric({"coeff": "1", "ratio": "2i"})),
    ("geometric", "object", _with_geometric([1])),
    ("geometric", "object", _with_geometric(["2i"])),
    ("target", "object", _with_target("pow_p")),
    ("params", "object", _with_target({"catalog": "pow_p", "params": ["p", "2i"]})),
    ("params", "object", _order1(forcing=[{"catalog": "const_one", "params": 5, "coeffs": ["0"]}])),
    ("params", "object", _order1(candidate={"catalog": "const_one", "params": None})),
]


class TestShapes:
    def test_the_base_specs_pass(self, capsys, tmp_path):
        for payload in (_order1(), _bundled("example5")):
            code, report = _run(capsys, tmp_path, payload)
            assert code == 0 and report["pass"]

    @pytest.mark.parametrize("key, shape, payload", CASES)
    def test_refused_with_exit_2(self, capsys, tmp_path, key, shape, payload):
        code, report = _run(capsys, tmp_path, payload)
        assert code == 2
        error = report["errors"][0]
        assert error["name"] == "Value"
        assert error["message"].startswith(f"{key} must be a JSON {shape}, got ")
