"""Seeded spec fuzz: each case mutates one bundled spec, by dropping a key or
swapping a value for one of a fixed set of wrong ones, at the top level or one
level deeper.  Whatever the spec holds, ``biqz recurrence --json`` exits 0-3
without raising and prints one strict-JSON report with the nine envelope keys;
a parse/spec (2) or domain (3) error reports one error and nothing else."""
import copy
import json
import random

import pytest

from biqz.cli import load_bundled_spec, main

BUNDLED = ("example1", "example2", "example3", "example4", "example5")
ENVELOPE = {"tool", "version", "command", "inputs", "tolerances", "results", "errors", "pass", "summary"}
VALUES = (None, True, 2.5, -1, "", [], {}, ["1"], "1e400", 10**30)
CASES_PER_SPEC = 60


def _strict_loads(text: str):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _mutations(name: str):
    """CASES_PER_SPEC (description, payload) pairs, the same on every run."""
    rng = random.Random(BUNDLED.index(name))
    base = load_bundled_spec(name)
    for _ in range(CASES_PER_SPEC):
        payload = copy.deepcopy(base)
        target, where = payload, "spec"
        nested = [key for key, value in payload.items() if isinstance(value, (dict, list)) and value]
        if nested and rng.random() < 0.5:
            outer = rng.choice(nested)
            target, where = payload[outer], outer
        key = rng.choice(list(target) if isinstance(target, dict) else range(len(target)))
        choice = rng.randrange(len(VALUES) + 1)
        if choice == len(VALUES):
            del target[key]
            yield f"{where}: drop {key!r}", payload
        else:
            target[key] = VALUES[choice]
            yield f"{where}: {key!r} = {VALUES[choice]!r}", payload


@pytest.mark.parametrize("name", BUNDLED)
def test_mutated_specs_give_one_strict_report(name, capsys, tmp_path):
    spec = tmp_path / "spec.json"
    failures = []
    for description, payload in _mutations(name):
        spec.write_text(json.dumps(payload))
        try:
            code = main(["recurrence", str(spec), "--json", "--terms", "12"])
            report = _strict_loads(capsys.readouterr().out)
        except Exception as exc:  # any escape is a failure of the case, not of the test run
            failures.append(f"{description}: raised {exc!r}")
            continue
        if code not in (0, 1, 2, 3) or set(report) != ENVELOPE:
            failures.append(f"{description}: exit {code}, keys {sorted(report)}")
        elif code >= 2 and (len(report["errors"]) != 1
                            or (report["inputs"], report["tolerances"], report["results"]) != ({}, {}, {})):
            failures.append(f"{description}: exit {code} with errors {report['errors']}")
    assert not failures, "\n".join(failures)
