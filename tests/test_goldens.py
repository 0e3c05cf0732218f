"""Byte-for-byte guard on the CLI's golden outputs.

Each command's JSON output is pinned by its SHA-256.  A change that alters
one of these outputs must say why and record the new digest here.  The
recurrence reports quote the spec path as given, so the commands run from the
root of the checkout with paths relative to it.
"""
import hashlib
from pathlib import Path

import pytest

from biqz.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDENS = {
    "paper-suite --json": "f905d602900c938744698b7c582ff58cc3a1761efa6c76d0c32f2d3f20cfe381",
    "verify-catalog --json --seed 0": "12c27e6e7ac7ae912dfafe072a430b27f5df63516ec4f72ed6d748a150d50a5a",
    "verify-catalog --json --seed 1": "9619f981629ee19b26b354ea78c4a5fdb9b6276c224ef3daf2e77ab745486973",
    "verify-catalog --json --seed 2": "94f0528519a45b2f2488d3bbc1e1f3dc725960ab72e3be71b54331ec2fe5a3a6",
    "verify-catalog --json --seed 3": "861cd4ecf46aa907986feedd54f9aceb4fc5611dc1b013cc8fe110020b5390a5",
    "recurrence src/biqz/specs/example1.json --json": "449f0bc6ca78ed0db30b041f9a88b49f085ad97b9943693a28ef67af374f79d7",
    "recurrence src/biqz/specs/example2.json --json": "5031ba5120cf8eeb72a87d7ff395872abefedb425c06c17ac163d19cb5c89921",
    "recurrence src/biqz/specs/example3.json --json": "23fb6fba6f825fc9810376c74d200d581e7a5f4ccb3147c9a21738561cc4fe1c",
    "recurrence src/biqz/specs/example4.json --json": "ff12ea71aa37ea82ac6d18a04a17ba0f80ab07123ef77cb0672bdba2ab89d026",
    "recurrence src/biqz/specs/example5.json --json": "e7d26fa1a6ef5f9ccf7f520456db7cd6dea2002e22d196b152be767d57565e50",
}


@pytest.mark.parametrize("command", GOLDENS)
def test_output_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDENS[command]
