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
    "verify-catalog --json --seed 0": "2f3fc664a6afd208d93c5e610ecfae0da2484ad5feec694e31c2f0ad6d4d25b8",
    "verify-catalog --json --seed 1": "07cd0ca8fa5538d8a6c86d19c5fe4e0d15c046d04df0bbea207aa174d195d063",
    "verify-catalog --json --seed 2": "837599d01ca48cd79d28befa5c5373267b557d3268eb4014d34b4f194f51421a",
    "verify-catalog --json --seed 3": "c28f52af4f70ef1fedf37ae0aeb0148c5ad29c6b9ae47e42528f3f3df8618412",
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
