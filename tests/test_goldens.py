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
    "paper-suite --json": "7feda466ecbfa5c24eb18df323fd3c0c01260a8800f992198d4f583f05fcd599",
    "verify-catalog --json --seed 0": "2f29552e300b4bef5148a8a92ae5f1c535d526f3328a756437a013df0fb31365",
    "verify-catalog --json --seed 1": "18c78740a755492acecefafcf2d026309a8bd09c8fa85e7762205fed0db772af",
    "verify-catalog --json --seed 2": "ba9f0f055309f51c24a083a2c7eef96a5b569721fe227f14ef521f0cb28a80ad",
    "verify-catalog --json --seed 3": "269775b9da4eb1a4524396978d9d0b514f0604f3091f834c3dfffe3d3eac63c4",
    "recurrence src/biqz/specs/example1.json --json": "449f0bc6ca78ed0db30b041f9a88b49f085ad97b9943693a28ef67af374f79d7",
    "recurrence src/biqz/specs/example2.json --json": "5031ba5120cf8eeb72a87d7ff395872abefedb425c06c17ac163d19cb5c89921",
    "recurrence src/biqz/specs/example3.json --json": "23fb6fba6f825fc9810376c74d200d581e7a5f4ccb3147c9a21738561cc4fe1c",
    "recurrence src/biqz/specs/example4.json --json": "ff12ea71aa37ea82ac6d18a04a17ba0f80ab07123ef77cb0672bdba2ab89d026",
    "recurrence src/biqz/specs/example5.json --json": "baabca40eae79ff5e3c22bc775e059e8c8af47b2b68ca407bca930ebf055ba1c",
}


@pytest.mark.parametrize("command", GOLDENS)
def test_output_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDENS[command]
