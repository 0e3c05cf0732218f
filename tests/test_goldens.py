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
    "verify-catalog --json --seed 0": "2e7eb43835d07517c8d001567633543fa0a7772c49da90d9dd518d190d9d21da",
    "verify-catalog --json --seed 1": "916fa7ceebd92a26278cb298e2e5b7cf62b35bda3a768a471d4129585763c9d3",
    "verify-catalog --json --seed 2": "34a30337a2bb43acba848db45ef172e9f784b2b92a473037008400c10e5520e6",
    "verify-catalog --json --seed 3": "676066fee0d7f9aecd447948e99300618dc6b425ba782e480ffac6ac593fca30",
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
