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
    "paper-suite --json": "c3e801bf9c804a358ad1563f869740adea7a44a3845c612067e08b7ea7515d6a",
    "verify-catalog --json --seed 0": "2e7eb43835d07517c8d001567633543fa0a7772c49da90d9dd518d190d9d21da",
    "verify-catalog --json --seed 1": "916fa7ceebd92a26278cb298e2e5b7cf62b35bda3a768a471d4129585763c9d3",
    "verify-catalog --json --seed 2": "34a30337a2bb43acba848db45ef172e9f784b2b92a473037008400c10e5520e6",
    "verify-catalog --json --seed 3": "676066fee0d7f9aecd447948e99300618dc6b425ba782e480ffac6ac593fca30",
    "recurrence src/biqz/specs/example1.json --json": "449f0bc6ca78ed0db30b041f9a88b49f085ad97b9943693a28ef67af374f79d7",
    "recurrence src/biqz/specs/example2.json --json": "29b78a1a266d5d5de3ee50be7ff8da4fe83c0e6ffd876486699438091f3389ed",
    "recurrence src/biqz/specs/example3.json --json": "23fb6fba6f825fc9810376c74d200d581e7a5f4ccb3147c9a21738561cc4fe1c",
    "recurrence src/biqz/specs/example4.json --json": "a15d043f9eaa1b4ea9299e100442a40153e6e7ad5a0306788f539e0ada601a3c",
    "recurrence src/biqz/specs/example5.json --json": "e7d26fa1a6ef5f9ccf7f520456db7cd6dea2002e22d196b152be767d57565e50",
}


@pytest.mark.parametrize("command", GOLDENS)
def test_output_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDENS[command]
