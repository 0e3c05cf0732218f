"""Biquaternion literal grammar.

    literal := term (('+' | '-') term)*
    term    := complex ('i' | 'j' | 'k')?
    complex := real | real 'I' | '(' real ('+'|'-') real 'I' ')'

Whitespace is insignificant.  'I' is the commuting complex unit; lowercase
'i', 'j', 'k' are the quaternion units.  Examples:

    1+2i+3j+4k        (0+1I)k  == 1Ik        (1+1I)+(0+2I)j       -0.5j

A bare unit letter ('i', 'j', 'k') is accepted as a coefficient of 1.
"""
from __future__ import annotations

import re

from .algebra import Biquaternion
from .errors import LiteralParseError

_REAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_UNITS = {"i": 1, "j": 2, "k": 3}


def parse(text: str) -> Biquaternion:
    """Parse a literal into a Biquaternion; raises LiteralParseError."""
    if not isinstance(text, str):
        raise LiteralParseError(f"expected a literal string, got {type(text).__name__} {text!r}")
    s = "".join(text.split())
    if not s:
        raise LiteralParseError("empty biquaternion literal")
    comps = [0j, 0j, 0j, 0j]
    pos = 0
    sign = 1.0
    if s[0] in "+-":
        sign = -1.0 if s[0] == "-" else 1.0
        pos = 1
    while True:
        value, axis, pos = _parse_term(s, pos)
        comps[axis] += sign * value
        if pos == len(s):
            break
        if s[pos] not in "+-":
            raise LiteralParseError(f"expected '+' or '-' at position {pos} in {text!r}")
        sign = -1.0 if s[pos] == "-" else 1.0
        pos += 1
        if pos == len(s):
            raise LiteralParseError(f"dangling sign at end of {text!r}")
    return Biquaternion(*comps)


def _parse_term(s: str, pos: int) -> tuple[complex, int, int]:
    if pos >= len(s):
        raise LiteralParseError(f"expected a term at position {pos} in {s!r}")
    ch = s[pos]
    if ch == "(":
        value, pos = _parse_paren(s, pos)
    elif ch in _UNITS:
        # bare unit letter: coefficient 1
        return 1.0 + 0j, _UNITS[ch], pos + 1
    else:
        m = _REAL.match(s, pos)
        if m is None:
            raise LiteralParseError(f"expected a number at position {pos} in {s!r}")
        num = float(m.group(0))
        pos = m.end()
        if pos < len(s) and s[pos] == "I":
            value = complex(0.0, num)
            pos += 1
        else:
            value = complex(num, 0.0)
    if pos < len(s) and s[pos] in _UNITS:
        return value, _UNITS[s[pos]], pos + 1
    return value, 0, pos


def _parse_paren(s: str, pos: int) -> tuple[complex, int]:
    pos += 1  # consume '('
    re_sign = 1.0
    if pos < len(s) and s[pos] in "+-":
        re_sign = -1.0 if s[pos] == "-" else 1.0
        pos += 1
    m = _REAL.match(s, pos)
    if m is None:
        raise LiteralParseError(f"expected a number at position {pos} in {s!r}")
    re_part = re_sign * float(m.group(0))
    pos = m.end()
    if pos >= len(s) or s[pos] not in "+-":
        raise LiteralParseError(f"expected '+' or '-' inside parentheses at position {pos} in {s!r}")
    im_sign = -1.0 if s[pos] == "-" else 1.0
    pos += 1
    m = _REAL.match(s, pos)
    if m is None:
        raise LiteralParseError(f"expected a number at position {pos} in {s!r}")
    im_part = im_sign * float(m.group(0))
    pos = m.end()
    if pos >= len(s) or s[pos] != "I":
        raise LiteralParseError(f"expected 'I' at position {pos} in {s!r}")
    pos += 1
    if pos >= len(s) or s[pos] != ")":
        raise LiteralParseError(f"expected ')' at position {pos} in {s!r}")
    return complex(re_part, im_part), pos + 1


def _format_complex(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}I"
    op = "-" if c.imag < 0 else "+"
    return f"({c.real!r}{op}{abs(c.imag)!r}I)"


def format_literal(q: Biquaternion) -> str:
    """Canonical literal for q; round-trips exactly through :func:`parse`."""
    terms = []
    for c, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if c == 0:
            continue
        terms.append(_format_complex(c) + unit)
    if not terms:
        return "0.0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out
