"""Biquaternion literal grammar.

    literal := sign? term (sign term)*
    term    := '(' sign? real sign real 'I' ')' unit?
             | real 'I'? unit?
             | unit
    sign    := '+' | '-'
    unit    := 'i' | 'j' | 'k'
    real    := (digits '.'? digits? | '.' digits) (('e' | 'E') sign? digits)?

Whitespace is insignificant.  'I' is the commuting complex unit, 'i', 'j', 'k'
the quaternion units, and a bare unit has coefficient 1: 1+2i+3j+4k, (0+1I)k
== 1Ik, (1+1I)+(0+2I)j, -0.5j.  ``_TERM`` matches one signed term, line for
line as above; with a '+' before an unsigned first term, a literal must be a
run of such matches whose value stays in double range, or LiteralParseError.
"""
from __future__ import annotations

import re

from .algebra import Biquaternion
from .errors import LiteralParseError

_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(rf"""([+-])
    (?: \( ([+-]?{_REAL}) ([+-]{_REAL}) I \)    # '(' sign? real sign real 'I' ')'
      | ({_REAL}) (I?)                          # real 'I'?
      | (?=[ijk]) )                             # a bare unit
    ([ijk]?)                                    # unit?
    """, re.VERBOSE)
_UNITS = {"": 0, "i": 1, "j": 2, "k": 3}


def parse(text: str) -> Biquaternion:
    """Parse a literal into a Biquaternion; raises LiteralParseError."""
    if not isinstance(text, str):
        raise LiteralParseError(f"expected a literal string, got {type(text).__name__} {text!r}")
    body = "".join(text.split())
    s = body if body.startswith(("+", "-")) else "+" + body
    comps, pos = [0j, 0j, 0j, 0j], 0
    while m := _TERM.match(s, pos):
        sign, re_part, im_part, real, imag, unit = m.groups()
        if re_part is not None:
            value = complex(float(re_part), float(im_part))
        elif real is not None:
            value = complex(0.0, float(real)) if imag else complex(float(real), 0.0)
        else:
            value = 1.0 + 0j
        comps[_UNITS[unit]] += (-1.0 if sign == "-" else 1.0) * value
        pos = m.end()
    if pos < len(s):
        raise LiteralParseError(f"cannot parse {s[pos:] if pos else body!r} in literal {text!r}")
    try:
        return Biquaternion(*comps)
    except ValueError:
        raise LiteralParseError(f"literal {text!r} leaves double range") from None


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
