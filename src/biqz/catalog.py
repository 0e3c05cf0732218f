"""Named sequences with closed-form Z transforms.

Each entry pairs a sequence with the closed form of its transform, the
convergence radius of the series, and the parameters it was built from:

    const_one          1                  (1 - x**-1)**-1
    ramp_n             n                  x * (x-1)**-2
    ramp_n2            n**2               (x**2 + x) * (x-1)**-3
    pow_p(p)           p**n               (1 - p*x**-1)**-1
    n_pow_p(p)         n * p**n           p * x**-1 * (1 - p*x**-1)**-2
    cos_qn(q)          cos(q*n)           two-branch, see below
    sin_qn(q)          sin(q*n)           two-branch, see below
    binom_shifted(m,q) C(n+m, m) * q**n   (1 - x**-1*q)**-m * (1 - q*x**-1)**-1
    binom(m,q)         C(n, m) * q**n     (x*q**-1 - 1)**-m * (1 - q*x**-1)**-1
    exp_over_fact(q)   q**n / n!          exp(q * x**-1)

Factor order matters (the algebra is noncommutative) and is exactly as
written above.  ``n_pow_p`` also knows an ``as_printed`` variant,
p * (1 - p*x**-1)**-1, which circulates but is inconsistent with both the
index-scaling rule and direct summation; it is kept only so the discrepancy
can be demonstrated.

For cos/sin entries with |vec_abs(q)| away from zero the transform combines
the two geometric series with ratios exp(+-s*q), s = vector/vec_abs; when
|vec_abs(q)| is numerically zero (including nilpotent vector parts) the
degenerate forms

    cos: (x**2 - x*cos(q)) * (x**2 - 2*x*cos(q) + 1)**-1
    sin: (x * sin(q))      * (x**2 - 2*x*cos(q) + 1)**-1

apply, with cos(q), sin(q) the degenerate-branch values at n = 1.

Terms built from powers (p**n, exp(+-s*q)**n, q**n / n!) are stepped from the
previous index by one multiplication (``sequences.stepped``), so summing a
series costs O(1) products per term.

Convergence radii are exact and computed once per entry from the scalar roots
q0 +- sqrt(q0**2 - cns) of the ratio (every biquaternion satisfies
q**2 = 2*q0*q - cns, so its powers grow componentwise like the larger root
magnitude).  Geometric and binomial rows take the larger root of their
parameter, cos/sin the larger root of exp(+-s*q), and exp_over_fact is
entire.  The real gauge of the parameter would understate growth near the
zero-divisor variety: powers of 1 + 1Ik double componentwise although its
real gauge is 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .algebra import (
    DEGENERATE_VEC_TOL,
    ONE,
    Biquaternion,
    as_biquaternion,
    cos_seq_term,
    exp,
    root_magnitudes,
    sin_seq_term,
)
from .errors import OutsideROCError
from .sequences import Sequence, stepped


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    params: dict
    roc_radius: float
    sequence: Sequence
    _eval_fn: Callable[[Biquaternion], Biquaternion] = field(repr=False)

    def eval(self, x) -> Biquaternion:
        """Closed-form transform value at x; requires root_magnitudes(x)[1] > roc_radius."""
        x = as_biquaternion(x)
        smaller = root_magnitudes(x)[1]
        if smaller <= self.roc_radius:
            raise OutsideROCError(
                f"{self.name}: point with smaller root magnitude {smaller} is inside "
                f"radius {self.roc_radius}"
            )
        return self._eval_fn(x)

    def __repr__(self):
        return f"CatalogEntry({self.name}, params={self.params}, roc_radius={self.roc_radius})"


def const_one() -> CatalogEntry:
    seq = Sequence(lambda n: ONE, radius_hint=1.0, name="const_one")

    def ev(x):
        return (ONE - x.inverse()).inverse()

    return CatalogEntry("const_one", {}, 1.0, seq, ev)


def ramp_n() -> CatalogEntry:
    seq = Sequence(lambda n: n, radius_hint=1.0, name="ramp_n")

    def ev(x):
        return x * (x - ONE).inverse() ** 2

    return CatalogEntry("ramp_n", {}, 1.0, seq, ev)


def ramp_n2() -> CatalogEntry:
    seq = Sequence(lambda n: n * n, radius_hint=1.0, name="ramp_n2")

    def ev(x):
        return (x * x + x) * (x - ONE).inverse() ** 3

    return CatalogEntry("ramp_n2", {}, 1.0, seq, ev)


def pow_p(p) -> CatalogEntry:
    p = as_biquaternion(p)
    radius = root_magnitudes(p)[0]
    seq = Sequence(stepped(ONE, lambda _: p), radius_hint=radius, name="pow_p")

    def ev(x):
        return (ONE - p * x.inverse()).inverse()

    return CatalogEntry("pow_p", {"p": p}, radius, seq, ev)


def n_pow_p(p, as_printed: bool = False) -> CatalogEntry:
    p = as_biquaternion(p)
    radius = root_magnitudes(p)[0]
    powers = stepped(ONE, lambda _: p)
    seq = Sequence(lambda n: powers(n) * n, radius_hint=radius, name="n_pow_p")

    def ev(x):
        x_inv = x.inverse()
        if as_printed:
            return p * (ONE - p * x_inv).inverse()
        return p * x_inv * (ONE - p * x_inv).inverse() ** 2

    return CatalogEntry("n_pow_p", {"p": p, "as_printed": as_printed}, radius, seq, ev)


def _trig_entry(name: str, q, degenerate_term, degenerate_eval, combine) -> CatalogEntry:
    # nondegenerate: combine(s, a, b) joins the parts with ratios exp(+-s*q),
    # their n-th powers for the terms and their geometric sums for the closed form
    q = as_biquaternion(q)
    va = q.vec_abs()
    # s = v/vec_abs commutes with q, eigenvalues +-I: exp(+-s*q) has exp(+-(+-I*q0 - vec_abs))
    radius = math.exp(abs(va.real) + abs(q.w.imag))
    if abs(va) < DEGENERATE_VEC_TOL:
        seq = Sequence(lambda n: degenerate_term(q, n), radius_hint=radius, name=name)
        return CatalogEntry(name, {"q": q}, radius, seq, lambda x: degenerate_eval(q, x))
    s = q.vector_part / va
    e, f = exp(s * q), exp(-(s * q))
    e_pow, f_pow = stepped(ONE, lambda _: e), stepped(ONE, lambda _: f)
    seq = Sequence(lambda n: combine(s, e_pow(n), f_pow(n)), radius_hint=radius, name=name)

    def ev(x):
        x_inv = x.inverse()
        return combine(s, (ONE - e * x_inv).inverse(), (ONE - f * x_inv).inverse())

    return CatalogEntry(name, {"q": q}, radius, seq, ev)


def _cos_degenerate(q, x):
    c1 = cos_seq_term(q, 1)
    denom = (x * x - x * c1 * 2 + ONE).inverse()
    return (x * x - x * c1) * denom


def _sin_degenerate(q, x):
    c1 = cos_seq_term(q, 1)
    s1 = sin_seq_term(q, 1)
    denom = (x * x - x * c1 * 2 + ONE).inverse()
    return x * s1 * denom


def cos_qn(q) -> CatalogEntry:
    return _trig_entry("cos_qn", q, cos_seq_term, _cos_degenerate, lambda s, a, b: (a + b) * 0.5)


def sin_qn(q) -> CatalogEntry:
    return _trig_entry("sin_qn", q, sin_seq_term, _sin_degenerate, lambda s, a, b: s * (b - a) * 0.5)


def binom_shifted(m: int, q) -> CatalogEntry:
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    q = as_biquaternion(q)
    radius = root_magnitudes(q)[0]
    powers = stepped(ONE, lambda _: q)
    seq = Sequence(lambda n: powers(n) * math.comb(n + m, m), radius_hint=radius, name="binom_shifted")

    def ev(x):
        x_inv = x.inverse()
        return (ONE - x_inv * q).inverse() ** m * (ONE - q * x_inv).inverse()

    return CatalogEntry("binom_shifted", {"m": m, "q": q}, radius, seq, ev)


def binom(m: int, q) -> CatalogEntry:
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    q = as_biquaternion(q)
    q_inv = q.inverse()  # required by the closed form
    radius = root_magnitudes(q)[0]
    powers = stepped(ONE, lambda _: q)
    seq = Sequence(lambda n: powers(n) * math.comb(n, m), radius_hint=radius, name="binom")

    def ev(x):
        x_inv = x.inverse()
        return (x * q_inv - ONE).inverse() ** m * (ONE - q * x_inv).inverse()

    return CatalogEntry("binom", {"m": m, "q": q}, radius, seq, ev)


def exp_over_fact(q) -> CatalogEntry:
    q = as_biquaternion(q)
    # the series is entire
    seq = Sequence(stepped(ONE, lambda n: q / n), radius_hint=0.0, name="exp_over_fact")

    def ev(x):
        return exp(q * x.inverse())

    return CatalogEntry("exp_over_fact", {"q": q}, 0.0, seq, ev)


# stable names addressable from the CLI and from JSON recurrence specs
BUILDERS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "const_one": (const_one, ()),
    "ramp_n": (ramp_n, ()),
    "ramp_n2": (ramp_n2, ()),
    "pow_p": (pow_p, ("p",)),
    "n_pow_p": (n_pow_p, ("p",)),
    "cos_qn": (cos_qn, ("q",)),
    "sin_qn": (sin_qn, ("q",)),
    "binom_shifted": (binom_shifted, ("m", "q")),
    "binom": (binom, ("m", "q")),
    "exp_over_fact": (exp_over_fact, ("q",)),
}

ALL_NAMES = tuple(BUILDERS)


def build(name: str, params: dict | None = None, as_printed: bool = False) -> CatalogEntry:
    """Build an entry by stable name; biquaternion params may be literals."""
    from .parsing import parse

    if name not in BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(ALL_NAMES)}")
    builder, wanted = BUILDERS[name]
    params = dict(params or {})
    unknown = set(params) - set(wanted)
    if unknown:
        raise ValueError(f"{name} does not take parameters {sorted(unknown)}")
    args = []
    for key in wanted:
        if key not in params:
            raise ValueError(f"{name} requires parameter {key!r}")
        raw = params[key]
        if key == "m":
            args.append(int(raw))
        elif isinstance(raw, str):
            args.append(parse(raw))
        else:
            args.append(as_biquaternion(raw))
    if name == "n_pow_p":
        return builder(*args, as_printed=as_printed)
    return builder(*args)
