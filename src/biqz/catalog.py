"""Named sequences with closed-form Z transforms.

Each entry pairs a sequence with the closed form of its transform, the
convergence radius of the series, and the parameters it was built from:

    family (m, s)      C(n+m-s, m) * q**n   (q*y)**s * G**m * G
      const_one        (0, 0), q = 1        1
      ramp_n           (1, 1), q = 1        n
      pow_p(p)         (0, 0), q = p        p**n
      n_pow_p(p)       (1, 1), q = p        n * p**n
      binom_shifted(m,q) (m, 0)             C(n+m, m) * q**n
      binom(m,q)       (m, m)               C(n, m) * q**n
    ramp_n2            n**2                 y * (1 + y) * G(1)**3
    cos_qn(q)          cos(q*n)             (G(e) + G(f)) / 2
    sin_qn(q)          sin(q*n)             I * (G(f) - G(e)) / 2
    exp_over_fact(q)   q**n / n!            exp(q * y)

where y = x**-1 and G = G(q) = (1 - q*y)**-1; every closed form is a function
of y, which ``CatalogEntry.eval`` inverts once.  The parameterised closed forms
hold at points x that commute with the parameter, which is where
verify-catalog samples them, and not elsewhere.  ``n_pow_p`` also knows an
``as_printed`` variant, p * G, which circulates but is inconsistent with both
the index-scaling rule and direct summation; it is kept only so the
discrepancy can be demonstrated.  The trig rows take e = exp(I*q) and
f = exp(-I*q); Euler's formula holds for every q, nilpotent vector parts
included, because the complex unit I commutes with every biquaternion.

Terms built from powers are stepped from the previous indices, so summing a
series costs O(1) operations per term: p**n (``Sequence.geometric``), its
weighted rows and exp(+-I*q)**n over raw components (``_power_steps``: the
three-term recurrence p**(k+1) = 2*p0*p**k - cns(p)*p**(k-1) where the ratio's
roots lie apart, one product elsewhere), q**n / n! by one product over values
(``sequences.stepped``).  A trig term steps both powers raw and is built once
from their joined components, each halved before the join, so a term that
fits in a double is finite even where the two powers' sum is not; its closed
form joins the components of G(e) and G(f) by the same function.  Each
ratio's root magnitudes are taken once, for its radius and for the core's guard.

Convergence radii are exact, computed once per entry by one rule: the larger
root magnitude of the ratio, from its scalar roots q0 +- sqrt(q0**2 - cns)
(every biquaternion satisfies q**2 = 2*q0*q - cns, so its powers grow
componentwise like the larger root).  The ratio is q for family rows, 1 for
ramp_n2, the larger of exp(+-I*q) for cos/sin; exp_over_fact is entire.  The
real gauge would understate growth near the zero-divisor variety: powers of
1 + 1Ik double componentwise although its real gauge is 0.

A row is added in one place, ``ROWS``: its builder, the names of its
parameters and the verify-catalog sampler that draws them.
"""
from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from .algebra import ONE, Biquaternion, _admit, _built, as_biquaternion, exp, root_magnitudes
from .parsing import parse
from .sequences import Sequence, _power_steps, _values, stepped


class CatalogEntry:
    """A named sequence, the closed form of its transform and the parameters it
    was built from; immutable, equal only to itself."""

    __slots__ = ("name", "params", "sequence", "_eval_fn")

    def __init__(self, name: str, params: dict, sequence: Sequence,
                 _eval_fn: Callable[[Biquaternion], Biquaternion]):  # of y = x**-1
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "_eval_fn", _eval_fn)

    def __setattr__(self, name, value):
        raise AttributeError("CatalogEntry values are immutable")

    def __reduce__(self):
        # copy rebuilds through the constructor, since __setattr__ refuses
        return type(self), (self.name, self.params, self.sequence, self._eval_fn)

    @property
    def roc_radius(self) -> float:
        """Convergence radius of the series, stored once as the sequence's radius_hint."""
        return self.sequence.radius_hint

    def eval(self, x) -> Biquaternion:
        """The closed form at x**-1, which ``algebra._admit`` returns or refuses by roc_radius."""
        return self._eval_fn(_admit(x, self.roc_radius, f"{self.name} radius"))

    def __repr__(self):
        return f"CatalogEntry({self.name}, params={self.params}, roc_radius={self.roc_radius})"


def _entry(name: str, params: dict, radius: float, term, closed) -> CatalogEntry:
    return CatalogEntry(name, params, Sequence(term, radius_hint=radius, name=name), closed)


def _closed(q: Biquaternion, y: Biquaternion, m: int = 0, s: int = 0) -> Biquaternion:
    """(q*y)**s * G**m * G, G = (1 - q*y)**-1: the family's one closed form (G for m = s = 0)."""
    qy = q * y
    g = (ONE - qy).inverse()
    value = g**m * g if m else g
    return qy**s * value if s else value


def _family(name: str, params: dict, q: Biquaternion, m: int, s: int) -> CatalogEntry:
    """Entry for sum C(n+m-s, m) * q**n * x**-n, radius the larger root of q: Sequence.geometric(q) at m = 0."""
    if m:
        rho = root_magnitudes(q)[0]
        terms = _values(_power_steps(q, rho), lambda n: math.comb(n + m - s, m))
        return _entry(name, params, rho, terms, lambda y: _closed(q, y, m, s))
    seq = Sequence.geometric(q)  # the one unweighted power sequence, carrying its ratio and radius hint
    seq.name = name
    return CatalogEntry(name, params, seq, lambda y: _closed(q, y, m, s))


def const_one() -> CatalogEntry:
    return _family("const_one", {}, ONE, 0, 0)


def ramp_n() -> CatalogEntry:
    return _family("ramp_n", {}, ONE, 1, 1)


def ramp_n2() -> CatalogEntry:
    return _entry("ramp_n2", {}, 1.0, lambda n: n * n, lambda y: (y + y * y) * _closed(ONE, y, 2))


def pow_p(p) -> CatalogEntry:
    p = as_biquaternion(p)
    return _family("pow_p", {"p": p}, p, 0, 0)


def n_pow_p(p, as_printed: bool = False) -> CatalogEntry:
    p = as_biquaternion(p)
    entry = _family("n_pow_p", {"p": p, "as_printed": as_printed}, p, 1, 1)
    if as_printed:
        return CatalogEntry(entry.name, entry.params, entry.sequence, lambda y: p * _closed(p, y))
    return entry


def _trig_entry(name: str, q, join) -> CatalogEntry:
    # join builds one value, unchecked, from the finite components of e**n and f**n for a
    # term, of G(e) and G(f) for the closed form, halving each part first: each half of a
    # finite part is at most half the largest double, so a sum or difference of two is finite.
    # + 0.0 makes every zero part of e and f +0.0 (q * -1j leaves -0.0s), so the powers of a
    # complex-scalar q step in one complex product, not by _hamilton
    q = as_biquaternion(q)
    e, f = exp(q * 1j) + 0.0, exp(q * -1j) + 0.0
    rho_e, rho_f = root_magnitudes(e)[0], root_magnitudes(f)[0]
    e_pow, f_pow = _power_steps(e, rho_e), _power_steps(f, rho_f)

    def term(n: int) -> Biquaternion:
        return join(e_pow(n)[0], f_pow(n)[0])  # e first: where both powers overflow, e's error is raised

    def closed(y: Biquaternion) -> Biquaternion:
        a, b = _closed(e, y), _closed(f, y)
        return join((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z))

    return _entry(name, {"q": q}, max(rho_e, rho_f), term, closed)


def _half_sum(a, b) -> Biquaternion:
    (aw, ax, ay, az), (bw, bx, by, bz) = a, b
    return _built(aw * 0.5 + bw * 0.5, ax * 0.5 + bx * 0.5, ay * 0.5 + by * 0.5, az * 0.5 + bz * 0.5)


def _half_i_difference(a, b) -> Biquaternion:
    (aw, ax, ay, az), (bw, bx, by, bz) = a, b
    return _built(bw * 0.5j - aw * 0.5j, bx * 0.5j - ax * 0.5j, by * 0.5j - ay * 0.5j, bz * 0.5j - az * 0.5j)


def cos_qn(q) -> CatalogEntry:
    return _trig_entry("cos_qn", q, _half_sum)


def sin_qn(q) -> CatalogEntry:
    return _trig_entry("sin_qn", q, _half_i_difference)


def nonnegative_int(key: str, raw) -> int:
    """raw as a nonnegative integer: an int that is not a bool, or a string holding one.

    Anything else (a float, a bool, None, a negative value) is refused, not
    coerced: ValueError naming ``key``.
    """
    value = raw
    if isinstance(raw, str):
        try:
            value = int(raw)
        except ValueError:
            value = None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key} must be a nonnegative integer, got {raw!r}")
    return value


def binom_shifted(m: int, q) -> CatalogEntry:
    m = nonnegative_int("m", m)
    q = as_biquaternion(q)
    return _family("binom_shifted", {"m": m, "q": q}, q, m, 0)


def binom(m: int, q) -> CatalogEntry:
    m = nonnegative_int("m", m)
    q = as_biquaternion(q)
    return _family("binom", {"m": m, "q": q}, q, m, m)


def exp_over_fact(q) -> CatalogEntry:
    q = as_biquaternion(q)
    term = stepped(ONE, lambda n: q / n)
    return _entry("exp_over_fact", {"q": q}, 0.0, term, lambda y: exp(q * y))  # entire


def draw_conditioned(rng: random.Random) -> Biquaternion:
    """A biquaternion bounded away from the zero-divisor variety.

    Near that variety the real gauge of a value is far below its component
    size, and double precision cannot resolve the identities being checked;
    the draws stay where the checks are numerically meaningful.
    """
    while True:
        q = Biquaternion(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        size_sq = q.component_norm() ** 2
        if size_sq < 0.1:
            continue
        if abs(q.complex_norm_sq()) < 0.05 * size_sq:
            continue
        big, small = root_magnitudes(q)
        if small == 0.0 or big / small > 3.0:
            continue
        return q


def _sample_trig(rng: random.Random) -> list[dict]:
    # a q with its vector part away from zero, and a complex scalar q
    while True:
        q = draw_conditioned(rng) * 0.8
        if abs(q.vec_abs()) >= 0.3:
            break
    q_flat = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return [{"q": q}, {"q": q_flat}]


def _sample_binom(rng: random.Random) -> list[dict]:
    m = rng.choice([1, 2, 3])
    return [{"m": m, "q": draw_conditioned(rng)}]


class Row(NamedTuple):
    """Builder, parameter names in argument order, verify-catalog draws (a dict per variant)."""

    builder: Callable[..., CatalogEntry]
    params: tuple[str, ...] = ()
    sample: Callable[[random.Random], list[dict]] = lambda rng: [{}]


# stable names addressable from the CLI and from JSON recurrence specs
ROWS: dict[str, Row] = {
    "const_one": Row(const_one),
    "ramp_n": Row(ramp_n),
    "ramp_n2": Row(ramp_n2),
    "pow_p": Row(pow_p, ("p",), lambda rng: [{"p": draw_conditioned(rng)}]),
    "n_pow_p": Row(n_pow_p, ("p",), lambda rng: [{"p": draw_conditioned(rng)}]),
    "cos_qn": Row(cos_qn, ("q",), _sample_trig),
    "sin_qn": Row(sin_qn, ("q",), _sample_trig),
    "binom_shifted": Row(binom_shifted, ("m", "q"), _sample_binom),
    "binom": Row(binom, ("m", "q"), _sample_binom),
    "exp_over_fact": Row(exp_over_fact, ("q",), lambda rng: [{"q": draw_conditioned(rng) * 2.0}]),
}

ALL_NAMES = tuple(ROWS)


def build(name: str, params: dict | None = None, as_printed: bool = False) -> CatalogEntry:
    """Build an entry by stable name; params are numbers, biquaternions or literal strings."""
    if not isinstance(name, str):  # a list or object from a spec is not a name (nor hashable)
        raise ValueError(f"catalog name must be a string, got {type(name).__name__} {name!r}")
    if name not in ROWS:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(ALL_NAMES)}")
    row = ROWS[name]
    params = dict(params or {})
    if unknown := set(params) - set(row.params):
        raise ValueError(f"{name} does not take parameters {sorted(unknown)}")
    args = []
    for key in row.params:
        if key not in params:
            raise ValueError(f"{name} requires parameter {key!r}")
        raw = params[key]
        if isinstance(raw, bool) or not isinstance(raw, (str, int, float, complex, Biquaternion)):
            raise ValueError(f"{name} parameter {key!r} must be a number, biquaternion or string")
        if isinstance(raw, str) and key != "m":  # binomial builders check m themselves
            raw = parse(raw)
        args.append(raw)
    return row.builder(*args, as_printed=as_printed) if name == "n_pow_p" else row.builder(*args)
