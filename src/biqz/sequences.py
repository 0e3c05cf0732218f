"""Lazily evaluated biquaternion sequences f_0, f_1, f_2, ...

Every forward-stepped term, reached from the one before, goes through
:func:`_stepper`, which keeps the last index and its state and restarts for an
earlier one.  Its step rules are the power core :func:`_power_steps` (the raw
components of p**n, by the three-term recurrence
p**(k+1) = 2*p0*p**k - cns(p)*p**(k-1) where p's two roots lie apart, by one
complex product for a complex scalar p and by ``_hamilton`` elsewhere;
:meth:`Sequence.geometric` builds one value per term from it, the catalog's
weighted rows one times a scalar weight, its trig rows one from two cores),
the varying factors of :func:`stepped`, the geometric recursion of
``ztransform.convolve`` and the window of the last M terms of a
``recurrence.LinearRecurrence`` solution.
"""
from __future__ import annotations

from cmath import isfinite
from math import copysign, inf
from typing import Callable, TypeVar

from .algebra import ONE, ZERO, Biquaternion, _built, _hamilton, _result, as_biquaternion, root_magnitudes

V = TypeVar("V")  # a stepped value: a Biquaternion, a power's components or a recurrence's window


def _stepper(start: Callable[[], V], step: Callable[[int, V], V]) -> Callable[[int], V]:
    """Term function n -> v_n, where v_0 = start() and v_k = step(k, v_{k-1}).

    It remembers the last (index, value) it returned and steps forward from
    there, restarting from ``start()`` for an earlier index, so in-order
    access costs one step per term and any index is reached by a loop.  The
    value at each index is the same whatever the access order.
    """
    last: tuple[float, V | None] = (inf, None)  # any n < inf: the first call starts

    def term(n: int) -> V:
        nonlocal last
        k, value = last  # one snapshot: concurrent callers can only lose reuse
        if n < k:
            k, value = 0, start()
        while k < n:
            k += 1
            value = step(k, value)
        last = (k, value)
        return value

    return term


def stepped(first: Biquaternion, factor: Callable[[int], Biquaternion]):
    """Term function n -> first * factor(1) * factor(2) * ... * factor(n).

    One multiplication per index in order: p**n is reached as p**(n-1) * p
    (powers of p commute) instead of by binary powering.
    """
    return _stepper(lambda: first, lambda k, value: value * factor(k))


# The three-term step carries a rounding error injected at one index through
# both root modes: after m more steps it is at most 2*rho/|lam+ - lam-| times
# rho**m, rho the larger root magnitude, because
# |lam+**(m+1) - lam-**(m+1)| <= 2*rho**(m+1).  Roots at least rho/8 apart
# bound that factor by 16.  Near a double root the recurrence has the mode
# n*lam**n and rounding grows like n**2*u, so those ratios take the product.
_ROOTS_APART = 1 / 8


def _power_steps(p: Biquaternion, rho: float) -> Callable[[int], tuple[tuple, tuple | None]]:
    """n -> (p**n, p**(n-1)) as component tuples (w, x, y, z), each checked
    finite: the one power core, a step rule that :func:`_stepper` runs.

    ``rho`` is root_magnitudes(p)[0], which callers that also need p's radius
    take once.  Every biquaternion satisfies p**2 = 2*p0*p - cns(p), so where
    p's roots lam+- = p0 +- I*vec_abs(p) lie apart (2*|vec_abs(p)| >= rho/8,
    rho > 0), each component steps as c_(k+1) = 2*p0*c_k - cns(p)*c_(k-1):
    8 complex products, against 16 for a Hamilton product.  p**1, and every
    power of a zero ratio, a complex scalar or a nilpotent or near-defective
    vector part, step from ``ONE``'s components as the product, bit-identical
    to ``stepped(ONE, lambda _: p)``: a complex scalar (a vector part of six
    +0.0s) as (w*p0, 0j, 0j, 0j), one complex product, and the rest by
    ``algebra._hamilton``.  A non-finite three-term or scalar step is redone
    as the product p**(n-1)*p, which raises only where it leaves double range
    too, so an overflow raises the product's ValueError at the product's index.
    """
    pw, px, py, pz = p.w, p.x, p.y, p.z
    apart = rho > 0.0 and 2.0 * abs(p.vec_abs()) >= rho * _ROOTS_APART
    a, b = 2.0 * pw, p.complex_norm_sq()
    # a vector part of six +0.0s keeps every power's at +0.0, where the Hamilton step is w*pw
    # minus +0.0s and its zero parts sum to +0.0; a -0.0 in it can flip a zero part's sign
    scalar = all(v == 0.0 and copysign(1.0, v) > 0.0 for c in (px, py, pz) for v in (c.real, c.imag))

    def step(k: int, state: tuple) -> tuple:
        now, before = state
        w, x, y, z = now
        if apart and k > 1:
            vw, vx, vy, vz = before
            nw, nx, ny, nz = a * w - b * vw, a * x - b * vx, a * y - b * vy, a * z - b * vz
            if isfinite(nw) and isfinite(nx) and isfinite(ny) and isfinite(nz):
                return (nw, nx, ny, nz), now
            # a*c_(k-1) can overflow a step before p**k does: redo it as the product
        elif scalar:
            nw = w * pw
            if isfinite(nw):
                return (nw, 0j, 0j, 0j), now
        nxt = _hamilton(w, x, y, z, pw, px, py, pz)
        if not (isfinite(nxt[0]) and isfinite(nxt[1]) and isfinite(nxt[2]) and isfinite(nxt[3])):
            _result(*nxt)  # raises the constructor's ValueError
        return nxt, now

    return _stepper(lambda: ((ONE.w, ONE.x, ONE.y, ONE.z), None), step)


def _values(steps: Callable[[int], tuple], weight: Callable[[int], int] | None = None):
    """Term function n -> the value of the power core's components steps(n)[0]
    (times a scalar weight(n)), one value built per term; a weight past double
    range raises the constructor's ValueError."""
    if weight is None:
        return lambda n: _built(*steps(n)[0])  # checked at their step

    def term(n: int) -> Biquaternion:
        w, x, y, z = steps(n)[0]
        c = weight(n)
        try:
            return _result(w * c, x * c, y * c, z * c)
        except OverflowError:  # the int weight is past double range
            raise ValueError(f"non-finite biquaternion component: the weight at index {n}") from None

    return term


class Sequence:
    """A deterministic map from index n >= 0 to a biquaternion.

    Terms are memoized, so repeated evaluation at the same index returns the identical value.
    A view, ``Sequence(s)`` or ``Sequence(s.term)`` of a ``Sequence`` s (not of a subclass),
    shares s's term function and memo but keeps its own ``radius_hint`` and ``name``.
    Term functions may hold stepping state (a :func:`_stepper` for powers, :func:`stepped` and
    recurrence solutions) yet give each index the same value in any order; nothing is locked, so
    threads sharing a sequence may compute a term twice (equal, not identical).  ``radius_hint``
    optionally records a sufficient convergence radius for the sequence's Z transform, not an
    exact one: ``transform`` refuses every x whose smaller root magnitude is at or below it,
    some convergent ones too (x = 2*p for p**n, p's roots over a factor 2 apart).  ``ratio`` is
    the p of a sequence built by :meth:`geometric`, whose terms are p**n, catalog power rows
    included, and ``None`` elsewhere; :func:`~biqz.ztransform.convolve` reads it to step a
    geometric left factor instead of summing products.
    """

    __slots__ = ("_fn", "_cache", "radius_hint", "name", "ratio")

    def __init__(self, fn, radius_hint: float | None = None, name: str | None = None):
        source = fn if type(fn) is Sequence else getattr(fn, "__self__", None)
        if type(source) is Sequence and (source is fn or getattr(fn, "__func__", None) is Sequence.term):
            fn, cache = source._fn, source._cache  # a view: one memo per term function
        else:
            cache = {}
        self._fn = fn
        self._cache: dict[int, Biquaternion] = cache  # n -> term(n); transform reads and fills it
        self.radius_hint = radius_hint
        self.name = name
        self.ratio: Biquaternion | None = None

    def term(self, n: int) -> Biquaternion:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"sequence index must be a nonnegative integer, got {n!r}")
        cached = self._cache.get(n)
        if cached is None:
            cached = self._fn(n)
            if type(cached) is not Biquaternion:  # term functions in biqz return Biquaternion
                cached = as_biquaternion(cached)
            self._cache[n] = cached
        return cached

    __call__ = term

    def prefix(self, count: int) -> list[Biquaternion]:
        return [self.term(n) for n in range(count)]

    @classmethod
    def constant(cls, value) -> "Sequence":
        c = as_biquaternion(value)
        return cls(lambda n: c, radius_hint=1.0 if c != ZERO else 0.0, name="constant")

    @classmethod
    def geometric(cls, ratio) -> "Sequence":
        """n -> ratio**n, the one unweighted power sequence: it keeps ``ratio``, and its larger
        root magnitude, taken once, guards the power core and is the (sufficient) radius hint."""
        p = as_biquaternion(ratio)
        rho = root_magnitudes(p)[0]
        seq = cls(_values(_power_steps(p, rho)), radius_hint=rho, name="geometric")
        seq.ratio = p
        return seq

    @classmethod
    def from_terms(cls, values, tail=ZERO) -> "Sequence":
        """The listed terms, then ``tail``; radius hint 1.0, or 0.0 for a zero tail, as for a constant."""
        head = [as_biquaternion(v) for v in values]
        rest = as_biquaternion(tail)
        return cls(lambda n: head[n] if n < len(head) else rest,
                   radius_hint=1.0 if rest != ZERO else 0.0, name="from_terms")

    @classmethod
    def delta(cls) -> "Sequence":
        return cls(lambda n: ONE if n == 0 else ZERO, radius_hint=0.0, name="delta")

    def __repr__(self):
        label = self.name or "anonymous"
        return f"Sequence({label}, radius_hint={self.radius_hint})"


def advance(f: Sequence, k: int) -> Sequence:
    """n -> f(n + k): drop the first k terms."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    return Sequence(lambda n: f.term(n + k), radius_hint=f.radius_hint, name="advance")


def delay(f: Sequence, k: int) -> Sequence:
    """n -> f(n - k), zero-padded for n < k."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    return Sequence(
        lambda n: f.term(n - k) if n >= k else ZERO,
        radius_hint=f.radius_hint,
        name="delay",
    )
