"""Lazily evaluated biquaternion sequences f_0, f_1, f_2, ...

Forward-stepped terms, each reached from the one before, go through one of
two primitives.  Constant-ratio powers p**n, optionally times a scalar weight,
go through :func:`_powers`, which steps raw components by ``_hamilton``.
Every other recursion goes through :func:`_stepper`: the varying factors of
:func:`stepped` and the geometric recursion of ``ztransform.convolve``.
"""
from __future__ import annotations

from cmath import isfinite
from math import inf
from typing import Callable

from .algebra import ONE, ZERO, Biquaternion, _built, _hamilton, _result, as_biquaternion


def _stepper(start: Callable[[], Biquaternion], step: Callable[[int, Biquaternion], Biquaternion]):
    """Term function n -> v_n, where v_0 = start() and v_k = step(k, v_{k-1}).

    It remembers the last (index, value) it returned and steps forward from
    there, restarting from ``start()`` for an earlier index, so in-order
    access costs one step per term and any index is reached by a loop.  The
    value at each index is the same whatever the access order.
    """
    last: tuple[float, Biquaternion | None] = (inf, None)  # any n < inf: the first call starts

    def term(n: int) -> Biquaternion:
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


def _powers(p: Biquaternion, weight: Callable[[int], int] | None = None):
    """Term function n -> p**n (times a scalar weight(n)), one value built per term.

    Bit-identical to ``stepped(ONE, lambda _: p)`` (times ``weight(n)``): the
    components step from ``ONE``'s by ``algebra._hamilton``, checked finite at
    every step, so an overflow raises the same ValueError at the same index.
    (index, components) is one snapshot.
    """
    pw, px, py, pz = p.w, p.x, p.y, p.z
    last = (inf, None, None, None, None)  # any n < inf: the first call starts

    def term(n: int) -> Biquaternion:
        nonlocal last
        k, w, x, y, z = last
        if n < k:
            k, w, x, y, z = 0, ONE.w, ONE.x, ONE.y, ONE.z
        while k < n:
            k += 1
            w, x, y, z = _hamilton(w, x, y, z, pw, px, py, pz)
            if not (isfinite(w) and isfinite(x) and isfinite(y) and isfinite(z)):
                _result(w, x, y, z)  # raises the constructor's ValueError
        last = (k, w, x, y, z)
        if weight is None:
            return _built(w, x, y, z)  # checked at their step
        c = weight(n)
        return _result(w * c, x * c, y * c, z * c)

    return term


class Sequence:
    """A deterministic map from index n >= 0 to a biquaternion.

    Terms are memoized, so repeated evaluation at the same index returns the
    identical value.  Term functions may hold stepping state (:func:`_powers`)
    yet give each index the same value in any order; nothing is locked, so
    threads sharing a sequence may compute a term twice (equal, not identical).
    ``radius_hint`` optionally records an analytically known convergence
    radius for the sequence's Z transform.  ``ratio`` is the p of a sequence
    built by :meth:`geometric`, whose terms are p**n, and ``None`` on every
    other sequence; :func:`~biqz.ztransform.convolve` reads it to step a
    geometric left factor instead of summing products.
    """

    __slots__ = ("_fn", "_cache", "radius_hint", "name", "ratio")

    def __init__(self, fn, radius_hint: float | None = None, name: str | None = None):
        self._fn = fn
        self._cache: dict[int, Biquaternion] = {}
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
        p = as_biquaternion(ratio)
        seq = cls(_powers(p), name="geometric")
        seq.ratio = p
        return seq

    @classmethod
    def from_terms(cls, values, tail=ZERO) -> "Sequence":
        head = [as_biquaternion(v) for v in values]
        rest = as_biquaternion(tail)
        return cls(lambda n: head[n] if n < len(head) else rest, name="from_terms")

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
