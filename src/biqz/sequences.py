"""Lazily evaluated biquaternion sequences f_0, f_1, f_2, ..."""
from __future__ import annotations

from typing import Callable

from .algebra import ONE, ZERO, Biquaternion, as_biquaternion


def stepped(first: Biquaternion, factor: Callable[[int], Biquaternion]):
    """Term function n -> first * factor(1) * factor(2) * ... * factor(n).

    It remembers the last (index, value) it returned and steps forward from
    there by one multiplication per index, restarting from ``first`` for an
    earlier index, so in-order access costs O(1) per term: p**n is reached as
    p**(n-1) * p (powers of p commute) instead of by binary powering.  The
    value at each index is the same whatever the access order.
    """
    last = (0, first)

    def term(n: int) -> Biquaternion:
        nonlocal last
        k, value = last  # one snapshot: concurrent callers can only lose reuse
        if n < k:
            k, value = 0, first
        while k < n:
            k += 1
            value = value * factor(k)
        last = (k, value)
        return value

    return term


class Sequence:
    """A deterministic map from index n >= 0 to a biquaternion.

    Terms are memoized, so repeated evaluation at the same index returns the
    identical value.  Term functions may hold stepping state (:func:`stepped`)
    yet give each index the same value in any order; nothing is locked, so
    threads sharing a sequence may compute a term twice (equal, not identical).
    ``radius_hint`` optionally records an analytically known convergence
    radius for the sequence's Z transform.
    """

    __slots__ = ("_fn", "_cache", "radius_hint", "name")

    def __init__(self, fn, radius_hint: float | None = None, name: str | None = None):
        self._fn = fn
        self._cache: dict[int, Biquaternion] = {}
        self.radius_hint = radius_hint
        self.name = name

    def term(self, n: int) -> Biquaternion:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"sequence index must be a nonnegative integer, got {n!r}")
        cached = self._cache.get(n)
        if cached is None:
            cached = as_biquaternion(self._fn(n))
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
        return cls(stepped(ONE, lambda _: p), name="geometric")

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
