"""Right-coefficient linear biquaternion recurrences.

A relation of order M,

    sum_{m=0..M} f_{n+m} * p_m  =  sum over forcing terms of
                                   sum_{k=0..K} g_{n+k} * q_k,

with all coefficients multiplying on the right, is iterated forward exactly
(p_M must be invertible), checked against candidate closed forms, and solved
in the transform domain at complex sample points via the shifting rule
X[f_{.+m}](x) = X[f](x)*x**m - sum_{t<m} f_t * x**(m-t).
The iteration and the relation check step raw complex components by
``_hamilton`` and ``_sum_pieces``, building at most one value per term; the
iteration steps its window of the last M terms through ``sequences._stepper``,
the primitive behind every forward-stepped sequence.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import ZERO, Biquaternion, _admit, _gap, _hamilton, _result, _sum_pieces, as_biquaternion
from .catalog import CatalogEntry
from .errors import NoConvergenceError, ZeroDivisorError
from .sequences import Sequence, _stepper
from .ztransform import DEFAULT_EPS, DEFAULT_MAX_TERMS, _certified, _check_limits, _shift_boundary, roc_estimate


class ForcingTerm:
    """One inhomogeneous contribution sum_{k} g_{n+k} * q_k.

    ``entry`` optionally carries the catalog closed form of g, used for
    transform-domain solves; without it the forcing transform falls back to
    truncated series evaluation.
    """

    def __init__(self, sequence: Sequence, coeffs, entry: CatalogEntry | None = None):
        self.sequence = sequence
        self.coeffs: list[Biquaternion] = [as_biquaternion(c) for c in coeffs]
        self.entry = entry
        if not self.coeffs:
            raise ValueError("forcing term needs at least one coefficient")


class LinearRecurrence:
    """An order-M recurrence with right-side coefficients p_0..p_M."""

    def __init__(self, coeffs, initial, forcing=()):
        self.coeffs = [as_biquaternion(c) for c in coeffs]
        self.order = len(self.coeffs) - 1
        if self.order < 1:
            raise ValueError("a recurrence needs at least two coefficients")
        if not self.coeffs[-1].is_invertible():
            raise ZeroDivisorError("leading coefficient is a zero divisor; cannot iterate")
        self.initial = [as_biquaternion(v) for v in initial]
        if len(self.initial) != self.order:
            raise ValueError(
                f"order {self.order} needs exactly {self.order} initial values, "
                f"got {len(self.initial)}"
            )
        self.forcing = list(forcing)
        self._solution: Sequence | None = None
        self._radius: float | None = None  # transform_value's solve radius, surveyed once

    def _forcing(self, n: int) -> list[tuple[Biquaternion, Biquaternion]]:
        """The (g_{n+k}, q_k) pairs of the relation's right side, in order."""
        return [(ft.sequence.term(n + k), coeff)
                for ft in self.forcing for k, coeff in enumerate(ft.coeffs)]

    def rhs(self, n: int) -> Biquaternion:
        return _result(*_sum_pieces(self._forcing(n))[0])

    def solution(self) -> Sequence:
        """The forward iteration as a lazily extended sequence: each term is
        (rhs - sum_{m<M} f_{base+m} * p_m) * p_M**-1, built once from raw
        components bit-identical to those Biquaternion operations up to the
        sign of exactly-zero parts, as rhs + f_{base+m} * (-p_m).  The window
        (f_k, ..., f_{k+M-1}) steps through ``sequences._stepper`` from the
        initial values, and a term n >= M is the last entry of window n-M+1."""
        if self._solution is None:
            lead_inv = self.coeffs[-1].inverse()
            iw, ix, iy, iz = lead_inv.w, lead_inv.x, lead_inv.y, lead_inv.z
            initial, order, negated = tuple(self.initial), self.order, [-c for c in self.coeffs]

            def step(k: int, window: tuple[Biquaternion, ...]) -> tuple[Biquaternion, ...]:
                try:
                    acc, _ = _sum_pieces(self._forcing(k - 1))
                    (w, x, y, z), _ = _sum_pieces(zip(window, negated), acc)
                    return window[1:] + (_result(*_hamilton(w, x, y, z, iw, ix, iy, iz)),)
                except ValueError as exc:  # a component left double range
                    raise NoConvergenceError(
                        f"recurrence solution leaves double range at index {k - 1 + order}"
                    ) from exc

            windows = _stepper(lambda: initial, step)
            self._solution = Sequence(
                lambda n: initial[n] if n < order else windows(n - order + 1)[-1], name="recurrence")
        return self._solution

    def identity_gap(self, f: Sequence, n: int) -> tuple[float, float]:
        """(componentwise residual, scale) of the relation at base index n.

        The scale is max(1, largest component norm among the identity's
        terms), so relative errors stay meaningful for geometrically growing
        solutions, including zero-divisor pieces whose real gauge is 0.  A
        piece that leaves double range makes the residual inf or NaN.
        """
        lhs, scale = _sum_pieces(zip(map(f.term, range(n, n + len(self.coeffs))), self.coeffs), scale=1.0)
        rhs, scale = _sum_pieces(self._forcing(n), scale=scale)
        dw, dx, dy, dz = map(complex.__sub__, lhs, rhs)
        return math.hypot(dw.real, dw.imag, dx.real, dx.imag, dy.real, dy.imag, dz.real, dz.imag), scale


def iterate(rec: LinearRecurrence, n_terms: int) -> Sequence:
    """Materialize the first n_terms of the forward iteration."""
    if n_terms <= 0:
        raise ValueError("n_terms must be positive")
    seq = rec.solution()
    seq.prefix(n_terms)
    return seq


def transform_value(
    rec: LinearRecurrence,
    x,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> Biquaternion:
    """X[f](x) at a complex point, solved in the transform domain.

    Applying the shifting rule to every term turns the relation into
    F(x) * P(x) = L(x) + G(x), with P(x) = sum p_m * x**m (one biquaternion,
    as x is complex), L(x) the shifting-rule boundary of the initial values
    under the p_m, and G(x) the sum over forcing terms of X[g](x) * Q(x),
    Q(x) = sum q_k * x**k, less the boundary of g under the q_k; the result is
    (L(x) + G(x)) * P(x)**-1.  After ``transform``'s eps/max_terms checks, x is coerced as
    ``as_biquaternion(x).to_complex()`` and admitted once, against the largest of
    roc_estimate(solution, 64) and each X[g]'s radius (entry roc_radius, else radius
    hint), and every X[g] is read at that one x**-1.  Each power x**m is then taken once;
    one past double range raises the constructor's ValueError.  A series X[g] (no entry)
    whose tail bound is not within eps raises NoConvergenceError.
    """
    _check_limits(eps, max_terms)
    x = as_biquaternion(x).to_complex()
    if rec._radius is None:
        radii = [ft.entry.roc_radius if ft.entry is not None else ft.sequence.radius_hint for ft in rec.forcing]
        rec._radius = max([roc_estimate(rec.solution(), 64), *(r for r in radii if r is not None)])
    y = _admit(x, rec._radius, "solve radius")
    try:  # each power of x once; where complex ** raises OverflowError, IEEE arithmetic gives inf
        powers = [x**m for m in range(max(map(len, [rec.coeffs, *(ft.coeffs for ft in rec.forcing)])))]
    except OverflowError:
        raise ValueError(f"non-finite biquaternion component: a power of x = {x} leaves double range") from None

    poly = sum([coeff * powers[m] for m, coeff in enumerate(rec.coeffs)], ZERO)
    if not poly.is_invertible():
        raise ZeroDivisorError(f"coefficient polynomial is not invertible at x = {x}")

    boundary = _shift_boundary(rec.initial.__getitem__, enumerate(rec.coeffs), powers)
    for ft in rec.forcing:
        if ft.entry is not None:
            value = ft.entry._eval_fn(y)
        else:
            value = _certified(ft.sequence, y, eps, max_terms, "forcing series")
        shifted = sum([value * powers[k] * coeff for k, coeff in enumerate(ft.coeffs)], ZERO)
        boundary = boundary + (shifted - _shift_boundary(ft.sequence.term, enumerate(ft.coeffs), powers))
    return boundary * poly.inverse()


class VerificationReport(NamedTuple):
    """Outcome of checking a candidate closed form against a recurrence."""

    max_abs_error: float
    max_rel_error: float
    first_failure_index: int | None
    n_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.first_failure_index is None


def verify_closed_form(
    rec: LinearRecurrence,
    candidate: Sequence,
    n_terms: int = 40,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check a candidate against the initial values and the relation itself.

    Failures are reported, never raised.  Errors are componentwise, and
    relative errors are normalized by max(1, the largest component norm among
    the identity's terms, or of the initial value).  A row fails unless its
    relative error is <= tol; a NaN one (overflow over overflow) counts as inf,
    and so does a nonzero gap over an overflowed scale.  So a relation whose
    pieces leave double range fails its row, and a NaN gap reads inf.
    """
    if n_terms <= rec.order:
        raise ValueError("n_terms must exceed the recurrence order")
    rows = [(t, _gap(candidate.term(t), v), v.component_norm())
            for t, v in enumerate(rec.initial)]
    rows += [(n, *rec.identity_gap(candidate, n)) for n in range(n_terms - rec.order + 1)]
    rels = [_relative(gap, scale) for _, gap, scale in rows]
    first_fail = next((row[0] for row, rel in zip(rows, rels) if not rel <= tol), None)
    max_abs = max(math.inf if math.isnan(gap) else gap for _, gap, _ in rows)
    return VerificationReport(max_abs, max(rels), first_fail, len(rows), tol)


def _relative(gap: float, size: float) -> float:
    """gap / max(1, size); NaN, an overflowed gap over an overflowed size,
    reads inf, and so does a nonzero gap over an overflowed size, whose
    quotient 0 would hide a gap of any finite length."""
    rel = gap / max(1.0, size)
    return math.inf if math.isnan(rel) or (gap > 0.0 and math.isinf(size)) else rel


def deconvolve_geometric(target: Sequence, kernel_param, n_terms: int = 0) -> Sequence:
    """Solve sum_{n=0..t} kernel**n * f(t-n) = target(t) for f, in O(1) per term.

    Subtracting kernel times the equation at t-1, with kernel powers on the
    left,

        kernel * target(t-1) = sum_{n=0..t-1} kernel**(n+1) * f(t-1-n)
                             = sum_{n=1..t} kernel**n * f(t-n),

    from the equation at t leaves only its n = 0 term, so
    f(t) = target(t) - kernel * target(t-1) for t >= 1 and f(0) = target(0).
    Each term costs one product and reads two target terms, so access is
    random.  ``n_terms`` optionally materializes a prefix up front.
    """
    kernel = as_biquaternion(kernel_param)

    def term(t: int) -> Biquaternion:
        if t == 0:
            return target.term(0)
        return target.term(t) - kernel * target.term(t - 1)

    seq = Sequence(term, name="deconvolve_geometric")
    if n_terms > 0:
        seq.prefix(n_terms)
    return seq
