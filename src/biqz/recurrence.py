"""Right-coefficient linear biquaternion recurrences.

A relation of order M,

    sum_{m=0..M} f_{n+m} * p_m  =  sum over forcing terms of
                                   sum_{k=0..K} g_{n+k} * q_k,

with all coefficients multiplying on the right, is iterated forward exactly
(p_M must be invertible), checked against candidate closed forms, and solved
in the transform domain at complex sample points via the shifting rule
X[f_{.+m}](x) = X[f](x)*x**m - sum_{t<m} f_t * x**(m-t).
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import ZERO, Biquaternion, as_biquaternion
from .catalog import CatalogEntry
from .errors import NoConvergenceError, OutsideROCError, ZeroDivisorError
from .sequences import Sequence
from .ztransform import DEFAULT_EPS, DEFAULT_MAX_TERMS, roc_estimate, transform


@dataclass
class ForcingTerm:
    """One inhomogeneous contribution sum_{k} g_{n+k} * q_k.

    ``entry`` optionally carries the catalog closed form of g, used for
    transform-domain solves; without it the forcing transform falls back to
    truncated series evaluation.
    """

    sequence: Sequence
    coeffs: list[Biquaternion]
    entry: CatalogEntry | None = None

    def __post_init__(self):
        self.coeffs = [as_biquaternion(c) for c in self.coeffs]
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

    def rhs(self, n: int) -> Biquaternion:
        total = ZERO
        for ft in self.forcing:
            for k, coeff in enumerate(ft.coeffs):
                total = total + ft.sequence.term(n + k) * coeff
        return total

    def solution(self) -> Sequence:
        """The forward iteration as a lazily extended sequence."""
        if self._solution is None:
            lead_inv = self.coeffs[-1].inverse()
            values = list(self.initial)

            def term(n: int) -> Biquaternion:
                while len(values) <= n:
                    base = len(values) - self.order
                    try:
                        acc = self.rhs(base)
                        for m in range(self.order):
                            acc = acc - values[base + m] * self.coeffs[m]
                        values.append(acc * lead_inv)
                    except ValueError as exc:  # a component left double range
                        raise NoConvergenceError(
                            f"recurrence solution leaves double range at index {len(values)}"
                        ) from exc
                return values[n]

            self._solution = Sequence(term, name="recurrence")
        return self._solution

    def identity_gap(self, f: Sequence, n: int) -> tuple[float, float]:
        """(componentwise residual, scale) of the relation at base index n.

        The scale is max(1, largest component norm among the identity's
        terms), so relative errors stay meaningful for geometrically growing
        solutions, including zero-divisor pieces whose real gauge is 0.
        """
        lhs = ZERO
        scale = 1.0
        for m, coeff in enumerate(self.coeffs):
            piece = f.term(n + m) * coeff
            scale = max(scale, piece.component_norm())
            lhs = lhs + piece
        rhs = ZERO
        for ft in self.forcing:
            for k, coeff in enumerate(ft.coeffs):
                piece = ft.sequence.term(n + k) * coeff
                scale = max(scale, piece.component_norm())
                rhs = rhs + piece
        return (lhs - rhs).component_norm(), scale


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
    F(x) * P(x) = B(x) with P(x) = sum p_m * x**m (a single biquaternion
    because x is complex) and B(x) collecting initial-value boundary terms
    plus forcing transforms; the result is B(x) * P(x)**-1.
    """
    if isinstance(x, Biquaternion):
        x = x.to_complex()
    x = complex(x)
    sigma = roc_estimate(rec.solution(), 64)
    if abs(x) <= sigma:
        raise OutsideROCError(f"|x| = {abs(x)} is not above the estimated radius {sigma}")

    poly = ZERO
    for m, coeff in enumerate(rec.coeffs):
        poly = poly + coeff * x**m
    if not poly.is_invertible():
        raise ZeroDivisorError(f"coefficient polynomial is not invertible at x = {x}")

    boundary = ZERO
    for m in range(1, rec.order + 1):
        for t in range(m):
            boundary = boundary + rec.initial[t] * x ** (m - t) * rec.coeffs[m]

    for ft in rec.forcing:
        if ft.entry is not None:
            value = ft.entry.eval(x)
        else:
            value = transform(ft.sequence, x, eps=eps, max_terms=max_terms).value
        shifted = ZERO
        for k, coeff in enumerate(ft.coeffs):
            shifted = shifted + value * x**k * coeff
            for t in range(k):
                shifted = shifted - ft.sequence.term(t) * x ** (k - t) * coeff
        boundary = boundary + shifted

    return boundary * poly.inverse()


@dataclass(frozen=True)
class VerificationReport:
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
    the identity's terms, or of the initial value).
    """
    if n_terms <= rec.order:
        raise ValueError("n_terms must exceed the recurrence order")
    max_abs = 0.0
    max_rel = 0.0
    first_fail: int | None = None
    checked = 0

    for t in range(rec.order):
        gap = (candidate.term(t) - rec.initial[t]).component_norm()
        rel = gap / max(1.0, rec.initial[t].component_norm())
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, rel)
        if rel > tol and first_fail is None:
            first_fail = t
        checked += 1

    for n in range(n_terms - rec.order + 1):
        gap, scale = rec.identity_gap(candidate, n)
        rel = gap / scale
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, rel)
        if rel > tol and first_fail is None:
            first_fail = n
        checked += 1

    return VerificationReport(max_abs, max_rel, first_fail, checked, tol)


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
