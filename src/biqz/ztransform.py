"""The biquaternion Z transform and its algebra.

X[f](x) = sum_{n>=0} f_n * x**(-n), with sequence terms multiplying powers on
the left throughout; in a noncommutative ring the side is part of the
definition.  Evaluation truncates the series once a sliding-window ratio test
certifies a geometric tail, and reports that tail bound.

Convergence bookkeeping uses ``component_norm`` rather than ``real_norm``:
the real gauge is multiplicative but vanishes on zero divisors, so it is
blind to genuinely growing sequences such as the powers of 1 + 1Ik (whose
components double each step while their real gauge stays 0).  Since
real_norm <= component_norm pointwise, a componentwise tail bound is also a
bound in the real gauge.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, isinf

from .algebra import ONE, Biquaternion, as_biquaternion, root_magnitudes
from .errors import DivergentSeriesError, NoConvergenceError, OutsideROCError
from .sequences import Sequence, advance, delay, stepped

# window length for the geometric-tail ratio test
_RATIO_WINDOW = 8
# a term this large componentwise means the series is growing without bound
_DIVERGENCE_BAIL = 1e100

DEFAULT_EPS = 1e-12
DEFAULT_MAX_TERMS = 4096


@dataclass(frozen=True)
class TransformValue:
    """A truncated transform evaluation.

    ``tail_bound`` is a certified bound (componentwise, hence also in the
    real gauge) on the distance to the full series when finite; ``math.inf``
    means the evaluation hit ``max_terms`` without certifying a tail.
    """

    value: Biquaternion
    terms_used: int
    tail_bound: float

    @property
    def certified(self) -> bool:
        return not isinf(self.tail_bound)


def geometric_sum(y) -> Biquaternion:
    """sum_{n>=0} y**n = (1 - y)**-1, requiring real_norm(y) < 1."""
    y = as_biquaternion(y)
    if y.real_norm() >= 1.0:
        raise DivergentSeriesError(f"real norm {y.real_norm()} >= 1")
    return (ONE - y).inverse()


def geometric_remainder(y, n_terms: int) -> float:
    """Real-gauge size of the tail after n_terms terms of the geometric series.

    This is an equality, not an estimate:
    real_norm(S - S_N) == real_norm((1-y)**-1) * real_norm(y)**N.
    """
    y = as_biquaternion(y)
    if n_terms <= 0:
        raise ValueError("n_terms must be positive")
    if y.real_norm() >= 1.0:
        raise DivergentSeriesError(f"real norm {y.real_norm()} >= 1")
    return (ONE - y).inverse().real_norm() * y.real_norm() ** n_terms


def transform(
    f: Sequence,
    x,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> TransformValue:
    """Evaluate X[f](x) as a truncated series with a certified tail bound.

    Terms are summed until the largest term-ratio over the last
    ``_RATIO_WINDOW`` steps drops below 1 and the implied geometric tail
    bound falls below ``eps`` (or ``max_terms`` is reached; the result is
    then uncertified, with ``tail_bound == inf``).  Raises
    NoConvergenceError when terms keep growing, and OutsideROCError when a
    radius hint on ``f`` already rules the point out: the smaller root
    magnitude of x, which sets how slowly x**-n decays, is not above it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_terms <= 0:
        raise ValueError("max_terms must be positive")
    x = as_biquaternion(x)
    x_inv = x.inverse()  # ZeroDivisorError for non-invertible points
    if f.radius_hint is not None and root_magnitudes(x)[1] <= f.radius_hint:
        raise OutsideROCError(
            f"smaller root magnitude {root_magnitudes(x)[1]} of x <= radius hint {f.radius_hint}"
        )

    total = f.term(0)
    prev_size = total.component_norm()
    ratios: deque[float] = deque(maxlen=_RATIO_WINDOW)
    x_pow = x_inv
    used = 1

    for n in range(1, max_terms):
        try:
            term = f.term(n) * x_pow
        except (OverflowError, ValueError):
            # f_n itself left double range even though f_n * x**-n may not;
            # settle for whatever certification the window supports
            break
        size = term.component_norm()
        if size > _DIVERGENCE_BAIL:
            raise NoConvergenceError(f"terms exceed {_DIVERGENCE_BAIL:g} at index {n}")
        total = total + term
        used = n + 1
        if prev_size == 0.0:
            ratios.append(inf if size > 0.0 else 0.0)
        else:
            ratios.append(size / prev_size)
        prev_size = size
        if len(ratios) == _RATIO_WINDOW:
            r = max(ratios)
            if r < 1.0:
                tail = size * r / (1.0 - r)
                if tail <= eps:
                    return TransformValue(total, n + 1, tail)
        x_pow = x_pow * x_inv

    if len(ratios) == _RATIO_WINDOW:
        r = max(ratios)
        if r < 1.0:
            return TransformValue(total, used, prev_size * r / (1.0 - r))
        if not isinf(r) and r > 1.0:
            raise NoConvergenceError(f"terms still growing after {used} terms")
    return TransformValue(total, used, inf)


def roc_estimate(f: Sequence, n_max: int = 64) -> float:
    """Growth-based estimate of the convergence radius of X[f].

    Takes the largest componentwise n-th root over indices in
    [n_max/2, n_max].  The componentwise gauge is deliberate: for
    zero-divisor ratios (e.g. powers of 1 + 1Ik) the real gauge of every
    term is 0 even though the components double each step.
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    best = 0.0
    for n in range(n_max // 2, n_max + 1):
        size = f.term(n).component_norm()
        if size > 0.0:
            best = max(best, size ** (1.0 / n))
    return best


# -- transform algebra -------------------------------------------------------


def linear_left(c1, f: Sequence, c2, g: Sequence) -> Sequence:
    """n -> c1*f_n + c2*g_n; its transform is c1*X[f] + c2*X[g]."""
    a = as_biquaternion(c1)
    b = as_biquaternion(c2)
    return Sequence(
        lambda n: a * f.term(n) + b * g.term(n),
        radius_hint=_merged_hint(f, g),
        name="linear_left",
    )


def linear_right(f: Sequence, c1, g: Sequence, c2) -> Sequence:
    """n -> f_n*c1 + g_n*c2; its transform is X[f]*c1 + X[g]*c2."""
    a = as_biquaternion(c1)
    b = as_biquaternion(c2)
    return Sequence(
        lambda n: f.term(n) * a + g.term(n) * b,
        radius_hint=_merged_hint(f, g),
        name="linear_right",
    )


def linear_two_sided(c1, f: Sequence, g: Sequence, c2) -> Sequence:
    """n -> c1*f_n + g_n*c2; its transform is c1*X[f] + X[g]*c2."""
    a = as_biquaternion(c1)
    b = as_biquaternion(c2)
    return Sequence(
        lambda n: a * f.term(n) + g.term(n) * b,
        radius_hint=_merged_hint(f, g),
        name="linear_two_sided",
    )


def _merged_hint(f: Sequence, g: Sequence) -> float | None:
    if f.radius_hint is None or g.radius_hint is None:
        return None
    return max(f.radius_hint, g.radius_hint)


def geometric_scale(f: Sequence, q) -> Sequence:
    """n -> f_n * q**n for invertible q.

    At points x commuting with q, X of the result equals X[f](q**-1 * x);
    that identity is meaningless at non-commuting points.
    """
    ratio = as_biquaternion(q)
    ratio.inverse()  # raises ZeroDivisorError up front
    hint = None
    if f.radius_hint is not None:
        hint = f.radius_hint * ratio.real_norm()
    powers = stepped(ONE, lambda _: ratio)
    return Sequence(lambda n: f.term(n) * powers(n), radius_hint=hint, name="geometric_scale")


def advance_transform(
    f: Sequence, k: int, x, eps: float = DEFAULT_EPS, max_terms: int = DEFAULT_MAX_TERMS
) -> Biquaternion:
    """Transform of n -> f_{n+k} at x: X[f](x)*x**k - sum_{n<k} f_n * x**(k-n).

    All powers of x multiply on the right.  Equals a direct series evaluation
    of the shifted sequence.
    """
    if k <= 0:
        raise ValueError("shift must be positive")
    x = as_biquaternion(x)
    base = transform(f, x, eps=eps, max_terms=max_terms).value
    out = base * x**k
    for n in range(k):
        out = out - f.term(n) * x ** (k - n)
    return out


def delay_transform(
    f: Sequence, k: int, x, eps: float = DEFAULT_EPS, max_terms: int = DEFAULT_MAX_TERMS
) -> Biquaternion:
    """Transform of the zero-padded delay n -> f_{n-k} at x: X[f](x) * x**-k."""
    if k <= 0:
        raise ValueError("shift must be positive")
    x = as_biquaternion(x)
    base = transform(f, x, eps=eps, max_terms=max_terms).value
    return base * x.inverse() ** k


def index_scale_transform(
    f: Sequence,
    x,
    h: float | None = None,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> Biquaternion:
    """Transform of n -> n*f_n at complex x, via -x * d/dx X[f](x).

    The derivative is a central difference along the real axis with step
    ``h`` (default 1e-5 * max(1, |x|)), so the result carries an O(h**2)
    discretization error on top of the series tolerance.
    """
    if isinstance(x, Biquaternion):
        x = x.to_complex()
    x = complex(x)
    if h is None:
        h = 1e-5 * max(1.0, abs(x))
    plus = transform(f, x + h, eps=eps, max_terms=max_terms).value
    minus = transform(f, x - h, eps=eps, max_terms=max_terms).value
    return (plus - minus) * (-x / (2.0 * h))


def convolve(f: Sequence, g: Sequence) -> Sequence:
    """w_n = sum_{k=0..n} f_{n-k} * g_k, with f-terms multiplying on the left.

    At complex evaluation points the transform of w is X[f]*X[g]; the
    symmetric form sum f_k * g_{n-k} only coincides when the termwise
    products happen to commute.
    """

    def term(n: int) -> Biquaternion:
        total = f.term(n) * g.term(0)
        for m in range(1, n + 1):
            total = total + f.term(n - m) * g.term(m)
        return total

    return Sequence(term, radius_hint=_merged_hint(f, g), name="convolve")


__all__ = [
    "TransformValue",
    "geometric_sum",
    "geometric_remainder",
    "transform",
    "roc_estimate",
    "linear_left",
    "linear_right",
    "linear_two_sided",
    "geometric_scale",
    "advance_transform",
    "delay_transform",
    "index_scale_transform",
    "convolve",
    "advance",
    "delay",
]
