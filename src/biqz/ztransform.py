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
from cmath import isfinite
from math import hypot, inf, isinf
from typing import NamedTuple

from .algebra import ONE, Biquaternion, _admit, _hamilton, _result, as_biquaternion, sum_products
from .errors import DivergentSeriesError, NoConvergenceError
from .sequences import Sequence, _stepper

# window length for the geometric-tail ratio test
_RATIO_WINDOW = 8
# a term this large componentwise means the series is growing without bound
_DIVERGENCE_BAIL = 1e100

DEFAULT_EPS = 1e-12
DEFAULT_MAX_TERMS = 4096


class TransformValue(NamedTuple):
    """A truncated transform evaluation.

    ``tail_bound`` bounds the distance to the full series (componentwise, hence
    also in the real gauge) by the geometric tail of the last window of term
    ratios.  It exceeds ``eps`` only for a run that stopped early, at
    ``max_terms`` or an overflow; ``math.inf`` (uncertified) means that run
    had no full window whose largest ratio is below 1.
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
    return geometric_sum(y).real_norm() * y.real_norm() ** n_terms


def transform(
    f: Sequence,
    x,
    eps: float = DEFAULT_EPS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> TransformValue:
    """Evaluate X[f](x) as a truncated series with a certified tail bound.

    Terms are summed until the largest term-ratio over the last
    ``_RATIO_WINDOW`` steps drops below 1 and the implied geometric tail
    bound falls below ``eps``, or until the run stops early (see
    :class:`TransformValue`).  The window records no ratio while every term so
    far is zero, so a leading run of zeros certifies nothing, and an all-zero
    sequence runs to ``max_terms`` and returns 0 uncertified.  Raises
    NoConvergenceError when terms keep growing.  The point is admitted once,
    by ``algebra._admit`` against ``f``'s radius hint: its ZeroDivisorError,
    OutsideROCError and ValueError come in that order, before any term.

    Each step fuses the product f_n * x**-n, the running sum and the next
    power x**-(n+1) over raw complex components, by ``_hamilton`` and
    ``__add__``'s expressions in their order, and builds one Biquaternion
    per result: term counts and tail bounds are bit-identical to the loop of
    Biquaternion operations, and values are up to the sign of exactly-zero
    parts.  A memoized term is read from ``f``'s memo, and ``f.term`` is
    called only for the others.  As in that loop, a term f_n, a product or a
    power x**-n (stepped unchecked: it makes the next product inf or NaN)
    that leaves double range ends the series, and a finite product whose
    size overflows raises NoConvergenceError.

    At a complex point (x**-1 has a zero vector part) x**-n stays a complex
    number: each term is f_n scaled by it, and each power step is one
    complex product.  Elsewhere a scalar term (zero vector part) scales
    x**-n, 4 complex products where the Hamilton product takes 16.
    """
    _check_limits(eps, max_terms)
    return _series(f, _admit(x, f.radius_hint, "radius hint"), eps, max_terms)


def _check_limits(eps: float, max_terms: int) -> None:  # transform's, made before admission
    if not eps > 0:  # a NaN eps would certify any tail
        raise ValueError("eps must be positive")
    if max_terms <= 0:
        raise ValueError("max_terms must be positive")


def _series(f: Sequence, x_inv: Biquaternion, eps: float, max_terms: int) -> TransformValue:
    """:func:`transform`'s series at an admitted point x, given x**-1."""
    # total = total + f_n * x_pow; x_pow = x_pow * x_inv, over components
    first = f.term(0)
    tw, tx, ty, tz = first.w, first.x, first.y, first.z
    prev_size = first.component_norm()
    ratios: deque[float] = deque(maxlen=_RATIO_WINDOW)
    append, window, bail = ratios.append, _RATIO_WINDOW, _DIVERGENCE_BAIL
    iw, ix, iy, iz = x_inv.w, x_inv.x, x_inv.y, x_inv.z
    qw, qx, qy, qz = iw, ix, iy, iz  # x**-n
    # at a complex point only qw is stepped; qx, qy and qz stay unread
    scaled = ix == iy == iz == 0
    memo, term = f._cache.get, f.term
    used = 1

    for n in range(1, max_terms):
        p = memo(n)
        if p is None:
            try:
                p = term(n)
            except (OverflowError, ValueError, NoConvergenceError):
                # f_n itself left double range even though f_n * x**-n may not
                # (a recurrence solution reports that as NoConvergenceError);
                # settle for whatever certification the window supports
                break
        # the term f_n * x**-n
        if scaled:
            aw = p.w * qw
            ax = p.x * qw
            ay = p.y * qw
            az = p.z * qw
        elif p.x == p.y == p.z == 0:
            aw, ax, ay, az = p.w * qw, p.w * qx, p.w * qy, p.w * qz
        else:
            aw, ax, ay, az = _hamilton(p.w, p.x, p.y, p.z, qw, qx, qy, qz)
        size = hypot(aw.real, aw.imag, ax.real, ax.imag, ay.real, ay.imag, az.real, az.imag)
        # also true when size is inf or NaN; only then are the components inspected
        if not size <= bail:
            if not (isfinite(aw) and isfinite(ax) and isfinite(ay) and isfinite(az)):
                break  # f_n * x**-n or x**-n left double range: as for f_n above
            raise NoConvergenceError(f"terms exceed {bail:g} at index {n}")
        # terms are at most _DIVERGENCE_BAIL, below half an ulp of the largest
        # double, so the running sum cannot leave range; _result checks it anyway
        tw = tw + aw  # one store a line: a 4-tuple assignment builds and unpacks a tuple
        tx = tx + ax
        ty = ty + ay
        tz = tz + az
        used = n + 1
        if prev_size == 0.0:
            ratio = inf if size > 0.0 else 0.0
            if ratio or ratios:  # no ratio while every term so far is zero
                append(ratio)
        else:
            ratio = size / prev_size
            append(ratio)
        prev_size = size
        # the window's max is at least this ratio, and the rounded tail
        # size*r/(1-r) does not fall as r grows, so a window can certify only
        # where its newest ratio alone would: skip the scan otherwise
        if ratio < 1.0 and size * ratio / (1.0 - ratio) <= eps and len(ratios) == window:
            r = max(ratios)
            if r < 1.0 and size * r / (1.0 - r) <= eps:
                break  # certified: the window test below returns this tail
        # unchecked: past double range, x**-n makes the next product inf or NaN
        if scaled:
            qw = qw * iw
        else:
            qw, qx, qy, qz = _hamilton(qw, qx, qy, qz, iw, ix, iy, iz)

    total = _result(tw, tx, ty, tz)
    if len(ratios) == window:
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
    a, b = as_biquaternion(c1), as_biquaternion(c2)
    return _combined(lambda n: a * f.term(n) + b * g.term(n), f, g, "linear_left")


def linear_right(f: Sequence, c1, g: Sequence, c2) -> Sequence:
    """n -> f_n*c1 + g_n*c2; its transform is X[f]*c1 + X[g]*c2."""
    a, b = as_biquaternion(c1), as_biquaternion(c2)
    return _combined(lambda n: f.term(n) * a + g.term(n) * b, f, g, "linear_right")


def linear_two_sided(c1, f: Sequence, g: Sequence, c2) -> Sequence:
    """n -> c1*f_n + g_n*c2; its transform is c1*X[f] + X[g]*c2."""
    a, b = as_biquaternion(c1), as_biquaternion(c2)
    return _combined(lambda n: a * f.term(n) + g.term(n) * b, f, g, "linear_two_sided")


def _combined(term, f: Sequence, g: Sequence, name: str) -> Sequence:
    """A sequence built from f and g, whose radius hint is the larger of theirs."""
    hint = None
    if f.radius_hint is not None and g.radius_hint is not None:
        hint = max(f.radius_hint, g.radius_hint)
    return Sequence(term, radius_hint=hint, name=name)


def geometric_scale(f: Sequence, q) -> Sequence:
    """n -> f_n * q**n for invertible q, with q**n and q's radius from ``Sequence.geometric(q)``.

    At points x commuting with q, X of the result equals X[f](q**-1 * x);
    that identity is meaningless at non-commuting points.
    """
    ratio = as_biquaternion(q)
    ratio.inverse()  # raises ZeroDivisorError up front
    powers = Sequence.geometric(ratio)  # read through _fn, uncached: the result memoizes each product
    hint = None if f.radius_hint is None else f.radius_hint * powers.radius_hint
    return Sequence(lambda n: f.term(n) * powers._fn(n), radius_hint=hint, name="geometric_scale")


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
    """Transform of the zero-padded delay n -> f_{n-k} at x: X[f](x) * x**-k, by transform's x**-1."""
    if k <= 0:
        raise ValueError("shift must be positive")
    _check_limits(eps, max_terms)
    y = _admit(x, f.radius_hint, "radius hint")
    return _series(f, y, eps, max_terms).value * y**k


def index_scale_transform(
    f: Sequence, x, eps: float = DEFAULT_EPS, max_terms: int = DEFAULT_MAX_TERMS
) -> Biquaternion:
    """Transform of n -> n*f_n at x, summed as its own series by :func:`transform`.

    At complex x this is -x * d/dx X[f](x), the index-scaling rule; the
    weighted series keeps f's radius hint and its certified tail, and takes
    biquaternion points as well.
    """
    weighted = Sequence(lambda n: f.term(n) * n, radius_hint=f.radius_hint, name="index_scale")
    return transform(weighted, x, eps=eps, max_terms=max_terms).value


def convolve(f: Sequence, g: Sequence) -> Sequence:
    """w_n = sum_{k=0..n} f_{n-k} * g_k, with f-terms multiplying on the left.

    At complex evaluation points the transform of w is X[f]*X[g]; the
    symmetric form sum f_k * g_{n-k} only coincides when the termwise
    products happen to commute.

    For any ``f`` the sum is formed directly, n + 1 products for term n, and
    each term is bit-identical to ``total = f_n*g_0; total = total + f_{n-m}*g_m``.
    The terms f_0..f_n are read in ascending order first, so a stepped ``f``
    is not restarted for each lower index.  When ``f`` is ``Sequence.geometric(K)``
    (its ``ratio`` is K; catalog power rows too), splitting off the m = n
    term leaves K times the sum for n - 1, K on the left as in the direct sum:

        w_n = sum_{m<=n} K**(n-m) * g_m = K * sum_{m<=n-1} K**(n-1-m) * g_m + g_n
            = K * w_{n-1} + g_n,          w_0 = g_0,

    the inverse of the step of :func:`~biqz.recurrence.deconvolve_geometric`.
    The terms are then stepped by :func:`~biqz.sequences._stepper`, one
    product per term, and an overflow raises ValueError at the step where it happens.  The
    recursion rounds differently from the direct sum, so its terms agree with
    it to rounding, not bit for bit, and since it never forms K**n it does not
    fail where K**n alone leaves double range.
    """
    g_term = g.term
    if f.ratio is not None:
        ratio = f.ratio
        term = _stepper(lambda: g_term(0), lambda k, w: ratio * w + g_term(k))
    else:

        def term(n: int) -> Biquaternion:
            fs = f.prefix(n + 1)
            return sum_products((fs[n - m], g_term(m)) for m in range(n + 1))

    return _combined(term, f, g, "convolve")

