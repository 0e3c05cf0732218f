"""Independent oracles and samplers shared by the test modules.

The oracles deliberately avoid the library's structured product/closed-form
code paths: multiplication is expanded over the 16 basis products, and the
transcendental functions are summed as raw power series.
"""
from __future__ import annotations

import cmath
import math
import random

from biqz import Biquaternion, Sequence, as_biquaternion
from biqz.algebra import root_magnitudes as library_root_magnitudes
from biqz.sequences import _power_steps, _values

# basis multiplication table: (a, b) -> (result_axis, sign), axes 0=1,1=i,2=j,3=k
_BASIS = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def brute_mul(p: Biquaternion, q: Biquaternion) -> Biquaternion:
    """16-term basis expansion of the Hamilton product; I commutes throughout."""
    pc = (p.w, p.x, p.y, p.z)
    qc = (q.w, q.x, q.y, q.z)
    out = [0j, 0j, 0j, 0j]
    for a in range(4):
        for b in range(4):
            axis, sign = _BASIS[(a, b)]
            out[axis] += sign * pc[a] * qc[b]
    return Biquaternion(*out)


def literal_mul(p: Biquaternion, q: Biquaternion) -> Biquaternion:
    """The Hamilton product written out in the library's operand order, kept
    here as a literal copy so a reordered sum in the library shows as a
    changed bit, which the 16-term expansion above does not pin."""
    return Biquaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y + p.y * q.w + p.z * q.x - p.x * q.z,
        p.w * q.z + p.z * q.w + p.x * q.y - p.y * q.x,
    )


def roots_apart(p: Biquaternion) -> bool:
    """Whether p's roots p0 +- I*vec_abs(p) lie at least rho/8 apart, rho the
    larger root magnitude (> 0): the ratios whose powers the library steps by
    the three-term recurrence instead of the Hamilton product."""
    rho = root_magnitudes(p)[0]
    return rho > 0.0 and 2.0 * abs(p.vec_abs()) >= rho / 8


def literal_three_term_powers(p: Biquaternion):
    """Term function n -> p**n with p**1 = 1 * p and each later power
    2*p0 * p**k - cns(p) * p**(k-1), written out in the library's operand order
    as a literal copy, so a reordered step in the library shows as a changed
    bit.  Every index is reached from the in-order list, whatever the access
    order."""
    a, b = 2.0 * p.w, p.complex_norm_sq()
    values = [Biquaternion(1.0)]

    def term(n: int) -> Biquaternion:
        while len(values) <= n:
            if len(values) == 1:
                values.append(literal_mul(values[0], p))
                continue
            c, v = values[-1], values[-2]
            values.append(Biquaternion(
                a * c.w - b * v.w,
                a * c.x - b * v.x,
                a * c.y - b * v.y,
                a * c.z - b * v.z,
            ))
        return values[n]

    return term


def _powers(p: Biquaternion, weight=None):
    """The library's power core read as values, n -> p**n (times weight(n))."""
    return _values(_power_steps(p, library_root_magnitudes(p)[0]), weight)


def series_exp(q, terms: int = 40) -> Biquaternion:
    """sum_{n<terms} q**n / n!, accumulated term by term."""
    q = as_biquaternion(q)
    total = Biquaternion(1.0)
    term = Biquaternion(1.0)
    for n in range(1, terms):
        term = term * q / n
        total = total + term
    return total


def series_cos(q, terms: int = 40) -> Biquaternion:
    """sum_m (-1)**m q**(2m) / (2m)! with `terms` summands."""
    q = as_biquaternion(q)
    q2 = q * q
    total = Biquaternion(1.0)
    term = Biquaternion(1.0)
    for m in range(1, terms):
        term = term * q2 * (-1.0 / ((2 * m - 1) * (2 * m)))
        total = total + term
    return total


def series_sin(q, terms: int = 40) -> Biquaternion:
    """sum_m (-1)**m q**(2m+1) / (2m+1)! with `terms` summands."""
    q = as_biquaternion(q)
    q2 = q * q
    total = q
    term = q
    for m in range(1, terms):
        term = term * q2 * (-1.0 / ((2 * m) * (2 * m + 1)))
        total = total + term
    return total


def partial_transform(f: Sequence, x, n_terms: int) -> Biquaternion:
    """Direct partial sum sum_{n<n_terms} f_n * x**-n, no stopping logic."""
    x = as_biquaternion(x)
    x_inv = x.inverse()
    total = f.term(0)
    x_pow = x_inv
    for n in range(1, n_terms):
        total = total + f.term(n) * x_pow
        x_pow = x_pow * x_inv
    return total


def reference_transform(f: Sequence, x, eps: float = 1e-12, max_terms: int = 4096):
    """``ztransform.transform`` as an unfused loop of Biquaternion operations.

    One product, one sum and one power step per term, each a checked value,
    with ``transform``'s stopping rules.  The fused loop in the library must
    reproduce its term count, tail bound and exceptions bit for bit, and its
    value up to the sign of exactly-zero parts (see :func:`unsigned_zeros`).
    """
    from collections import deque

    from biqz import NoConvergenceError, OutsideROCError, TransformValue
    from biqz.algebra import root_magnitudes as library_root_magnitudes
    from biqz.ztransform import _DIVERGENCE_BAIL, _RATIO_WINDOW

    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_terms <= 0:
        raise ValueError("max_terms must be positive")
    x = as_biquaternion(x)
    x_inv = x.inverse()
    if f.radius_hint is not None and library_root_magnitudes(x)[1] <= f.radius_hint:
        raise OutsideROCError(
            f"smaller root magnitude {library_root_magnitudes(x)[1]} of x <= radius hint {f.radius_hint}"
        )

    total = f.term(0)
    prev_size = total.component_norm()
    ratios = deque(maxlen=_RATIO_WINDOW)
    x_pow = x_inv
    used = 1

    for n in range(1, max_terms):
        try:
            term = f.term(n) * x_pow
        except (OverflowError, ValueError, NoConvergenceError):
            break
        size = term.component_norm()
        if size > _DIVERGENCE_BAIL:
            raise NoConvergenceError(f"terms exceed {_DIVERGENCE_BAIL:g} at index {n}")
        total = total + term
        used = n + 1
        if prev_size == 0.0:
            if size > 0.0 or ratios:  # no ratio while every term so far is zero
                ratios.append(math.inf if size > 0.0 else 0.0)
        else:
            ratios.append(size / prev_size)
        prev_size = size
        if len(ratios) == _RATIO_WINDOW:
            r = max(ratios)
            if r < 1.0:
                tail = size * r / (1.0 - r)
                if tail <= eps:
                    return TransformValue(total, n + 1, tail)
        try:
            x_pow = x_pow * x_inv
        except ValueError:
            break  # x**-(n+1) left double range: the series ends as for a term

    if len(ratios) == _RATIO_WINDOW:
        r = max(ratios)
        if r < 1.0:
            return TransformValue(total, used, prev_size * r / (1.0 - r))
        if not math.isinf(r) and r > 1.0:
            raise NoConvergenceError(f"terms still growing after {used} terms")
    return TransformValue(total, used, math.inf)


def unsigned_zeros(outcome: tuple) -> tuple:
    """A ("value", component reprs, ...) outcome with every zero part unsigned:
    -0.0 + 0.0 is 0.0, and a nonzero part keeps every bit.  Other outcomes pass."""
    if outcome[0] != "value":
        return outcome
    return ("value", tuple(repr(complex(r) + 0j) for r in outcome[1]), *outcome[2:])


def reference_solution(rec) -> Sequence:
    """``LinearRecurrence.solution`` as an unfused loop of Biquaternion operations.

    Each new term is rhs - f_base * p_0 - ... - f_{base+M-1} * p_{M-1}, times
    p_M**-1, every step a checked value.  The fused step in the library must
    reproduce its terms and its NoConvergenceError bit for bit.
    """
    from biqz import NoConvergenceError

    lead_inv = rec.coeffs[-1].inverse()
    values = list(rec.initial)

    def term(n: int) -> Biquaternion:
        while len(values) <= n:
            base = len(values) - rec.order
            try:
                acc = reference_rhs(rec, base)
                for m in range(rec.order):
                    acc = acc - values[base + m] * rec.coeffs[m]
                values.append(acc * lead_inv)
            except ValueError as exc:
                raise NoConvergenceError(
                    f"recurrence solution leaves double range at index {len(values)}"
                ) from exc
        return values[n]

    return Sequence(term, name="recurrence")


def _reference_forcing_pieces(rec, n: int) -> list[Biquaternion]:
    return [ft.sequence.term(n + k) * coeff
            for ft in rec.forcing for k, coeff in enumerate(ft.coeffs)]


def reference_rhs(rec, n: int) -> Biquaternion:
    """``LinearRecurrence.rhs`` as a Biquaternion sum of products from ZERO."""
    return sum(_reference_forcing_pieces(rec, n), Biquaternion())


def reference_identity_gap(rec, f: Sequence, n: int) -> tuple[float, float]:
    """``LinearRecurrence.identity_gap`` over Biquaternion products and sums;
    a piece that leaves double range raises the constructor's ValueError."""
    lhs = [f.term(n + m) * coeff for m, coeff in enumerate(rec.coeffs)]
    rhs = _reference_forcing_pieces(rec, n)
    scale = max(1.0, *map(Biquaternion.component_norm, lhs + rhs))
    return (sum(lhs, Biquaternion()) - sum(rhs, Biquaternion())).component_norm(), scale


def comp_dist(a, b) -> float:
    return (as_biquaternion(a) - as_biquaternion(b)).component_norm()


def rel_err(got, want) -> float:
    want = as_biquaternion(want)
    return comp_dist(got, want) / max(1.0, want.component_norm())


def rand_biquat(rng: random.Random, scale: float = 1.0) -> Biquaternion:
    return Biquaternion(
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
    )


def root_magnitudes(q: Biquaternion) -> tuple[float, float]:
    """(larger, smaller) |root| of z**2 - 2*q0*z + cns(q); the componentwise
    growth rates of the powers of q, whose geometric mean is real_norm(q)."""
    s = cmath.sqrt(q.w * q.w - q.complex_norm_sq())
    a, b = abs(q.w + s), abs(q.w - s)
    return max(a, b), min(a, b)


def rand_conditioned(
    rng: random.Random,
    scale: float = 1.0,
    max_root_ratio: float = 3.0,
    min_cns_frac: float = 0.05,
) -> Biquaternion:
    """A random biquaternion kept away from the zero-divisor variety.

    Near that variety the real gauge of a value sits far below its component
    size and double precision cannot resolve real-gauge identities, so
    samplers for gauge-based checks bound the root asymmetry.
    """
    while True:
        q = rand_biquat(rng, scale)
        size_sq = q.component_norm() ** 2
        if size_sq < 0.1 * scale * scale:
            continue
        if abs(q.complex_norm_sq()) < min_cns_frac * size_sq:
            continue
        big, small = root_magnitudes(q)
        if small == 0.0 or big / small > max_root_ratio:
            continue
        return q


def rand_complex_shell(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def worked_examples():
    """The four worked linear relations and their closed-form solutions.

    Note the second relation: its widely-quoted form carries a sign error on
    the first-shift coefficient; with (Ij)**2 == +1 the stated solution
    (Ij)**n forces f(n+2) = 2 f(n) - f(n+1)(Ij), which is what this encodes.
    """
    from biqz import ForcingTerm, LinearRecurrence, ONE, Sequence
    import biqz.catalog as cat
    from biqz.algebra import i, j, k

    I = 1j
    examples = []

    rec1 = LinearRecurrence([-(i + j), ONE - (i + j), ONE], [ONE, i + j])
    examples.append((rec1, Sequence.geometric(i + j), "powers of i+j"))

    rec2 = LinearRecurrence([-2, I * j, ONE], [ONE, I * j])
    examples.append((rec2, Sequence.geometric(I * j), "powers of Ij"))

    rec3 = LinearRecurrence([-2, -2 * I, ONE], [ONE, I * i + I])
    examples.append((rec3, Sequence.geometric(I * i + I), "powers of Ii+I"))

    u = ONE + I * k
    forcing = [
        ForcingTerm(Sequence.constant(1), [2], entry=cat.const_one()),
        ForcingTerm(Sequence.geometric(I * k), [2 - 2 * (I * k)], entry=cat.pow_p(I * k)),
        ForcingTerm(Sequence.geometric(u), [-1], entry=cat.pow_p(u)),
    ]
    rec4 = LinearRecurrence([ONE, -2, ONE], [0, 0], forcing)
    closed4 = Sequence(lambda n: Biquaternion(n * n) - u**n + (I * k) ** n)
    examples.append((rec4, closed4, "n^2 - (Ik+1)^n + (Ik)^n"))

    return examples
