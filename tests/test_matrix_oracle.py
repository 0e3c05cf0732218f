"""Stepped powers against an independent oracle: 2x2 complex matrices.

C (x) H is isomorphic to M2(C) as a ring: w + x i + y j + z k maps to
[[w + I x, y + I z], [-y + I z, w - I x]], I the complex unit.  So the n-th
power of a biquaternion maps to the n-th power of its matrix, taken here by
repeated 2x2 products in the standard library, sharing no code with biqz.
Each term read from the library's power core, at any access order, and each
cos_qn/sin_qn term, a join of two stepped powers, is checked against that
matrix power within 32*(n+1)*u, the bound stated for the three-term step.
The complex norm, the inverse and the root magnitudes (the radius of
``Sequence.geometric``) are checked against the determinant, the 2x2 inverse
and the eigenvalue magnitudes at scales from 1e-150 to 1e150.
"""
import math
import random

import pytest

import biqz.catalog as cat
from biqz import Biquaternion, exp
from biqz.algebra import root_magnitudes

from helpers import _powers

U = 2.0**-53
TERMS = 200
IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


def _matrix(q: Biquaternion) -> tuple[complex, complex, complex, complex]:
    """(a, b, c, d) for the matrix [[a, b], [c, d]] of q."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return (w + 1j * x, y + 1j * z, -y + 1j * z, w - 1j * x)


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _norm(m) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in m))


def _dist(m, n) -> float:
    return _norm(tuple(u - v for u, v in zip(m, n)))


def _matrix_powers(m, count: int = TERMS + 1) -> list:
    out = [IDENTITY]
    for _ in range(count - 1):
        out.append(_mul(out[-1], m))
    return out


def test_the_map_multiplies_as_the_quaternion_units():
    i, j, k = (_matrix(Biquaternion(*parts)) for parts in ((0, 1), (0, 0, 1), (0, 0, 0, 1)))
    minus_one = (-1 + 0j, 0j, 0j, -1 + 0j)
    assert _mul(i, i) == minus_one
    assert _mul(j, j) == minus_one
    assert _mul(i, j) == k


def _ratios() -> list[Biquaternion]:
    rng = random.Random(2700)
    return [cat.draw_conditioned(rng) for _ in range(8)] + [
        Biquaternion(0.99),
        Biquaternion(0.5, 0, 0, 0.5j),  # 0.5(1 + Ik), a zero divisor
        Biquaternion(0.6 + 0.7j),  # a complex scalar
        Biquaternion(0.9, 5e-4),  # roots 0.9 +- 5e-4 I, 1e-3 apart
    ]


RATIOS = _ratios()
ORDERS = {
    "in_order": list(range(TERMS + 1)),
    "shuffled": random.Random(2701).sample(range(TERMS + 1), TERMS + 1),
    "restart": [TERMS] + list(range(TERMS + 1)),  # the first read leaves the core at the end
}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", RATIOS, ids=range(len(RATIOS)))
def test_powers_are_the_matrix_powers(p, order):
    want = _matrix_powers(_matrix(p))
    term = _powers(p)
    wrong = [n for n in ORDERS[order]
             if _dist(_matrix(term(n)), want[n]) > 32 * (n + 1) * U * _norm(want[n])]
    assert wrong == []


def _trig_qs() -> list[Biquaternion]:
    rng = random.Random(2702)
    return [cat.draw_conditioned(rng) * 0.3 for _ in range(3)] + [
        Biquaternion(0.4 + 0.02j),  # a complex scalar
        Biquaternion(0.3, 0.5, 0.5j),  # a nilpotent vector part
    ]


TRIG_QS = _trig_qs()


@pytest.mark.parametrize("q", TRIG_QS, ids=range(len(TRIG_QS)))
@pytest.mark.parametrize("name", ["cos_qn", "sin_qn"])
def test_trig_terms_join_the_matrix_powers_of_exp(name, q):
    # cos(qn) = (E**n + F**n)/2 and sin(qn) = (I/2)(F**n - E**n), E and F the
    # matrices of the library's exp(+-I*q); the join may cancel, so the bound
    # scales with the larger power.  The nilpotent q's E and F each have a
    # double root, and there the matrix products drift most: against exact
    # rational powers they reach 17*(n+1)*u by n = 200, the library 0.35*(n+1)*u
    e_powers, f_powers = _matrix_powers(_matrix(exp(q * 1j))), _matrix_powers(_matrix(exp(q * -1j)))
    term = cat.build(name, {"q": q}).sequence.term
    wrong = []
    for n in range(TERMS + 1):
        en, fn = e_powers[n], f_powers[n]
        if name == "cos_qn":
            want = tuple((u + v) / 2 for u, v in zip(en, fn))
        else:
            want = tuple((v - u) * 0.5j for u, v in zip(en, fn))
        if _dist(_matrix(term(n)), want) > 32 * (n + 1) * U * max(_norm(en), _norm(fn)):
            wrong.append(n)
    assert wrong == []


# cns, inverse and root magnitudes against the determinant, the 2x2 inverse
# and the eigenvalues.  The reference rounds too, so the bound is loose: over
# 2,000 draws at these scales (seed 99) the worst were 7.6u, 8.0u and 7.6u.
ORACLE_BOUND = 64 * U
SCALES = [1e-150, 1e-5, 1.0, 1e5, 1e150]


def _det(m) -> complex:
    a, b, c, d = m
    return a * d - b * c


def _eigen_magnitudes(m) -> tuple[float, float]:
    """(larger, smaller) |eigenvalue|: the root of z**2 - tr*z + det away from
    cancellation, then the other as det over it."""
    a, b, c, d = m
    half = (a + d) / 2
    s = (half * half - _det(m)) ** 0.5
    big = half + s if abs(half + s) >= abs(half - s) else half - s
    return abs(big), abs(_det(m) / big) if big else 0.0


def _scaled_draws(scale: float, count: int = 40) -> list[Biquaternion]:
    rng = random.Random(2703)
    return [cat.draw_conditioned(rng) * scale for _ in range(count)]


@pytest.mark.parametrize("scale", SCALES)
def test_complex_norm_is_the_determinant(scale):
    wrong = []
    for q in _scaled_draws(scale):
        det = _det(_matrix(q))
        if abs(q.complex_norm_sq() - det) > ORACLE_BOUND * abs(det):
            wrong.append(q)
    assert wrong == []


@pytest.mark.parametrize("scale", SCALES)
def test_inverse_is_the_matrix_inverse(scale):
    wrong = []
    for q in _scaled_draws(scale):
        a, b, c, d = _matrix(q)
        det = _det((a, b, c, d))
        want = (d / det, -b / det, -c / det, a / det)
        if _dist(_matrix(q.inverse()), want) > ORACLE_BOUND * _norm(want):
            wrong.append(q)
    assert wrong == []


@pytest.mark.parametrize("scale", SCALES)
def test_root_magnitudes_are_the_eigenvalue_magnitudes(scale):
    wrong = []
    for q in _scaled_draws(scale):
        (big, small), (want_big, want_small) = root_magnitudes(q), _eigen_magnitudes(_matrix(q))
        if max(abs(big - want_big), abs(small - want_small)) > ORACLE_BOUND * want_big:
            wrong.append(q)
    assert wrong == []


@pytest.mark.parametrize(
    "q, roots",
    [
        (Biquaternion(1, 0, 0, 1j), (2.0, 0.0)),  # 1 + 1Ik
        (Biquaternion(0, 1, 1j), (0.0, 0.0)),  # 1i + 1Ij, nilpotent
        (Biquaternion(0.5, 1, 1j), (0.5, 0.5)),  # 0.5 + 1i + 1Ij, a double root
    ],
    ids=["1+1Ik", "1i+1Ij", "0.5+1i+1Ij"],
)
def test_root_magnitudes_on_the_zero_divisor_variety_and_a_double_root(q, roots):
    assert root_magnitudes(q) == _eigen_magnitudes(_matrix(q)) == roots
    assert q.complex_norm_sq() == _det(_matrix(q))
