"""Biquaternion arithmetic.

A biquaternion is q = w + x*i + y*j + z*k with complex components w, x, y, z.
The quaternion units obey Hamilton's rules

    i*i = j*j = k*k = i*j*k = -1
    i*j = k,  j*k = i,  k*i = j
    j*i = -k, k*j = -i, i*k = -j

while the complex unit I (Python's ``1j`` inside each component) commutes with
all of i, j, k.  Multiplication is associative but not commutative, and the
algebra has zero divisors: q * conj(q) can vanish for nonzero q, in which case
q has no inverse.

Two magnitudes coexist:

* ``complex_norm_sq`` -- the complex scalar q * conj(q);
* ``real_norm``       -- the nonnegative real whose fourth power equals
  |q * conj(q)|**2.  It is multiplicative, but it vanishes on zero divisors,
  so it is a gauge rather than a true norm.

``component_norm`` (the Euclidean length of the eight real components) is the
honest metric for componentwise convergence questions.
"""
from __future__ import annotations

import cmath
import math

from .errors import ZeroDivisorError

# is_invertible() / inverse() refuse arguments whose |complex norm| is at most
# this fraction of component_norm()**2: scale-free, so 1e-150 and 1e150
# invert alike while near-zero-divisor garbage stays out of divisions
INVERTIBILITY_TOL = 1e-12

# |vec_abs| below this selects the degenerate branch of exp / cos / sin
DEGENERATE_VEC_TOL = 1e-10

Scalar = int | float | complex


def _coerce_component(value) -> complex:
    c = complex(value)
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite biquaternion component: {value!r}")
    return c


class Biquaternion:
    """An immutable biquaternion w + x*i + y*j + z*k with complex components.

    Scalars (int, float, complex) mix freely with biquaternions in arithmetic;
    they embed as pure scalar parts and commute with everything.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: Scalar = 0.0, x: Scalar = 0.0, y: Scalar = 0.0, z: Scalar = 0.0):
        object.__setattr__(self, "w", _coerce_component(w))
        object.__setattr__(self, "x", _coerce_component(x))
        object.__setattr__(self, "y", _coerce_component(y))
        object.__setattr__(self, "z", _coerce_component(z))

    def __setattr__(self, name, value):
        raise AttributeError("Biquaternion values are immutable")

    # -- structure ---------------------------------------------------------

    @property
    def scalar_part(self) -> complex:
        return self.w

    @property
    def vector_part(self) -> "Biquaternion":
        return Biquaternion(0.0, self.x, self.y, self.z)

    def components(self) -> tuple[float, ...]:
        """The eight real components, ordered (w.re, w.im, x.re, x.im, ...)."""
        return (
            self.w.real, self.w.imag,
            self.x.real, self.x.imag,
            self.y.real, self.y.imag,
            self.z.real, self.z.imag,
        )

    @classmethod
    def from_components(cls, comps) -> "Biquaternion":
        c = list(comps)
        if len(c) != 8:
            raise ValueError("expected eight real components")
        return cls(
            complex(c[0], c[1]), complex(c[2], c[3]),
            complex(c[4], c[5]), complex(c[6], c[7]),
        )

    def to_complex(self) -> complex:
        """The scalar part, provided the vector part is exactly zero."""
        if self.x != 0 or self.y != 0 or self.z != 0:
            raise ValueError("biquaternion has a nonzero vector part")
        return self.w

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _embed(other)
        if o is None:
            return NotImplemented
        return Biquaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        o = _embed(other)
        if o is None:
            return NotImplemented
        return Biquaternion(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __rsub__(self, other):
        o = _embed(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Biquaternion(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, Biquaternion):
            return NotImplemented
        p, q = self, other
        return Biquaternion(
            p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
            p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
            p.w * q.y + p.y * q.w + p.z * q.x - p.x * q.z,
            p.w * q.z + p.z * q.w + p.x * q.y - p.y * q.x,
        )

    def __rmul__(self, other):
        # scalars commute, so left multiplication by a scalar is componentwise
        if isinstance(other, (int, float, complex)):
            return Biquaternion(other * self.w, other * self.x, other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.w / other, self.x / other, self.y / other, self.z / other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        o = _embed(other)
        if o is None:
            return NotImplemented
        return self.w == o.w and self.x == o.x and self.y == o.y and self.z == o.z

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    # -- conjugate, norms, inverse ------------------------------------------

    def conj(self) -> "Biquaternion":
        """Quaternion conjugate: scalar part kept, vector part negated."""
        return Biquaternion(self.w, -self.x, -self.y, -self.z)

    def complex_norm_sq(self) -> complex:
        """The complex scalar q * conj(q) = w**2 + x**2 + y**2 + z**2."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def real_norm(self) -> float:
        """Multiplicative real gauge: the fourth root of |q * conj(q)|**2.

        Vanishes on zero divisors, so it does not control componentwise size.
        """
        return math.sqrt(abs(self.complex_norm_sq()))

    def component_norm(self) -> float:
        """Euclidean length of the eight real components."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return math.sqrt(
            w.real * w.real + w.imag * w.imag
            + x.real * x.real + x.imag * x.imag
            + y.real * y.real + y.imag * y.imag
            + z.real * z.real + z.imag * z.imag
        )

    def __abs__(self) -> float:
        return self.real_norm()

    def is_invertible(self) -> bool:
        """|q * conj(q)| > INVERTIBILITY_TOL * component_norm()**2; false for 0."""
        return abs(self.complex_norm_sq()) > INVERTIBILITY_TOL * self.component_norm() ** 2

    def inverse(self) -> "Biquaternion":
        """conj(q) / (q * conj(q)); raises ZeroDivisorError unless is_invertible()."""
        cns = self.complex_norm_sq()
        # is_invertible()'s test, written out so that cns is computed only once
        if not abs(cns) > INVERTIBILITY_TOL * self.component_norm() ** 2:
            raise ZeroDivisorError(
                f"complex norm {cns!r} is numerically zero; no inverse exists"
            )
        return Biquaternion(self.w / cns, -self.x / cns, -self.y / cns, -self.z / cns)

    def vec_abs(self) -> complex:
        """Principal complex square root of x**2 + y**2 + z**2.

        Principal branch: nonnegative real part, and nonnegative imaginary
        part when the real part is zero.  Real-quaternion inputs reduce to the
        Euclidean vector length.
        """
        return cmath.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def commutes_with(self, other, tol: float = 1e-12) -> bool:
        o = as_biquaternion(other)
        gap = (self * o - o * self).component_norm()
        return gap <= tol * max(1.0, self.component_norm() * o.component_norm())

    def __repr__(self):
        return f"Biquaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self):
        from .parsing import format_literal

        return format_literal(self)


ZERO = Biquaternion()
ONE = Biquaternion(1.0)
i = Biquaternion(0.0, 1.0)
j = Biquaternion(0.0, 0.0, 1.0)
k = Biquaternion(0.0, 0.0, 0.0, 1.0)


def _embed(value):
    if isinstance(value, Biquaternion):
        return value
    if isinstance(value, (int, float, complex)):
        return Biquaternion(value)
    return None


def as_biquaternion(value) -> Biquaternion:
    """Embed scalars as pure scalar parts; pass biquaternions through."""
    b = _embed(value)
    if b is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a biquaternion")
    return b


def isclose(p, q, rel_tol: float = 1e-9, abs_tol: float = 0.0) -> bool:
    """Componentwise closeness of two biquaternions."""
    a = as_biquaternion(p)
    b = as_biquaternion(q)
    gap = (a - b).component_norm()
    scale = max(a.component_norm(), b.component_norm())
    return gap <= max(rel_tol * scale, abs_tol)


def root_magnitudes(q) -> tuple[float, float]:
    """(larger, smaller) magnitude of the two scalar roots q0 +- sqrt(q0**2 - cns).

    Every biquaternion satisfies q**2 = 2*q0*q - cns, so its powers grow
    componentwise like the larger root and its inverse powers like the
    reciprocal of the smaller; the real gauge only sees their geometric mean.
    """
    q = as_biquaternion(q)
    s = cmath.sqrt(q.w * q.w - q.complex_norm_sq())
    a, b = abs(q.w + s), abs(q.w - s)
    return max(a, b), min(a, b)


def _sgn_and_abs(q: Biquaternion) -> tuple[Biquaternion, complex]:
    """(vector_part / vec_abs, vec_abs) for a nondegenerate vector part."""
    va = q.vec_abs()
    return Biquaternion(0.0, q.x / va, q.y / va, q.z / va), va


def exp(q) -> Biquaternion:
    """Biquaternion exponential.

    For |vec_abs(q)| away from zero this is
    e**q0 * (cos(|v|) + (v/|v|) * sin(|v|)) with v the vector part and complex
    cos/sin; when |vec_abs(q)| is numerically zero (which includes nilpotent
    vector parts, v*v == 0) it degenerates to e**q0 * (1 + v).
    """
    q = as_biquaternion(q)
    e0 = cmath.exp(q.w)
    va = q.vec_abs()
    if abs(va) < DEGENERATE_VEC_TOL:
        return Biquaternion(e0, e0 * q.x, e0 * q.y, e0 * q.z)
    c = cmath.cos(va)
    s = cmath.sin(va) / va
    return Biquaternion(e0 * c, e0 * s * q.x, e0 * s * q.y, e0 * s * q.z)


def cos_seq_term(q, n: int) -> Biquaternion:
    """cos(q*n) for integer n >= 0, via the two-branch closed form.

    Nondegenerate vector part: (exp(s*q*n) + exp(-s*q*n)) / 2 with
    s = vector_part / vec_abs.  Degenerate (|vec_abs| ~ 0):
    cos(q0*n) - v * n * sin(q0*n).
    """
    q = as_biquaternion(q)
    va = q.vec_abs()
    if abs(va) < DEGENERATE_VEC_TOL:
        c = cmath.cos(q.w * n)
        s = cmath.sin(q.w * n)
        return Biquaternion(c, -q.x * n * s, -q.y * n * s, -q.z * n * s)
    s_unit, _ = _sgn_and_abs(q)
    arg = (s_unit * q) * n
    return (exp(arg) + exp(-arg)) * 0.5


def sin_seq_term(q, n: int) -> Biquaternion:
    """sin(q*n) for integer n >= 0, companion of :func:`cos_seq_term`.

    Nondegenerate: -s/2 * (exp(s*q*n) - exp(-s*q*n)); degenerate:
    sin(q0*n) + v * n * cos(q0*n).
    """
    q = as_biquaternion(q)
    va = q.vec_abs()
    if abs(va) < DEGENERATE_VEC_TOL:
        c = cmath.cos(q.w * n)
        s = cmath.sin(q.w * n)
        return Biquaternion(s, q.x * n * c, q.y * n * c, q.z * n * c)
    s_unit, _ = _sgn_and_abs(q)
    arg = (s_unit * q) * n
    return s_unit * (exp(arg) - exp(-arg)) * -0.5
