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
import sys

from .errors import OutsideROCError, ZeroDivisorError

# is_invertible() / inverse() refuse arguments whose |complex norm| is at most
# this fraction of component_norm()**2: scale-free, so 1e-150 and 1e150
# invert alike while near-zero-divisor garbage stays out of divisions
INVERTIBILITY_TOL = 1e-12

# |vec_abs| below this selects exp's degenerate branch, e**q0 * (1 + v), where
# sin(vec_abs)/vec_abs cannot be evaluated as a quotient
DEGENERATE_VEC_TOL = 1e-10

Scalar = int | float | complex
_SCALARS = (int, float, complex)
_isfinite = cmath.isfinite
_NORMAL_MIN = sys.float_info.min  # below it a square has lost significant bits


def _coerce_component(value) -> complex:
    c = complex(value)
    if not _isfinite(c):
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

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since __setattr__ refuses
        return type(self), (self.w, self.x, self.y, self.z)

    # -- structure ---------------------------------------------------------

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
        o = other if type(other) is Biquaternion else _embed(other)
        if o is None:
            return NotImplemented
        return _result(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Biquaternion else _embed(other)
        if o is None:
            return NotImplemented
        return _result(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __rsub__(self, other):
        o = _embed(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _result(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if type(other) is not Biquaternion:
            if isinstance(other, _SCALARS):
                if type(other) not in _SCALARS:
                    other = complex(other)  # a subclass, e.g. numpy's, may keep its own type
                return _result(self.w * other, self.x * other, self.y * other, self.z * other)
            if not isinstance(other, Biquaternion):
                return NotImplemented
        return _result(*_hamilton(self.w, self.x, self.y, self.z, other.w, other.x, other.y, other.z))

    def __rmul__(self, other):
        # scalars commute, so left multiplication by a scalar is componentwise
        if isinstance(other, _SCALARS):
            if type(other) not in _SCALARS:
                other = complex(other)  # a subclass, e.g. numpy's, may keep its own type
            return _result(other * self.w, other * self.x, other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            if type(other) not in _SCALARS:
                other = complex(other)  # a subclass, e.g. numpy's, may keep its own type
            return _result(self.w / other, self.x / other, self.y / other, self.z / other)
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
        # hashed as the scalar it equals: hash(complex(a, 0)) == hash(a) == hash(complex(a, -0.0))
        if self.x == self.y == self.z == 0:
            return hash(self.w)
        return hash((self.w, self.x, self.y, self.z))

    # -- conjugate, norms, inverse ------------------------------------------

    def conj(self) -> "Biquaternion":
        """Quaternion conjugate: scalar part kept, vector part negated."""
        return _result(self.w, -self.x, -self.y, -self.z)

    def complex_norm_sq(self) -> complex:
        """The complex scalar q * conj(q) = w**2 + x**2 + y**2 + z**2."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def real_norm(self) -> float:
        """Multiplicative real gauge: the fourth root of |q * conj(q)|**2.

        Vanishes on zero divisors, so it does not control componentwise size.
        """
        return math.sqrt(abs(self.complex_norm_sq()))

    def component_norm(self) -> float:
        """Euclidean length of the eight real components, with no overflow on the way."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return math.hypot(w.real, w.imag, x.real, x.imag, y.real, y.imag, z.real, z.imag)

    def __abs__(self) -> float:
        return self.real_norm()

    def is_invertible(self) -> bool:
        """|q * conj(q)| > INVERTIBILITY_TOL * component_norm()**2; false for 0.  The test
        is scale-free, so a value it refuses is tested again as its :func:`_unit_copy`."""
        if _invertible(self, self.complex_norm_sq()):
            return True
        unit = _unit_copy(self)[0]
        return _invertible(unit, unit.complex_norm_sq())

    def inverse(self) -> "Biquaternion":
        """conj(q) / (q * conj(q)); raises ZeroDivisorError unless is_invertible().  A q
        refused because its squares left double range or its normal range inverts as
        u**-1 / c, (u, c) = _unit_copy(q)."""
        return _inverse(self, self.complex_norm_sq())

    def vec_abs(self) -> complex:
        """Principal complex square root of x**2 + y**2 + z**2.

        Principal branch: nonnegative real part, and nonnegative imaginary
        part when the real part is zero.  Real-quaternion inputs reduce to the
        Euclidean vector length.
        """
        return cmath.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def commutes_with(self, other, tol: float = 1e-12) -> bool:
        """|p*q - q*p| <= tol * max(1, |p|*|q|), taken on each operand over its largest
        real component magnitude so that nothing leaves double range; zero commutes with all."""
        o = as_biquaternion(other)
        a, b = (max(map(abs, v.components())) or 1.0 for v in (self, o))  # zero stays zero
        p, q = self / a, o / b
        gap = (p * q - q * p).component_norm()
        return gap <= tol * max(1.0 / a / b, p.component_norm() * q.component_norm())

    def __repr__(self):
        return f"Biquaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self):
        from .parsing import format_literal

        return format_literal(self)


def _invertible(q: Biquaternion, cns: complex) -> bool:
    """The invertibility test, given q's complex norm cns = q * conj(q).  A cns below
    the normal range has lost significant bits, so it fails here too and the callers
    test q again as its :func:`_unit_copy`."""
    size = q.component_norm()  # squared by *, as float ** raises OverflowError where * gives inf
    norm = abs(cns)
    return norm >= _NORMAL_MIN and norm > INVERTIBILITY_TOL * (size * size)


def _inverse(q: Biquaternion, cns: complex) -> Biquaternion:
    """q.inverse(), given q's complex norm cns = q * conj(q)."""
    if not _invertible(q, cns):
        unit, c = _unit_copy(q)
        if not _invertible(unit, unit.complex_norm_sq()):
            raise ZeroDivisorError(f"complex norm {cns!r} is numerically zero; no inverse exists")
        return unit.inverse() / c
    return _result(q.w / cns, -q.x / cns, -q.y / cns, -q.z / cns)


def _unit_copy(q: Biquaternion) -> tuple[Biquaternion, float]:
    """(u, c) with q == u * c: c is the power of two that brings q's largest real
    component magnitude into [1, 2), so u's squared size is below 8 and q / c is exact
    but where a component over 2**1000 times smaller than the largest underflows."""
    c = math.ldexp(1.0, math.frexp(max(map(abs, q.components())))[1] - 1)
    return q / c, c


class _Raw:
    """Biquaternion's slot layout without its ``__setattr__``: :func:`_built`
    fills one with plain stores, then turns it into a Biquaternion."""

    __slots__ = Biquaternion.__slots__


def _result(w: complex, x: complex, y: complex, z: complex) -> Biquaternion:
    """Build an arithmetic result from components that are already ``complex``.

    Arithmetic on built-in complex components yields built-in complex, so the
    constructor's ``complex()`` coercion is skipped; its finiteness check is
    not: a non-finite component goes through the constructor, which raises.
    """
    if not (_isfinite(w) and _isfinite(x) and _isfinite(y) and _isfinite(z)):
        return Biquaternion(w, x, y, z)  # raises
    return _built(w, x, y, z)


def _built(w: complex, x: complex, y: complex, z: complex) -> Biquaternion:
    """:func:`_result` for components already checked finite: they are stored
    into a :class:`_Raw` whose class is then set to Biquaternion, cheaper than
    the slot descriptors' ``__set__``; the value is immutable from then on."""
    q = _Raw()
    q.w = w
    q.x = x
    q.y = y
    q.z = z
    q.__class__ = Biquaternion
    return q


def _hamilton(pw, px, py, pz, qw, qx, qy, qz) -> tuple[complex, complex, complex, complex]:
    """The components of p * q, unchecked: the one copy of the product's
    expressions, whose operand order every raw-component loop shares with
    ``__mul__``.  Non-finite components stay so through later sums and
    products, so one :func:`_result` at the end of a loop catches an overflow."""
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy + py * qw + pz * qx - px * qz,
        pw * qz + pz * qw + px * qy - py * qx,
    )


def _sum_pieces(pairs, acc=(0j, 0j, 0j, 0j), scale=None):
    """((w, x, y, z), max(scale, each piece's component norm) if a scale is
    given): acc plus each piece term * coeff in turn, by :func:`_hamilton` and
    ``__add__``'s expressions in their order.  A difference adds the products
    by negated coefficients, equal to the subtracted products but in the sign
    of exactly-zero parts.  Unchecked, like :func:`_hamilton`."""
    w, x, y, z = acc
    for p, q in pairs:
        aw, ax, ay, az = _hamilton(p.w, p.x, p.y, p.z, q.w, q.x, q.y, q.z)
        if scale is not None:
            size = math.hypot(aw.real, aw.imag, ax.real, ax.imag, ay.real, ay.imag, az.real, az.imag)
            if size > scale:  # as max(): a NaN size never replaces the scale
                scale = size
        w, x, y, z = w + aw, x + ax, y + ay, z + az
    return (w, x, y, z), scale


def _gap(a: Biquaternion, b: Biquaternion) -> float:
    """The component norm of a - b without building it, so a difference past
    double range reads inf instead of raising."""
    return math.hypot(*map(float.__sub__, a.components(), b.components()))


ZERO = Biquaternion()
ONE = Biquaternion(1.0)
i = Biquaternion(0.0, 1.0)
j = Biquaternion(0.0, 0.0, 1.0)
k = Biquaternion(0.0, 0.0, 0.0, 1.0)


def _embed(value):
    if isinstance(value, Biquaternion):
        return value
    if type(value) in _SCALARS:  # exact types; bool and subclasses take the constructor
        c = complex(value)  # the constructor's coercion, with its OverflowError
        if _isfinite(c):
            return _built(c, 0j, 0j, 0j)
    if isinstance(value, _SCALARS):
        return Biquaternion(value)  # bool, a subclass, or a non-finite value, which raises
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
    gap = _gap(a, b)  # inf, not a raise, where a - b leaves double range
    scale = max(a.component_norm(), b.component_norm())
    return gap <= max(rel_tol * scale, abs_tol)


def sum_products(pairs) -> Biquaternion:
    """a0*b0 + a1*b1 + ... over one or more (a, b) pairs of biquaternions.

    Bit-identical to ``total = ZERO; total = total + a*b`` for each pair, so
    to the sum from the first product up to the sign of exactly-zero parts;
    an overflow raises the constructor's ValueError."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sum_products needs at least one pair")
    return _result(*_sum_pieces(pairs)[0])


def root_magnitudes(q) -> tuple[float, float]:
    """(larger, smaller) magnitude of the two scalar roots q0 +- sqrt(q0**2 - cns).

    Every biquaternion satisfies q**2 = 2*q0*q - cns, so its powers grow
    componentwise like the larger root and its inverse powers like the
    reciprocal of the smaller; the real gauge only sees their geometric mean.
    Where q0**2 or cns leaves double range, or both fall below its normal range,
    the roots are those of q's :func:`_unit_copy` u, times c: they scale with q.
    """
    q = as_biquaternion(q)
    return _root_magnitudes(q, q.complex_norm_sq())


def _root_magnitudes(q: Biquaternion, cns: complex, retry: bool = True) -> tuple[float, float]:
    """root_magnitudes(q), given q's cns = q * conj(q): |q0 +- sqrt(q0**2 - cns)|, taken once on the
    unit copy where q0**2 or cns left double range, or both fell below its normal range."""
    w2 = q.w * q.w
    s = cmath.sqrt(w2 - cns)
    a, b = abs(q.w + s), abs(q.w - s)
    if retry and not (_isfinite(a) and _isfinite(b) and (abs(w2) >= _NORMAL_MIN or abs(cns) >= _NORMAL_MIN)):
        unit, c = _unit_copy(q)
        a, b = _root_magnitudes(unit, unit.complex_norm_sq(), False)
        a, b = a * c, b * c
    return max(a, b), min(a, b)


def _admit(x, radius: float | None, label: str) -> Biquaternion:
    """x**-1 of a transform point x: the one admission rule, in one order.  It
    raises ZeroDivisorError if x has no inverse; then OutsideROCError unless the
    smaller root magnitude of x, which sets how slowly x**-n decays, is above
    ``radius`` (None: no radius; ``label`` names it); then the constructor's
    ValueError if x**-1 left double range, as for a point no radius refuses."""
    x = as_biquaternion(x)
    cns = x.complex_norm_sq()  # one complex norm, for the inverse and the root magnitudes
    try:
        x_inv, overflow = _inverse(x, cns), None
    except ValueError as exc:  # x**-1 left double range: raised once no radius refuses x
        x_inv, overflow = None, exc
    if radius is not None and (smaller := _root_magnitudes(x, cns)[1]) <= radius:
        raise OutsideROCError(f"smaller root magnitude {smaller} of x <= {label} {radius}")
    if overflow is not None:
        raise overflow
    return x_inv


def exp(q) -> Biquaternion:
    """Biquaternion exponential.

    For |vec_abs(q)| away from zero this is
    e**q0 * (cos(|v|) + (v/|v|) * sin(|v|)) with v the vector part and complex
    cos/sin; when |vec_abs(q)| is numerically zero (which includes nilpotent
    vector parts, v*v == 0) it degenerates to e**q0 * (1 + v).  A result
    past double range raises the constructor's ValueError.
    """
    q = as_biquaternion(q)
    va = q.vec_abs()
    try:
        e0 = cmath.exp(q.w)
        if abs(va) < DEGENERATE_VEC_TOL:
            return Biquaternion(e0, e0 * q.x, e0 * q.y, e0 * q.z)
        c = cmath.cos(va)
        s = cmath.sin(va) / va
    except OverflowError:  # cmath's "math range error"
        raise ValueError(f"non-finite biquaternion component: exp of {q!r} leaves double range") from None
    return Biquaternion(e0 * c, e0 * s * q.x, e0 * s * q.y, e0 * s * q.z)


def cos_seq_term(q, n: int) -> Biquaternion:
    """cos(q*n) for integer n >= 0, by Euler's formula through the central unit I:
    (exp(I*q*n) + exp(-I*q*n)) / 2, for every q, nilpotent vector parts included.
    """
    arg = as_biquaternion(q) * (1j * n)
    return (exp(arg) + exp(-arg)) * 0.5


def sin_seq_term(q, n: int) -> Biquaternion:
    """sin(q*n) for integer n >= 0, companion of :func:`cos_seq_term`:
    I/2 * (exp(-I*q*n) - exp(I*q*n)).
    """
    arg = as_biquaternion(q) * (1j * n)
    return (exp(-arg) - exp(arg)) * 0.5j
