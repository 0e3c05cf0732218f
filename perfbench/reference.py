"""Independent reference arithmetic for checking biqz results.

Standard library only; nothing here imports biqz.  It rests on the algebra
isomorphism C (x) H ~= M2(C) (Sangwine, Ell & Le Bihan, "Fundamental
representations and algebraic properties of biquaternions", AACA 21, 2011):

    1 -> identity,  i -> diag(I, -I),  j -> [[0, 1], [-1, 0]],  k -> [[0, I], [I, 0]]

so w + x i + y j + z k maps to [[w + I x, y + I z], [-y + I z, w - I x]].
Under this map q * conj(q) is the determinant, 2 q0 is the trace and the two
roots q0 +- sqrt(q0**2 - q conj(q)) are the eigenvalues.  The component norm
of a biquaternion (the Euclidean length of its eight real components) is the
Frobenius norm of its matrix divided by sqrt(2).

A matrix is a tuple (a, b, c, d) meaning [[a, b], [c, d]] of Python complex.
"""
from __future__ import annotations

import cmath
import math
import re

IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)
ZERO = (0j, 0j, 0j, 0j)


# -- the isomorphism -----------------------------------------------------------


def from_quaternion(w, x, y, z):
    """Matrix of w + x i + y j + z k for complex w, x, y, z."""
    w, x, y, z = complex(w), complex(x), complex(y), complex(z)
    return (w + 1j * x, y + 1j * z, -y + 1j * z, w - 1j * x)


def to_quaternion(m):
    """(w, x, y, z) of the biquaternion whose matrix is m."""
    a, b, c, d = m
    return ((a + d) / 2, (a - d) / 2j, (b - c) / 2, (b + c) / 2j)


def scalar(s):
    s = complex(s)
    return (s, 0j, 0j, s)


# -- ring operations -------------------------------------------------------------


def add(m, n):
    return (m[0] + n[0], m[1] + n[1], m[2] + n[2], m[3] + n[3])


def sub(m, n):
    return (m[0] - n[0], m[1] - n[1], m[2] - n[2], m[3] - n[3])


def scale(m, s):
    return (m[0] * s, m[1] * s, m[2] * s, m[3] * s)


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def trace(m):
    return m[0] + m[3]


def inv(m):
    dt = det(m)
    if dt == 0:
        raise ZeroDivisionError("singular matrix")
    a, b, c, d = m
    return (d / dt, -b / dt, -c / dt, a / dt)


def power(m, n: int):
    """m**n for n >= 0 by repeated multiplication (no shared code with biqz)."""
    out = IDENTITY
    for _ in range(n):
        out = mul(out, m)
    return out


def norm(m) -> float:
    """Component norm of the corresponding biquaternion."""
    return math.sqrt(sum(abs(v) ** 2 for v in m) / 2.0)


def dist(m, n) -> float:
    return norm(sub(m, n))


def eigenvalues(m):
    t = trace(m) / 2
    s = cmath.sqrt(t * t - det(m))
    return t + s, t - s


def spectral_radius(m) -> float:
    return max(abs(v) for v in eigenvalues(m))


def root_magnitudes(m):
    """(larger, smaller) eigenvalue magnitude."""
    a, b = (abs(v) for v in eigenvalues(m))
    return max(a, b), min(a, b)


def expm(m):
    """Matrix exponential by Cayley-Hamilton: with A = t + N, N**2 = delta**2,
    exp(A) = e**t (cosh(delta) + sinh(delta)/delta * N)."""
    t = trace(m) / 2
    n = sub(m, scalar(t))
    d2 = t * t - det(m)
    if abs(d2) < 1e-8:
        ch = 1 + d2 / 2 + d2 * d2 / 24
        sh = 1 + d2 / 6 + d2 * d2 / 120
    else:
        d = cmath.sqrt(d2)
        ch = cmath.cosh(d)
        sh = cmath.sinh(d) / d
    e = cmath.exp(t)
    return add(scalar(e * ch), scale(n, e * sh))


# -- closed forms of the catalog's transforms ------------------------------------
#
# Each is derived here from a Neumann series sum_n Y**n = (1 - Y)**-1 and its
# derivatives, or from matrix functions, not from the program's formulas.  The
# parameterless rows take a matrix point X; the parameterized rows take a
# complex point x, where x commutes with the parameter.


def _resolvent(y):
    return inv(sub(IDENTITY, y))


def _resolvent_power(y, e: int):
    r = _resolvent(y)
    return power(r, e)


def transform_closed_form(name: str, params: dict, point):
    """sum_n f_n point**-n for catalog row ``name`` with matrix parameters."""
    if name in PARAMETERLESS:
        y = inv(point)
        if name == "const_one":
            return _resolvent(y)
        if name == "ramp_n":
            return mul(y, _resolvent_power(y, 2))
        return mul(mul(y, add(IDENTITY, y)), _resolvent_power(y, 3))
    x = complex(point)
    if name == "pow_p":
        return _resolvent(scale(params["p"], 1 / x))
    if name == "n_pow_p":
        y = scale(params["p"], 1 / x)
        return mul(y, _resolvent_power(y, 2))
    if name in ("binom_shifted", "binom"):
        m = params["m"]
        y = scale(params["q"], 1 / x)
        tail = _resolvent_power(y, m + 1)
        return tail if name == "binom_shifted" else mul(power(y, m), tail)
    if name in ("cos_qn", "sin_qn"):
        # cos(nQ) = (E**n + E**-n) / 2 and sin(nQ) = (E**n - E**-n) / 2I with
        # E = exp(I Q), the complex unit I standing in for the program's s
        e = expm(scale(params["q"], 1j))
        up = _resolvent(scale(e, 1 / x))
        down = _resolvent(scale(inv(e), 1 / x))
        if name == "cos_qn":
            return scale(add(up, down), 0.5)
        return scale(sub(up, down), 1 / 2j)
    if name == "exp_over_fact":
        return expm(scale(params["q"], 1 / x))
    raise KeyError(name)


PARAMETERLESS = ("const_one", "ramp_n", "ramp_n2")


def row_terms(name: str, params: dict):
    """Yield the row's sequence f_0, f_1, ... as matrices."""
    if name in PARAMETERLESS:
        k = PARAMETERLESS.index(name)
        n = 0
        while True:
            yield scalar(n**k)
            n += 1
    if name in ("cos_qn", "sin_qn"):
        e = expm(scale(params["q"], 1j))
        e_inv = inv(e)
        up = down = IDENTITY
        while True:
            yield scale(add(up, down), 0.5) if name == "cos_qn" else scale(sub(up, down), 1 / 2j)
            up, down = mul(up, e), mul(down, e_inv)
    base = params.get("p", params.get("q"))
    m = params.get("m", 0)
    weight = {
        "pow_p": lambda n: 1,
        "n_pow_p": lambda n: n,
        "binom_shifted": lambda n: math.comb(n + m, m),
        "binom": lambda n: math.comb(n, m),
        "exp_over_fact": lambda n: 1,
    }[name]
    power_n = IDENTITY  # base**n, or base**n / n! for exp_over_fact
    n = 0
    while True:
        yield scale(power_n, weight(n))
        power_n = mul(power_n, base)
        n += 1
        if name == "exp_over_fact":
            power_n = scale(power_n, 1 / n)


def series_terms(name: str, params: dict, point, count: int):
    """The first ``count`` terms f_n point**-n of the row's series."""
    step = inv(point) if name in PARAMETERLESS else scalar(1 / complex(point))
    out = []
    x_pow = IDENTITY
    for f, _ in zip(row_terms(name, params), range(count)):
        out.append(mul(f, x_pow))
        x_pow = mul(x_pow, step)
    return out


def convergence_radius(name: str, params: dict) -> float:
    """True radius of the row's series: the spectral growth rate of f_n."""
    if name in PARAMETERLESS:
        return 1.0
    if name in ("pow_p", "n_pow_p"):
        return spectral_radius(params["p"])
    if name in ("binom_shifted", "binom"):
        return spectral_radius(params["q"])
    if name in ("cos_qn", "sin_qn"):
        # E**n and E**-n grow like exp(|Im mu|) for each eigenvalue mu of q
        return math.exp(max(abs(mu.imag) for mu in eigenvalues(params["q"])))
    if name == "exp_over_fact":
        return 0.0
    raise KeyError(name)


# -- recurrences -------------------------------------------------------------------


def iterate(coeffs, initial, n_terms: int, forcing=()):
    """Forward iteration of sum_m f_{n+m} P_m = sum_k g_{n+k} Q_k.

    ``forcing`` holds (g, [Q_0, ...]) pairs with g a function n -> matrix.
    """
    order = len(coeffs) - 1
    lead_inv = inv(coeffs[-1])
    values = list(initial)
    while len(values) < n_terms:
        base = len(values) - order
        acc = ZERO
        for g, qs in forcing:
            for k, q in enumerate(qs):
                acc = add(acc, mul(g(base + k), q))
        for m in range(order):
            acc = sub(acc, mul(values[base + m], coeffs[m]))
        values.append(mul(acc, lead_inv))
    return values[:n_terms]


def solve_transform(coeffs, initial, x: complex, forcing=()):
    """X[f](x) from F(x) P(x) = B(x) at a complex point.

    P(x) = sum_m P_m x**m; B(x) collects the initial-value terms
    sum_m sum_{t<m} f_t x**(m-t) P_m and, for each forcing term with closed
    form G, sum_k (G(x) x**k - sum_{t<k} g_t x**(k-t)) Q_k.  ``forcing``
    holds (g, G, [Q_0, ...]) triples.
    """
    x = complex(x)
    poly = ZERO
    for m, p in enumerate(coeffs):
        poly = add(poly, scale(p, x**m))
    rhs = ZERO
    for m in range(1, len(coeffs)):
        for t in range(m):
            rhs = add(rhs, mul(scale(initial[t], x ** (m - t)), coeffs[m]))
    for g, big_g, qs in forcing:
        value = big_g(x)
        for k, q in enumerate(qs):
            shifted = scale(value, x**k)
            for t in range(k):
                shifted = sub(shifted, scale(g(t), x ** (k - t)))
            rhs = add(rhs, mul(shifted, q))
    return mul(rhs, inv(poly))


# -- literals ------------------------------------------------------------------------
#
# The benchmark writes its inputs as literals and reads the bundled specs'
# literals with this parser of its own, so that the reference never depends on
# biqz.parsing.

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(
    rf"([+-]?)(?:\(([+-]?{_NUM})([+-]{_NUM})I\)|({_NUM})(I?)|(?=[ijk]))([ijk]?)"
)
_AXIS = {"": 0, "i": 1, "j": 2, "k": 3}


def literal(w, x=0j, y=0j, z=0j) -> str:
    """Literal for w + x i + y j + z k that parses back to the same floats."""
    out = []
    for c, unit in ((w, ""), (x, "i"), (y, "j"), (z, "k")):
        c = complex(c)
        sign = "-" if c.imag < 0 else "+"
        out.append(f"({c.real!r}{sign}{abs(c.imag)!r}I){unit}")
    return "+".join(out)


def parse_literal(text: str):
    """(w, x, y, z) of a biquaternion literal in the biqz grammar."""
    s = "".join(text.split())
    comps = [0j, 0j, 0j, 0j]
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad literal {text!r} at {pos}")
        sign, re_part, im_part, num, imag_unit, unit = m.groups()
        if re_part is not None:
            value = complex(float(re_part), float(im_part))
        elif num is not None:
            value = complex(0.0, float(num)) if imag_unit else complex(float(num), 0.0)
        else:
            value = 1 + 0j
        comps[_AXIS[unit]] += -value if sign == "-" else value
        pos = m.end()
    return tuple(comps)


def matrix_of_literal(text: str):
    return from_quaternion(*parse_literal(text))
