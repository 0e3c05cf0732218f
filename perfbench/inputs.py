"""Seeded inputs for the three workloads.

Standard library only: the program under test receives nothing but the
literals and numbers made here.  Every workload is a *round*, a fixed list of
operation slots; the seed fills in each slot's parameters and points, and a run
repeats its round whole, so every run attempts the same mix of operations and
the same share of them can fail.  Points are placed by the true spectral
radius from the matrix reference, never by the program's own radius estimate.

Run ``python3 perfbench/inputs.py WORKLOAD SEED`` to print a round.
"""
from __future__ import annotations

import cmath
import math
import random
import sys

import reference as ref

WORKLOADS = ("catalog-sweep", "boundary-series", "recurrences")

POINTS_PER_ENTRY = 12
SWEEP_RATIOS = (0.25, 0.5)  # spectral radius / |x| for catalog-sweep points
SPEC_TERMS = 48
SPEC_ORDERS = (2, 3, 4, 3, 2)
SOLVE_ORDERS = (2, 3, 4)
DECONVOLVE_TERMS = (200, 300)


# -- draws -------------------------------------------------------------------------


def raw(rng):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))


def conditioned(rng, min_root_ratio=1 / 3, max_root_ratio=1.0):
    """A biquaternion away from the zero-divisor variety, with the ratio of its
    smaller to larger root magnitude inside the given range."""
    while True:
        q = raw(rng)
        m = ref.from_quaternion(*q)
        size_sq = ref.norm(m) ** 2
        if size_sq < 0.1 or abs(ref.det(m)) < 0.05 * size_sq:
            continue
        big, small = ref.root_magnitudes(m)
        if min_root_ratio <= small / big <= max_root_ratio:
            return q


def scaled(q, factor):
    return tuple(c * factor for c in q)


def with_radius(q, radius):
    return scaled(q, radius / ref.spectral_radius(ref.from_quaternion(*q)))


def _ladder(rng, lo, hi, n):
    """n values spread evenly over [lo, hi], each jittered inside its cell."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def _complex_point(rng, modulus):
    return cmath.rect(modulus, rng.uniform(0.0, 2.0 * math.pi))


def _lit(q):
    return ref.literal(*q)


# -- catalog-sweep -------------------------------------------------------------------

# (row, variant): every row, both cos/sin branches (a generic vector part, a
# complex scalar and a nilpotent vector part, the last two on the degenerate
# branch), and m in {1, 2, 3}
SWEEP_ENTRIES = (
    ("const_one", None), ("ramp_n", None), ("ramp_n2", None),
    ("pow_p", None), ("n_pow_p", None),
    ("cos_qn", "vector"), ("cos_qn", "scalar"), ("cos_qn", "nilpotent"),
    ("sin_qn", "vector"), ("sin_qn", "scalar"), ("sin_qn", "nilpotent"),
    ("binom_shifted", 1), ("binom_shifted", 2), ("binom_shifted", 3),
    ("binom", 1), ("binom", 2), ("binom", 3),
    ("exp_over_fact", None),
)


def _trig_parameter(rng, variant):
    """A cos/sin parameter whose series has one dominant ratio.

    The four ratios have magnitudes exp(+-(Im q0 +- Re vec_abs)); keeping
    |Im q0| and |Re vec_abs| (when nonzero) at least 0.2 makes one of them
    dominate.  With two of equal size the terms beat, and the program's ratio
    window then certifies tails smaller than the true ones (see README).
    """
    if variant == "vector":
        while True:
            q = scaled(conditioned(rng), 0.8)
            va = cmath.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
            if abs(va) >= 0.3 and min(abs(q[0].imag), abs(va.real)) >= 0.2:
                return q
    q0 = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1) * rng.choice((-1, 1)))
    if variant == "scalar":
        return (q0, 0j, 0j, 0j)
    # a*(e + I e') for coordinate axes e, e': its square is exactly zero
    a = rng.uniform(0.3, 0.9)
    axes = [0j, 0j, 0j]
    first = rng.randrange(3)
    axes[first] = complex(a, 0.0)
    axes[(first + 1) % 3] = complex(0.0, a)
    return (q0, *axes)


def _sweep_params(rng, row, variant):
    if row in ("const_one", "ramp_n", "ramp_n2"):
        return {}
    if row in ("pow_p", "n_pow_p"):
        return {"p": _lit(conditioned(rng))}
    if row in ("cos_qn", "sin_qn"):
        return {"q": _lit(_trig_parameter(rng, variant))}
    if row in ("binom_shifted", "binom"):
        return {"m": variant, "q": _lit(conditioned(rng))}
    return {"q": _lit(scaled(conditioned(rng), 2.0))}


def _biquaternion_point(rng, smaller_root):
    """A biquaternion whose smaller root magnitude is ``smaller_root``: x**-n
    shrinks componentwise at exactly 1/smaller_root."""
    q = conditioned(rng)
    return _lit(scaled(q, smaller_root / ref.root_magnitudes(ref.from_quaternion(*q))[1]))


def sweep_round(rng):
    ops = []
    for e, (row, variant) in enumerate(SWEEP_ENTRIES):
        params = _sweep_params(rng, row, variant)
        ops.append({"kind": "build", "entry": e, "row": row, "params": params})
        matrices = matrix_params(params)
        ratios = _ladder(rng, *SWEEP_RATIOS, POINTS_PER_ENTRY)
        if not params:
            points = [_biquaternion_point(rng, 1.0 / r) for r in ratios]
        elif row == "exp_over_fact":
            # radius 0: scale by the parameter's size so the series is 10-30 terms
            big = ref.root_magnitudes(matrices["q"])[0]
            points = [_complex_point(rng, big / (4.0 * r)) for r in ratios]
        else:
            rho = ref.convergence_radius(row, matrices)
            points = [_complex_point(rng, rho / r) for r in ratios]
        for x in points:
            ops.append({"kind": "point", "entry": e, "x": x})
        if row == "exp_over_fact":
            continue
        # one point inside the true radius, which the program must refuse
        if not params:
            q = conditioned(rng)
            inside = _lit(scaled(q, 0.5 / ref.root_magnitudes(ref.from_quaternion(*q))[0]))
        else:
            inside = _complex_point(rng, 0.5 * ref.convergence_radius(row, matrices))
        ops.append({"kind": "refuse", "entry": e, "x": inside})
    return ops


# -- boundary-series ---------------------------------------------------------------


def _boundary_trig(rng):
    """q with Im q0 = +-a and Re vec_abs = b, a, b ~ 0.05: the dominant ratio
    exp(a+b) is unique (the next is exp(|a-b|)), and stays small enough that
    cos(qn) is finite for every n the series can reach."""
    a = rng.uniform(0.04, 0.06) * rng.choice((-1, 1))
    b = rng.uniform(0.04, 0.06)
    va = complex(b, rng.uniform(-0.5, 0.5))
    u = [rng.gauss(0, 1) for _ in range(3)]
    length = math.sqrt(sum(c * c for c in u))
    return (complex(rng.uniform(-1, 1), a), *(va * c / length for c in u))


def _near_one(rng, q):
    return with_radius(q, rng.uniform(0.95, 1.05))


def boundary_round(rng):
    # (row, parameter maker, target ratio of spectral radius to |x|)
    slots = (
        ("pow_p", lambda: {"p": _lit(_near_one(rng, conditioned(rng, 1 / 3, 0.9)))}, 0.985),
        ("pow_p", lambda: {"p": _lit(_near_one(rng, conditioned(rng, 1 / 3, 0.9)))}, 0.995),
        # c (1 + Ik): a zero divisor, real gauge 0, spectral radius 2|c|
        ("pow_p", lambda: {"p": _lit(scaled((1, 0, 0, 1j), _complex_point(rng, rng.uniform(0.475, 0.525))))}, 0.99),
        ("n_pow_p", lambda: {"p": _lit(_near_one(rng, conditioned(rng, 1 / 3, 0.9)))}, 0.985),
        ("binom_shifted", lambda: {"m": 1, "q": _lit(_near_one(rng, conditioned(rng, 1 / 3, 0.9)))}, 0.98),
        ("binom", lambda: {"m": 2, "q": _lit(_near_one(rng, conditioned(rng, 1 / 3, 0.9)))}, 0.98),
        ("cos_qn", lambda: {"q": _lit(_boundary_trig(rng))}, 0.99),
    )
    ops = []
    for row, make, ratio in slots:
        params = make()
        rho = ref.convergence_radius(row, matrix_params(params))
        r = ratio + rng.uniform(-0.001, 0.001)
        ops.append({"kind": "series", "row": row, "params": params, "x": _complex_point(rng, rho / r)})
    # a zero-divisor ratio at 0.97 of its true radius: the program's
    # estimate for c (1 + Ik) is 0.995 of the true radius, so it must refuse
    c = _complex_point(rng, rng.uniform(0.475, 0.525))
    ops.append({"kind": "refuse", "row": "pow_p", "params": {"p": _lit(scaled((1, 0, 0, 1j), c))},
                "x": _complex_point(rng, 0.97 * 2 * abs(c))})
    # fixed inputs: the p = 0.99 series at x = 1 (3208 terms), and two
    # evaluations the program gets wrong today (see README)
    ops.append({"kind": "series", "row": "pow_p", "params": {"p": "0.99"}, "x": 1 + 0j})
    ops.append({"kind": "refuse", "row": "pow_p", "params": {"p": "1+1Ik"}, "x": 1.995 + 0j,
                "known_fault": "radius of pow_p(1+1Ik) estimated as 1.989, true radius 2"})
    ops.append({"kind": "closed", "row": "n_pow_p", "params": {"p": "0.99"}, "x": 1 + 0j,
                "known_fault": "radius of n_pow_p(0.99) estimated as 1.10, true radius 0.99"})
    return ops


# -- recurrences ---------------------------------------------------------------------


def _known_solution_recurrence(rng, order):
    """Coefficients P_0..P_M with P(x) = (x - p)(x - a_1)...(x - a_{M-1}) L.

    sum_m p**m P_m telescopes to 0, so f_n = p**n solves the relation from
    initial values p**0..p**(M-1).  det P(x) has the eigenvalues of p and of
    each a_i as roots; the a_i are kept well inside p's spectral radius, so
    p**n dominates and the iteration is stable.  p's root magnitudes are close
    (ratio >= 0.8), which keeps the candidate check well conditioned.
    """
    rho = rng.uniform(0.8, 1.2)
    p = with_radius(conditioned(rng, 0.8, 0.98), rho)
    pm = ref.from_quaternion(*p)
    poly = [ref.IDENTITY]
    for _ in range(order - 1):
        a = ref.from_quaternion(*with_radius(conditioned(rng), rho * rng.uniform(0.2, 0.5)))
        nxt = [ref.ZERO] * (len(poly) + 1)
        for r, c in enumerate(poly):
            nxt[r + 1] = ref.add(nxt[r + 1], c)
            nxt[r] = ref.sub(nxt[r], ref.mul(c, a))
        poly = nxt
    lead = ref.from_quaternion(*conditioned(rng))
    poly = [ref.mul(c, lead) for c in poly]
    coeffs = []
    for m in range(order + 1):
        lower = poly[m - 1] if m >= 1 else ref.ZERO
        upper = ref.mul(pm, poly[m]) if m < len(poly) else ref.ZERO
        coeffs.append(ref.sub(lower, upper))
    initial = [ref.power(pm, t) for t in range(order)]
    return p, rho, coeffs, initial


def _recurrence_spec(rng, order):
    while True:
        p, rho, coeffs, initial = _known_solution_recurrence(rng, order)
        sizes = [ref.norm(v) for v in ref.iterate(coeffs, initial, SPEC_TERMS + 64)]
        # keep only relations whose reference iteration neither overflows nor vanishes
        if all(1e-100 < s < 1e100 for s in sizes):
            break
    samples = [_complex_point(rng, rho / r) for r in _ladder(rng, 0.3, 0.6, 3)]
    return {
        "order": order,
        "coeffs": [_lit(ref.to_quaternion(c)) for c in coeffs],
        "initial": [_lit(ref.to_quaternion(v)) for v in initial],
        "candidate": {"catalog": "pow_p", "params": {"p": _lit(p)}},
        "x_samples": [_lit((x, 0j, 0j, 0j)) for x in samples],
    }


def recurrences_round(rng):
    ops = [
        {"kind": "paper_suite"},
        {"kind": "cli_recurrence", "bundled": "example4", "terms": 100,
         "known_fault": "verify_closed_form scales the residual by the real gauge"},
    ]
    for order in SPEC_ORDERS:
        ops.append({"kind": "cli_recurrence", "spec": _recurrence_spec(rng, order), "terms": SPEC_TERMS})
    for order in SOLVE_ORDERS:
        ops.append({"kind": "solve", "spec": _recurrence_spec(rng, order), "terms": SPEC_TERMS})
    for n in DECONVOLVE_TERMS:
        target = with_radius(conditioned(rng), rng.uniform(0.97, 1.0))
        kernel = with_radius(conditioned(rng), rng.uniform(0.3, 0.7))
        ops.append({"kind": "deconvolve", "p": _lit(target), "kernel": _lit(kernel), "terms": n})
    return ops


def probe_round():
    """A small fixed round calling every layer once; the traced run takes the
    times of layers its workload does not call from this round."""
    rng = random.Random("probe")
    p = {"p": _lit(with_radius(conditioned(rng), 0.9))}
    spec = _recurrence_spec(rng, 3)
    return [
        {"kind": "series", "row": "pow_p", "params": p, "x": 2 + 0j},
        {"kind": "closed", "row": "pow_p", "params": p, "x": 2 + 0j},
        {"kind": "paper_suite"},
        {"kind": "cli_recurrence", "spec": spec, "terms": SPEC_TERMS},
        {"kind": "solve", "spec": spec, "terms": SPEC_TERMS},
        {"kind": "deconvolve", "p": _lit(with_radius(conditioned(rng), 0.99)),
         "kernel": _lit(with_radius(conditioned(rng), 0.5)), "terms": 100},
    ]


# -- entry points --------------------------------------------------------------------


def matrix_params(params: dict) -> dict:
    """Catalog parameters as reference matrices (m stays an int)."""
    return {k: (v if k == "m" else ref.matrix_of_literal(v)) for k, v in params.items()}


def make_round(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog-sweep":
        return sweep_round(rng)
    if workload == "boundary-series":
        return boundary_round(rng)
    if workload == "recurrences":
        return recurrences_round(rng)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    for op in make_round(sys.argv[1], int(sys.argv[2])):
        print(repr(op))
