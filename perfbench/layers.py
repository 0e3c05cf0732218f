"""Per-layer metrics: microbenchmarks of algebra, parsing and sequences, and
the figures taken from the traced run's spans.

Each microbenchmark times batches of calls, sized so a batch lasts at least a
millisecond, and reports the median time per call over the batches run in its
share of the budget.  The algebra ones run at a generic argument and at one
near the zero-divisor variety (suffix ``_zd``).
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

from biqz import Biquaternion, catalog, exp, format_literal, parse

import inputs
import reference as ref

ALGEBRA = ("ctor", "mul", "add", "inverse", "component_norm", "exp", "exp_degenerate", "pow")
POW_EXPONENT = 2048
TERMS_SKIPPED = 64  # catalog.build has already computed these
TERMS_PER_BATCH = 64
MIN_BATCHES = 7


def _per_call(fn, budget: float) -> float:
    """Median seconds per call of fn() over batches filling ``budget``."""
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - start >= 1e-3:
            break
        n *= 2
    samples = []
    deadline = perf_counter() + budget
    while len(samples) < MIN_BATCHES or perf_counter() < deadline:
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples)


def _per_term(row: str, params: dict, budget: float) -> float:
    """Median seconds per term of a fresh entry, past the terms build made."""
    samples = []
    deadline = perf_counter() + budget
    while len(samples) < MIN_BATCHES or perf_counter() < deadline:
        seq = catalog.build(row, params).sequence
        start = perf_counter()
        for n in range(TERMS_SKIPPED, TERMS_SKIPPED + TERMS_PER_BATCH):
            seq.term(n)
        samples.append((perf_counter() - start) / TERMS_PER_BATCH)
    return statistics.median(samples)


def _arguments(rng):
    """(generic, near zero divisor) pairs of operands for each algebra call."""
    def generic():
        return inputs.with_radius(inputs.conditioned(rng), 1.0)

    def near_zd():
        # c (1 + Ik) is a zero divisor; a small generic offset keeps it invertible
        c = complex(rng.uniform(0.4, 0.6), rng.uniform(-0.1, 0.1))
        off = inputs.scaled(inputs.conditioned(rng), 1e-3)
        return inputs.with_radius(tuple(a + b for a, b in zip((c, 0, 0, 1j * c), off)), 1.0)

    def degenerate(w):
        a = rng.uniform(0.3, 0.9)
        return (w, complex(a, 0.0), complex(0.0, a), 0j)  # nilpotent vector part

    return {
        "": (generic(), generic(), degenerate(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))),
        "_zd": (near_zd(), near_zd(), degenerate(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-3)),
    }


def microbenchmarks(seed: int, budget: float) -> dict[str, float]:
    rng = random.Random(f"layers/{seed}")
    rows = _sequence_params(rng)
    args = _arguments(rng)
    share = budget / (len(ALGEBRA) * len(args) + 2 + len(rows))
    out = {}
    for suffix, (a_raw, b_raw, d_raw) in args.items():
        a, b, d = Biquaternion(*a_raw), Biquaternion(*b_raw), Biquaternion(*d_raw)
        calls = {
            "ctor": lambda: Biquaternion(*a_raw),
            "mul": lambda: a * b,
            "add": lambda: a + b,
            "inverse": a.inverse,
            "component_norm": a.component_norm,
            "exp": lambda: exp(a),
            "exp_degenerate": lambda: exp(d),
            "pow": lambda: a**POW_EXPONENT,
        }
        for name in ALGEBRA:
            out[f"algebra.{name}{suffix}_us"] = _per_call(calls[name], share) * 1e6
    value = Biquaternion(*args[""][0])
    text = format_literal(value)
    out["parsing.parse_us"] = _per_call(lambda: parse(text), share) * 1e6
    out["parsing.format_us"] = _per_call(lambda: format_literal(value), share) * 1e6
    for row, params in rows.items():
        out[f"sequences.term_us.{row}"] = _per_term(row, params, share) * 1e6
    return out


def _sequence_params(rng) -> dict[str, dict]:
    """Parameters with spectral radius 0.9 for every catalog row."""
    def lit(radius=0.9):
        return ref.literal(*inputs.with_radius(inputs.conditioned(rng), radius))

    trig = ref.literal(*inputs.scaled(inputs.conditioned(rng), 0.1))
    return {
        "const_one": {}, "ramp_n": {}, "ramp_n2": {},
        "pow_p": {"p": lit()}, "n_pow_p": {"p": lit()},
        "cos_qn": {"q": trig}, "sin_qn": {"q": trig},
        "binom_shifted": {"m": 2, "q": lit()}, "binom": {"m": 2, "q": lit()},
        "exp_over_fact": {"q": lit(2.0)},
    }


# -- figures from spans -------------------------------------------------------------

# metric name -> (span name, statistic, scale); times of a layer the workload
# never calls come from the probe round, so every time is a measurement
SPAN_TIMES = {
    "catalog.build_ms": ("catalog.build", "median", 1e3),
    "catalog.build_s": ("catalog.build", "busy", 1.0),
    "catalog.eval_us": ("catalog.eval", "median", 1e6),
    "ztransform.transform_s": ("ztransform.transform", "busy", 1.0),
    "ztransform.us_per_term": ("ztransform.transform", "per_count", 1e6),
    "recurrence.iterate_us_per_term": ("recurrence.iterate", "per_count", 1e6),
    "recurrence.verify_s": ("recurrence.verify_closed_form", "busy", 1.0),
    "recurrence.transform_value_ms": ("recurrence.transform_value", "median", 1e3),
    "recurrence.deconvolve_s": ("recurrence.deconvolve_geometric", "busy", 1.0),
    "recurrence.convolve_s": ("ztransform.convolve", "busy", 1.0),
    "cli.paper_suite_ms": ("cli.paper_suite", "median", 1e3),
    "cli.recurrence_ms": ("cli.recurrence", "median", 1e3),
}


def span_metrics(workload, probe) -> dict[str, float]:
    """Per-layer figures from ``SpanStats`` of the workload's traced rounds,
    falling back to those of the probe round for layers it does not call."""
    out = {}
    for metric, (span, stat, factor) in SPAN_TIMES.items():
        stats = workload if workload.has(span) else probe
        value = {
            "median": stats.median,
            "busy": stats.busy_per_round,
            "per_count": stats.per_count,
        }[stat](span)
        out[metric] = value * factor
    # counts per round repeat exactly for a given seed; 0 when not called
    out["catalog.builds"] = workload.calls_per_round("catalog.build")
    out["ztransform.transforms"] = workload.calls_per_round("ztransform.transform")
    out["ztransform.terms_used"] = workload.count_per_round("ztransform.transform")
    return out
