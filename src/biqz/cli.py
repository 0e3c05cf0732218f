"""Command-line front end.

Subcommands:

    eval            evaluate one catalog transform as a truncated series and
                    compare it against its closed form
    verify-catalog  sweep catalog rows at random in-ROC points (seeded)
    recurrence      load a JSON recurrence spec, iterate it, verify an
                    optional candidate closed form, cross-check transform
                    values at sample points
    paper-suite     run the five bundled worked examples plus the
                    zero-divisor power identity end to end

Exit codes: 0 pass, 1 verification failure, 2 parse/spec error, 3 domain
error (ZeroDivisor / OutsideROC / NoConvergence / DivergentSeries); a reader
that closes stdout early (``| head``) changes neither the code nor stderr.
Reports are byte-stable for identical invocations (including --seed).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__, catalog
from .algebra import ZERO, Biquaternion, _admit, _gap, root_magnitudes
from .errors import BiqzError, LiteralParseError
from .parsing import format_literal, parse
from .recurrence import (
    ForcingTerm,
    LinearRecurrence,
    _relative,
    deconvolve_geometric,
    iterate,
    transform_value,
    verify_closed_form,
)
from .sequences import Sequence
from .ztransform import DEFAULT_EPS, DEFAULT_MAX_TERMS, _check_limits, _series, convolve, transform

_DEFAULT_VERIFY_TOL = 1e-10
_DEFAULT_REC_TOL = 1e-9
_DECONVOLVE_TOL = 1e-10


# -- value / report plumbing -------------------------------------------------


def _value_json(q: Biquaternion) -> dict:
    return {"literal": format_literal(q), "components": [c + 0.0 for c in q.components()]}  # every zero as 0.0


def _tolerances(args) -> dict:
    return {"eps": args.eps, "tol": args.tol, "max_terms": args.max_terms}


def _json(value, indent: str, put) -> None:
    """Write value through put as json.dumps(value, indent=2, sort_keys=True) would,
    non-finite floats as the strings "inf", "-inf", "nan"; indent is the newline and
    spaces that start value's line.  Any other type, or a non-str key, raises TypeError."""
    kind = type(value)
    if kind is str:
        put(_quote(value))
    elif kind is float:
        put(repr(value) if math.isfinite(value) else _quote(repr(value)))
    elif kind is dict:
        inner = indent + "  "
        for n, key in enumerate(sorted(value)):
            put(("," if n else "{") + inner + _quote(key) + ": ")
            _json(value[key], inner, put)
        put(indent + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner = indent + "  "
        for n, item in enumerate(value):
            put(("," if n else "[") + inner)
            _json(item, inner, put)
        put(indent + "]" if value else "[]")
    elif kind is int:
        put(repr(value))
    elif kind is bool or value is None:
        put("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        pieces: list[str] = []
        _json(report, "\n", pieces.append)
        print("".join(pieces))
        return
    print(f"{report['command']}: {'PASS' if report['pass'] else 'FAIL'}")
    for err in report["errors"]:
        print(f"  error {err['name']}: {err['message']}")
    for line in report.get("summary", []):
        print(f"  {line}")


# -- seeded draws for verify-catalog ------------------------------------------


def _draw_point(rng: random.Random, entry: catalog.CatalogEntry):
    sigma = entry.roc_radius
    lo, hi = max(2.0 * sigma, 0.5), max(4.0 * sigma, 2.0)
    radius = rng.uniform(lo, hi)
    if not entry.params:  # a parameterised closed form holds only at commuting points
        # rescale so the SMALLER root magnitude hits the target radius: the
        # inverse powers x**-n shrink componentwise at exactly that rate,
        # while the real gauge only fixes the geometric mean of the roots
        x = catalog.draw_conditioned(rng)
        return x * (radius / root_magnitudes(x)[1])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(theta), radius * math.sin(theta))


# -- subcommands: each returns (inputs, tolerances, results, ok, summary) -----


def _series_check(entry: catalog.CatalogEntry, x, args):
    """(series, closed form, their deviation, its budget: tail bound + tol,
    excess of the deviation over the budget) at x.  The check passes iff the
    excess is <= 0.  An uncertified series, one that spent ``max_terms``, has
    an inf budget that any deviation would meet, so its excess is inf."""
    _check_limits(args.eps, args.max_terms)  # then x is admitted once, as transform admits it
    y = _admit(x, entry.sequence.radius_hint, "radius hint")
    series, closed = _series(entry.sequence, y, args.eps, args.max_terms), entry._eval_fn(y)
    deviation = (series.value - closed).component_norm()
    budget = series.tail_bound + args.tol
    return series, closed, deviation, budget, deviation - budget if series.certified else math.inf


def cmd_eval(args) -> tuple[dict, dict, dict, bool, list]:
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise LiteralParseError(f"--param expects key=value, got {item!r}")
        params[key] = value
    entry = catalog.build(args.name, params, as_printed=args.as_printed)
    series, closed, deviation, budget, excess = _series_check(entry, parse(args.at), args)
    return (
        {"name": args.name, "params": params, "at": args.at, "as_printed": args.as_printed},
        _tolerances(args),
        {
            "series_value": _value_json(series.value),
            "terms_used": series.terms_used,
            "tail_bound": series.tail_bound,
            "closed_form": _value_json(closed),
            "deviation": deviation,
            "budget": budget,
        },
        excess <= 0,
        [
            f"series  {format_literal(series.value)} ({series.terms_used} terms, tail {series.tail_bound:.3e})",
            f"closed  {format_literal(closed)}",
            f"deviation {deviation:.3e} vs budget {budget:.3e}",
        ],
    )


def cmd_verify_catalog(args) -> tuple[dict, dict, dict, bool, list]:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    rows = args.rows.split(",") if args.rows else list(catalog.ALL_NAMES)
    for name in rows:
        if name not in catalog.ROWS:
            raise KeyError(f"unknown catalog entry {name!r}")
    rng = random.Random(args.seed)
    row_reports = []
    for name in rows:
        draws = catalog.ROWS[name].sample(rng)
        entries = [catalog.build(name, p, as_printed=args.as_printed) for p in draws]
        max_dev = 0.0
        max_excess = -math.inf
        ok = True
        for entry in entries:
            for _ in range(args.points):
                _, _, deviation, _, excess = _series_check(entry, _draw_point(rng, entry), args)
                max_dev = max(max_dev, deviation)
                max_excess = max(max_excess, excess)
                ok = ok and excess <= 0
        row_reports.append(
            {
                "row": name,
                "variants": len(entries),
                "points_per_variant": args.points,
                "max_deviation": max_dev,
                "max_excess_over_budget": max_excess,
                "pass": ok,
            }
        )
    return (
        {"rows": rows, "points": args.points, "seed": args.seed, "as_printed": args.as_printed},
        _tolerances(args),
        {"rows": row_reports},
        all(r["pass"] for r in row_reports),
        [
            f"{r['row']}: {'PASS' if r['pass'] else 'FAIL'} (max deviation {r['max_deviation']:.3e})"
            for r in row_reports
        ],
    )


def _shaped(value, kind: type, key: str):
    """value if it is a JSON list (kind=list) or object (kind=dict), else a
    ValueError naming key; a string in a list's place would iterate by letter."""
    if not isinstance(value, kind):
        shape = "list" if kind is list else "object"
        raise ValueError(f"{key} must be a JSON {shape}, got {type(value).__name__} {value!r}")
    return value


def _listed(obj: dict, key: str, required: bool = True) -> list:
    """The JSON list under key: KeyError if required and absent, [] if optional."""
    return _shaped(obj[key] if required else obj.get(key, []), list, key)


def _candidate_sequence(desc, key: str) -> Sequence:
    desc = _shaped(desc, dict, key)
    if "catalog" in desc:
        return catalog.build(desc["catalog"], _shaped(desc.get("params", {}), dict, "params")).sequence
    poly = [parse(c) for c in _listed(desc, "polynomial", required=False)]
    geos = []
    for g in _listed(desc, "geometric", required=False):
        g = _shaped(g, dict, "geometric")
        geos.append((parse(g["coeff"]), Sequence.geometric(parse(g["ratio"])),
                     catalog.nonnegative_int("delay", g.get("delay", 0))))
    if not poly and not geos:
        raise ValueError("candidate descriptor needs 'catalog', 'polynomial' or 'geometric'")

    def term(n: int) -> Biquaternion:
        acc = ZERO
        for degree, coeff in enumerate(poly):
            acc = acc + coeff * (n**degree)
        for coeff, powers, dly in geos:
            if n >= dly:
                acc = acc + coeff * powers.term(n - dly)
        return acc

    return Sequence(term, name="candidate")


def _load_recurrence(payload: dict) -> LinearRecurrence:
    coeffs = [parse(c) for c in _listed(payload, "coeffs")]
    initial = [parse(v) for v in _listed(payload, "initial")]
    forcing = []
    for item in _listed(payload, "forcing", required=False):
        item = _shaped(item, dict, "forcing")
        entry = catalog.build(item["catalog"], _shaped(item.get("params", {}), dict, "params"))
        forcing.append(ForcingTerm(entry.sequence, [parse(c) for c in _listed(item, "coeffs")], entry=entry))
    rec = LinearRecurrence(coeffs, initial, forcing)
    if "order" in payload:
        declared = catalog.nonnegative_int("order", payload["order"])
        if declared != rec.order:
            raise ValueError(f"spec declares order {declared} but has {len(coeffs)} coefficients")
    return rec


def _run_recurrence_payload(payload: dict, n_terms: int, tol: float, eps: float = DEFAULT_EPS,
                            max_terms: int = DEFAULT_MAX_TERMS,
                            x_samples: list[str] | None = None) -> tuple[dict, bool]:
    if "deconvolve" in payload:
        return _run_deconvolve_payload(payload, tol)
    rec = _load_recurrence(payload)
    seq = iterate(rec, n_terms)
    results: dict = {
        "order": rec.order,
        "terms": [_value_json(seq.term(n)) for n in range(min(n_terms, 12))],
    }
    ok = True
    if "candidate" in payload:
        cand = _candidate_sequence(payload["candidate"], "candidate")
        rep = verify_closed_form(rec, cand, n_terms=n_terms, tol=tol)
        results["verification"] = {**rep._asdict(), "pass": rep.passed}
        ok = ok and rep.passed
    samples = x_samples if x_samples is not None else _listed(payload, "x_samples", required=False)
    checks = []
    for lit in samples:
        x = parse(lit).to_complex()
        solved = transform_value(rec, x, eps=eps, max_terms=max_terms)
        series = transform(seq, x, eps=eps, max_terms=max_terms).value
        rel = _relative((solved - series).component_norm(), series.component_norm())
        passed = rel <= max(tol, 1e-9)
        checks.append(
            {
                "x": lit,
                "transform_value": _value_json(solved),
                "series_value": _value_json(series),
                "rel_error": rel,
                "pass": passed,
            }
        )
        ok = ok and passed
    if checks:
        results["transform_checks"] = checks
    return results, ok


def _run_deconvolve_payload(payload: dict, tol: float) -> tuple[dict, bool]:
    spec = _shaped(payload["deconvolve"], dict, "deconvolve")
    kern = parse(spec["kernel"])
    target = _candidate_sequence(spec["target"], "target")
    n_terms = catalog.nonnegative_int("roundtrip_terms", payload.get("roundtrip_terms", 30))
    sol = deconvolve_geometric(target, kern, n_terms + 1)
    roundtrip = _worst_rel_gap(convolve(Sequence.geometric(kern), sol), target, n_terms)
    ok = roundtrip <= tol
    results: dict = {
        "solution_terms": [_value_json(sol.term(t)) for t in range(min(n_terms + 1, 12))],
        "roundtrip_rel_error": roundtrip,
        "roundtrip_terms": n_terms,
    }
    if "candidate" in payload:
        worst = _worst_rel_gap(sol, _candidate_sequence(payload["candidate"], "candidate"), n_terms)
        results["candidate_rel_error"] = worst
        ok = ok and worst <= tol
    return results, ok


def _worst_rel_gap(got: Sequence, want: Sequence, n_terms: int) -> float:
    """max over t = 0..n_terms of |got(t) - want(t)| / max(1, |want(t)|), read by
    ``_relative``: NaN, or a nonzero gap over an overflowed size, as inf."""
    return max(_relative(_gap(got.term(t), want.term(t)), want.term(t).component_norm())
               for t in range(n_terms + 1))


def cmd_recurrence(args) -> tuple[dict, dict, dict, bool, list]:
    payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"spec {args.spec} must be a JSON object, got {type(payload).__name__}")
    samples = args.x_samples.split(",") if args.x_samples else None
    results, ok = _run_recurrence_payload(
        payload, args.terms, args.tol, args.eps, args.max_terms, samples
    )
    return (
        {"spec": str(args.spec), "terms": args.terms, "x_samples": samples},
        _tolerances(args),
        results,
        ok,
        [f"spec {args.spec}: {'PASS' if ok else 'FAIL'}"],
    )


_BUNDLED = ("example1", "example2", "example3", "example4", "example5")


def load_bundled_spec(name: str) -> dict:
    """One of the five bundled worked-example specs, by bare name."""
    if name not in _BUNDLED:
        raise KeyError(f"unknown bundled spec {name!r}; known: {', '.join(_BUNDLED)}")
    text = resources.files("biqz").joinpath("specs", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def _check_zero_divisor_powers() -> tuple[dict, bool]:
    base = parse("1+1Ik")
    worst = 0.0
    for n in range(1, 21):
        expected = base * 2.0 ** (n - 1)
        worst = max(worst, (base**n - expected).component_norm() / expected.component_norm())
    ok = worst <= 1e-12
    raised = not base.is_invertible()  # inverse() raises ZeroDivisorError exactly when this is False
    return {"max_rel_error": worst, "inverse_rejected": raised}, ok and raised


def cmd_paper_suite(args) -> tuple[dict, dict, dict, bool, list]:
    checks = []
    for name in _BUNDLED:
        payload = load_bundled_spec(name)
        tol = _DECONVOLVE_TOL if "deconvolve" in payload else _DEFAULT_REC_TOL
        results, ok = _run_recurrence_payload(payload, 40, tol)
        checks.append({"name": name, "pass": ok, "results": results})
    detail, ok = _check_zero_divisor_powers()
    checks.append({"name": "zero_divisor_powers", "pass": ok, "results": detail})
    return (
        {},
        {"recurrence_tol": _DEFAULT_REC_TOL, "deconvolve_tol": _DECONVOLVE_TOL},
        {"checks": checks},
        all(c["pass"] for c in checks),
        [f"{c['name']}: {'PASS' if c['pass'] else 'FAIL'}" for c in checks]
        + [f"{sum(c['pass'] for c in checks)}/{len(checks)} checks passed"],
    )


# -- argument parsing ----------------------------------------------------------


def _common_flags(sub, tol):
    sub.add_argument("--eps", type=float, default=DEFAULT_EPS, help="series truncation tolerance")
    sub.add_argument("--tol", type=float, default=tol, help="verification tolerance")
    sub.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS, help="series term budget")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biqz",
        description="Biquaternion Z transforms: evaluate, verify, and solve recurrences.",
    )
    parser.add_argument("--version", action="version", version=f"biqz {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a catalog transform at a point")
    p_eval.add_argument("name", help=f"catalog entry: {', '.join(catalog.ALL_NAMES)}")
    p_eval.add_argument("--param", action="append", metavar="KEY=LITERAL",
                        help="entry parameter, e.g. p=2i (repeatable)")
    p_eval.add_argument("--at", required=True, metavar="LITERAL", help="evaluation point")
    p_eval.add_argument("--as-printed", action="store_true",
                        help="use the inconsistent n_pow_p variant")
    _common_flags(p_eval, _DEFAULT_VERIFY_TOL)
    p_eval.set_defaults(run=cmd_eval)

    p_ver = subs.add_parser("verify-catalog", help="series-vs-closed-form sweep")
    p_ver.add_argument("--rows", help="comma-separated entry names (default: all)")
    p_ver.add_argument("--points", type=int, default=20, help="points per row variant")
    p_ver.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_ver.add_argument("--as-printed", action="store_true",
                       help="use the inconsistent n_pow_p variant (fails by design)")
    _common_flags(p_ver, _DEFAULT_VERIFY_TOL)
    p_ver.set_defaults(run=cmd_verify_catalog)

    p_rec = subs.add_parser("recurrence", help="run a JSON recurrence spec")
    p_rec.add_argument("spec", help="path to a recurrence spec file")
    p_rec.add_argument("--terms", type=int, default=40, help="terms to iterate/verify")
    p_rec.add_argument("--x-samples", metavar="LIT,LIT,...",
                       help="override transform sample points")
    _common_flags(p_rec, _DEFAULT_REC_TOL)
    p_rec.set_defaults(run=cmd_recurrence)

    p_suite = subs.add_parser("paper-suite",
                              help="run the bundled worked-example suite end to end")
    p_suite.add_argument("--json", action="store_true", help="emit a JSON report")
    p_suite.set_defaults(run=cmd_paper_suite)

    return parser


# built on first use, not at import; parse_args leaves the parser unchanged
# (append actions copy their default), so one tree serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    errors = []
    try:
        if not getattr(args, "tol", 0.0) >= 0:  # a NaN budget would fail every check
            raise ValueError(f"--tol must be >= 0, got {args.tol}")
        inputs, tolerances, results, ok, summary = args.run(args)
        code = 0 if ok else 1
    except (BiqzError, ValueError, KeyError, OSError) as exc:
        inputs, tolerances, results, ok, summary = {}, {}, {}, False, []
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        errors.append({"name": type(exc).__name__.removesuffix("Error"), "message": str(message)})
        code = 3 if isinstance(exc, BiqzError) else 2
    report = {
        "tool": "biqz",
        "version": __version__,
        "command": args.command,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
        "errors": errors,
        "pass": ok,
        "summary": summary,
    }
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): what is still buffered goes to
        # the null device, so the flush at exit prints no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
