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
error (ZeroDivisor / OutsideROC / NoConvergence / DivergentSeries).  Reports
are byte-stable for identical invocations (including --seed).
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from importlib import resources
from pathlib import Path

from . import __version__, catalog
from .algebra import ZERO, Biquaternion, root_magnitudes
from .errors import BiqzError, LiteralParseError, ZeroDivisorError
from .parsing import format_literal, parse
from .recurrence import (
    ForcingTerm,
    LinearRecurrence,
    deconvolve_geometric,
    iterate,
    transform_value,
    verify_closed_form,
)
from .sequences import Sequence
from .ztransform import DEFAULT_EPS, DEFAULT_MAX_TERMS, convolve, transform

_DEFAULT_VERIFY_TOL = 1e-10
_DEFAULT_REC_TOL = 1e-9


# -- value / report plumbing -------------------------------------------------


def _value_json(q: Biquaternion) -> dict:
    return {"literal": format_literal(q), "components": list(q.components())}


def _error_name(exc: Exception) -> str:
    return type(exc).__name__.removesuffix("Error")


def _report(command, inputs, tolerances, results, ok, summary, errors=()) -> dict:
    return {
        "tool": "biqz",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
        "errors": list(errors),
        "pass": ok,
        "summary": summary,
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"{report['command']}: {'PASS' if report['pass'] else 'FAIL'}")
    for err in report["errors"]:
        print(f"  error {err['name']}: {err['message']}")
    for line in report.get("summary", []):
        print(f"  {line}")


# -- seeded draws for verify-catalog ------------------------------------------


def _draw_conditioned(rng: random.Random) -> Biquaternion:
    """A biquaternion bounded away from the zero-divisor variety.

    Near that variety the real gauge of a value is far below its component
    size, and double precision cannot resolve the identities being checked;
    the draws stay where the checks are numerically meaningful.
    """
    while True:
        q = Biquaternion(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        size_sq = q.component_norm() ** 2
        if size_sq < 0.1:
            continue
        if abs(q.complex_norm_sq()) < 0.05 * size_sq:
            continue
        big, small = root_magnitudes(q)
        if small == 0.0 or big / small > 3.0:
            continue
        return q


def _draw_point(rng: random.Random, entry: catalog.CatalogEntry, biquat_ok: bool):
    sigma = entry.roc_radius
    lo, hi = max(2.0 * sigma, 0.5), max(4.0 * sigma, 2.0)
    radius = rng.uniform(lo, hi)
    if biquat_ok:
        # rescale so the SMALLER root magnitude hits the target radius: the
        # inverse powers x**-n shrink componentwise at exactly that rate,
        # while the real gauge only fixes the geometric mean of the roots
        x = _draw_conditioned(rng)
        return x * (radius / root_magnitudes(x)[1])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(theta), radius * math.sin(theta))


def _realize_row(name: str, rng: random.Random, as_printed: bool) -> list[catalog.CatalogEntry]:
    if name in ("const_one", "ramp_n", "ramp_n2"):
        return [catalog.build(name)]
    if name in ("pow_p", "n_pow_p"):
        return [catalog.build(name, {"p": _draw_conditioned(rng)}, as_printed=as_printed)]
    if name in ("cos_qn", "sin_qn"):
        while True:
            q = _draw_conditioned(rng) * 0.8
            if abs(q.vec_abs()) >= 0.3:
                break
        q_flat = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return [catalog.build(name, {"q": q}), catalog.build(name, {"q": q_flat})]
    if name in ("binom_shifted", "binom"):
        m = rng.choice([1, 2, 3])
        return [catalog.build(name, {"m": m, "q": _draw_conditioned(rng)})]
    if name == "exp_over_fact":
        return [catalog.build(name, {"q": _draw_conditioned(rng) * 2.0})]
    raise KeyError(f"unknown catalog entry {name!r}")


# -- subcommands ---------------------------------------------------------------


def cmd_eval(args) -> tuple[dict, int]:
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise LiteralParseError(f"--param expects key=value, got {item!r}")
        params[key] = value
    entry = catalog.build(args.name, params, as_printed=args.as_printed)
    x = parse(args.at)
    series = transform(entry.sequence, x, eps=args.eps, max_terms=args.max_terms)
    closed = entry.eval(x)
    deviation = (series.value - closed).component_norm()
    budget = series.tail_bound + args.tol
    ok = deviation <= budget
    report = _report(
        "eval",
        {"name": args.name, "params": params, "at": args.at, "as_printed": args.as_printed},
        {"eps": args.eps, "tol": args.tol, "max_terms": args.max_terms},
        {
            "series_value": _value_json(series.value),
            "terms_used": series.terms_used,
            "tail_bound": series.tail_bound,
            "closed_form": _value_json(closed),
            "deviation": deviation,
            "budget": budget,
        },
        ok,
        [
            f"series  {format_literal(series.value)} ({series.terms_used} terms, tail {series.tail_bound:.3e})",
            f"closed  {format_literal(closed)}",
            f"deviation {deviation:.3e} vs budget {budget:.3e}",
        ],
    )
    return report, 0 if ok else 1


def cmd_verify_catalog(args) -> tuple[dict, int]:
    rows = args.rows.split(",") if args.rows else list(catalog.ALL_NAMES)
    for name in rows:
        if name not in catalog.BUILDERS:
            raise KeyError(f"unknown catalog entry {name!r}")
    rng = random.Random(args.seed)
    row_reports = []
    all_ok = True
    for name in rows:
        entries = _realize_row(name, rng, args.as_printed)
        max_dev = 0.0
        max_excess = -math.inf
        ok = True
        for entry in entries:
            biquat_ok = not entry.params
            for _ in range(args.points):
                x = _draw_point(rng, entry, biquat_ok)
                series = transform(entry.sequence, x, eps=args.eps, max_terms=args.max_terms)
                closed = entry.eval(x)
                deviation = (series.value - closed).component_norm()
                budget = series.tail_bound + args.tol
                max_dev = max(max_dev, deviation)
                max_excess = max(max_excess, deviation - budget)
                if deviation > budget:
                    ok = False
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
        all_ok = all_ok and ok
    report = _report(
        "verify-catalog",
        {"rows": rows, "points": args.points, "seed": args.seed, "as_printed": args.as_printed},
        {"eps": args.eps, "tol": args.tol, "max_terms": args.max_terms},
        {"rows": row_reports},
        all_ok,
        [
            f"{r['row']}: {'PASS' if r['pass'] else 'FAIL'} (max deviation {r['max_deviation']:.3e})"
            for r in row_reports
        ],
    )
    return report, 0 if all_ok else 1


def _candidate_sequence(desc: dict) -> Sequence:
    if "catalog" in desc:
        return catalog.build(desc["catalog"], desc.get("params")).sequence
    poly = [parse(c) for c in desc.get("polynomial", [])]
    geos = [
        (parse(g["coeff"]), Sequence.geometric(parse(g["ratio"])), int(g.get("delay", 0)))
        for g in desc.get("geometric", [])
    ]
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
    coeffs = [parse(c) for c in payload["coeffs"]]
    initial = [parse(v) for v in payload["initial"]]
    forcing = []
    for item in payload.get("forcing", []):
        entry = catalog.build(item["catalog"], item.get("params"))
        forcing.append(
            ForcingTerm(entry.sequence, [parse(c) for c in item["coeffs"]], entry=entry)
        )
    rec = LinearRecurrence(coeffs, initial, forcing)
    declared = payload.get("order")
    if declared is not None and int(declared) != rec.order:
        raise ValueError(f"spec declares order {declared} but has {len(coeffs)} coefficients")
    return rec


def _run_recurrence_payload(payload: dict, n_terms: int, tol: float, eps: float,
                            max_terms: int, x_samples: list[str] | None) -> tuple[dict, bool]:
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
        cand = _candidate_sequence(payload["candidate"])
        rep = verify_closed_form(rec, cand, n_terms=n_terms, tol=tol)
        results["verification"] = {
            "max_abs_error": rep.max_abs_error,
            "max_rel_error": rep.max_rel_error,
            "first_failure_index": rep.first_failure_index,
            "n_checked": rep.n_checked,
            "tolerance": rep.tolerance,
            "pass": rep.passed,
        }
        ok = ok and rep.passed
    samples = x_samples if x_samples is not None else payload.get("x_samples", [])
    checks = []
    for lit in samples:
        x = parse(lit).to_complex()
        solved = transform_value(rec, x, eps=eps, max_terms=max_terms)
        series = transform(seq, x, eps=eps, max_terms=max_terms).value
        rel = (solved - series).component_norm() / max(1.0, series.component_norm())
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
    spec = payload["deconvolve"]
    kern = parse(spec["kernel"])
    target = _candidate_sequence(spec["target"])
    n_terms = int(payload.get("roundtrip_terms", 30))
    sol = deconvolve_geometric(target, kern, n_terms + 1)
    recon = convolve(Sequence.geometric(kern), sol)
    roundtrip = 0.0
    for t in range(n_terms + 1):
        gap = (recon.term(t) - target.term(t)).component_norm()
        roundtrip = max(roundtrip, gap / max(1.0, target.term(t).component_norm()))
    ok = roundtrip <= tol
    results: dict = {
        "solution_terms": [_value_json(sol.term(t)) for t in range(min(n_terms + 1, 12))],
        "roundtrip_rel_error": roundtrip,
        "roundtrip_terms": n_terms,
    }
    if "candidate" in payload:
        cand = _candidate_sequence(payload["candidate"])
        worst = 0.0
        for t in range(n_terms + 1):
            gap = (sol.term(t) - cand.term(t)).component_norm()
            worst = max(worst, gap / max(1.0, cand.term(t).component_norm()))
        results["candidate_rel_error"] = worst
        ok = ok and worst <= tol
    return results, ok


def cmd_recurrence(args) -> tuple[dict, int]:
    payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"spec {args.spec} must be a JSON object, got {type(payload).__name__}")
    samples = args.x_samples.split(",") if args.x_samples else None
    results, ok = _run_recurrence_payload(
        payload, args.terms, args.tol, args.eps, args.max_terms, samples
    )
    report = _report(
        "recurrence",
        {"spec": str(args.spec), "terms": args.terms, "x_samples": samples},
        {"tol": args.tol, "eps": args.eps, "max_terms": args.max_terms},
        results,
        ok,
        [f"spec {args.spec}: {'PASS' if ok else 'FAIL'}"],
    )
    return report, 0 if ok else 1


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
        power = base**n
        rel = (power - expected).component_norm() / expected.component_norm()
        worst = max(worst, rel)
    ok = worst <= 1e-12
    try:
        base.inverse()
        raised = False
    except ZeroDivisorError:
        raised = True
    return {"max_rel_error": worst, "inverse_rejected": raised}, ok and raised


def cmd_paper_suite(args) -> tuple[dict, int]:
    checks = []
    all_ok = True
    for name in _BUNDLED:
        payload = load_bundled_spec(name)
        tol = 1e-10 if "deconvolve" in payload else _DEFAULT_REC_TOL
        results, ok = _run_recurrence_payload(
            payload, 40, tol, DEFAULT_EPS, DEFAULT_MAX_TERMS, None
        )
        checks.append({"name": name, "pass": ok, "results": results})
        all_ok = all_ok and ok
    detail, ok = _check_zero_divisor_powers()
    checks.append({"name": "zero_divisor_powers", "pass": ok, "results": detail})
    all_ok = all_ok and ok
    report = _report(
        "paper-suite",
        {},
        {"recurrence_tol": _DEFAULT_REC_TOL, "deconvolve_tol": 1e-10},
        {"checks": checks},
        all_ok,
        [f"{c['name']}: {'PASS' if c['pass'] else 'FAIL'}" for c in checks]
        + [f"{sum(c['pass'] for c in checks)}/{len(checks)} checks passed"],
    )
    return report, 0 if all_ok else 1


# -- argument parsing ----------------------------------------------------------


def _common_flags(sub, eps=True, tol=None, max_terms=True):
    if eps:
        sub.add_argument("--eps", type=float, default=DEFAULT_EPS,
                         help="series truncation tolerance")
    if tol is not None:
        sub.add_argument("--tol", type=float, default=tol, help="verification tolerance")
    if max_terms:
        sub.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS,
                         help="series term budget")
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
    _common_flags(p_eval, tol=_DEFAULT_VERIFY_TOL)

    p_ver = subs.add_parser("verify-catalog", help="series-vs-closed-form sweep")
    p_ver.add_argument("--rows", help="comma-separated entry names (default: all)")
    p_ver.add_argument("--points", type=int, default=20, help="points per row variant")
    p_ver.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_ver.add_argument("--as-printed", action="store_true",
                       help="use the inconsistent n_pow_p variant (fails by design)")
    _common_flags(p_ver, tol=_DEFAULT_VERIFY_TOL)

    p_rec = subs.add_parser("recurrence", help="run a JSON recurrence spec")
    p_rec.add_argument("spec", help="path to a recurrence spec file")
    p_rec.add_argument("--terms", type=int, default=40, help="terms to iterate/verify")
    p_rec.add_argument("--x-samples", metavar="LIT,LIT,...",
                       help="override transform sample points")
    _common_flags(p_rec, tol=_DEFAULT_REC_TOL)

    p_suite = subs.add_parser("paper-suite",
                              help="run the bundled worked-example suite end to end")
    p_suite.add_argument("--json", action="store_true", help="emit a JSON report")

    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "verify-catalog": cmd_verify_catalog,
    "recurrence": cmd_recurrence,
    "paper-suite": cmd_paper_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
    except BiqzError as exc:
        report = _failure_report(args, exc)
        code = 3
    except (ValueError, KeyError, OSError) as exc:
        report = _failure_report(args, exc)
        code = 2
    _emit(report, args.json)
    return code


def _failure_report(args, exc: Exception) -> dict:
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    return _report(args.command, {}, {}, {}, False, [],
                   [{"name": _error_name(exc), "message": message}])


if __name__ == "__main__":
    sys.exit(main())
