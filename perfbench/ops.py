"""Running the workloads' operations through biqz's public API, and checking
what they return against the matrix reference.

An operation is one dict made by ``inputs``.  ``run_op`` performs it and
returns its outcome; every public call goes through ``tracer.call`` so the
traced run can record a span around it.  ``check`` compares an outcome with
the reference and returns the problems it finds (none when correct); it runs
outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from biqz import (
    LinearRecurrence,
    Sequence,
    catalog,
    cli,
    convolve,
    deconvolve_geometric,
    iterate,
    parse,
    transform,
    transform_value,
    verify_closed_form,
)
from biqz.errors import OutsideROCError

import reference as ref
from inputs import matrix_params

# Rounding allowances.  A series value may differ from the closed form by its
# reported tail bound plus SERIES_ROUNDING * sqrt(terms) * S, where S is the
# sum of the terms' sizes (at least 1), the scale of the summation's rounding;
# over many seeds the largest excess seen was 0.28 of that with epsilon in
# place of SERIES_ROUNDING.  Closed forms must agree to CLOSED_REL and
# recurrence values, whose error grows over their iteration, to REL, both
# relative to max(1, |reference value|).
SERIES_ROUNDING = 16 * 2.0**-52
CLOSED_REL = 1e-12
REL = 1e-9
BUNDLED = ("example1", "example2", "example3", "example4", "example5")


# -- preparing a round ---------------------------------------------------------------


def prepare(ops: list[dict], workdir: Path) -> dict:
    """Parse points once, write spec files and resolve entry references.

    Returns the context ``check`` needs.  Nothing here is timed.
    """
    bundled = {name: cli.load_bundled_spec(name) for name in BUNDLED}
    builds = {}
    for n, op in enumerate(ops):
        if op["kind"] == "build":
            builds[op["entry"]] = op
        if "entry" in op and op["kind"] != "build":
            op["row"] = builds[op["entry"]]["row"]
            op["params"] = builds[op["entry"]]["params"]
        if "x" in op:
            op["_x"] = parse(op["x"]) if isinstance(op["x"], str) else op["x"]
        if op["kind"] == "cli_recurrence":
            if "bundled" in op:
                op["spec"] = bundled[op["bundled"]]
            path = workdir / f"spec-{n}.json"
            path.write_text(json.dumps(op["spec"]), encoding="utf-8")
            op["_path"] = str(path)
    return {"bundled": bundled}


# -- running -------------------------------------------------------------------------------


def _terms(tv):
    return tv.terms_used


def _run_cli(tr, name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call(name, cli.main, argv)
    return code, out.getvalue()


def _convolve_prefix(kernel_seq, solution, n):
    recon = convolve(kernel_seq, solution)
    return recon.prefix(n)


def run_op(op: dict, state: dict, tr) -> tuple:
    kind = op["kind"]
    with tr.op(kind):
        try:
            return _run(op, kind, state, tr)
        except Exception as exc:  # reported by check as a failed operation
            return ("error", type(exc).__name__, str(exc))


def _run(op, kind, state, tr):
    if kind == "build":
        state[op["entry"]] = tr.call("catalog.build", catalog.build, op["row"], op["params"])
        return ("built",)
    if kind == "point":
        entry = state[op["entry"]]
        tv = tr.call("ztransform.transform", transform, entry.sequence, op["_x"], count=_terms)
        tr.tally("ztransform.certified", tv.certified)
        closed = tr.call("catalog.eval", entry.eval, op["_x"])
        return (tv.value, tv.terms_used, tv.tail_bound, closed)
    if kind in ("refuse", "closed"):
        entry = state.get(op.get("entry"))
        if entry is None:
            entry = tr.call("catalog.build", catalog.build, op["row"], op["params"])
        try:
            return ("value", tr.call("catalog.eval", entry.eval, op["_x"]))
        except OutsideROCError:
            return ("refused",)
    if kind == "series":
        entry = tr.call("catalog.build", catalog.build, op["row"], op["params"])
        # the series is summed over the entry's own terms; the view carries no
        # radius hint, so the program's radius estimate does not refuse points
        # the true radius admits (that refusal is measured by "closed" ops)
        view = Sequence(entry.sequence.term, name=op["row"])
        tv = tr.call("ztransform.transform", transform, view, op["_x"], count=_terms)
        tr.tally("ztransform.certified", tv.certified)
        return (tv.value, tv.terms_used, tv.tail_bound)
    if kind == "paper_suite":
        return _run_cli(tr, "cli.paper_suite", ["paper-suite", "--json"])
    if kind == "cli_recurrence":
        return _run_cli(tr, "cli.recurrence",
                        ["recurrence", op["_path"], "--terms", str(op["terms"]), "--json"])
    if kind == "solve":
        spec, n = op["spec"], op["terms"]
        coeffs = [tr.call("parsing.parse", parse, c) for c in spec["coeffs"]]
        initial = [tr.call("parsing.parse", parse, v) for v in spec["initial"]]
        rec = LinearRecurrence(coeffs, initial)
        seq = tr.call("recurrence.iterate", iterate, rec, n, count=lambda _: n)
        cand = spec["candidate"]
        entry = tr.call("catalog.build", catalog.build, cand["catalog"], cand["params"])
        report = tr.call("recurrence.verify_closed_form", verify_closed_form, rec, entry.sequence, n)
        values = [tr.call("recurrence.transform_value", transform_value, rec,
                          tr.call("parsing.parse", parse, lit).to_complex())
                  for lit in spec["x_samples"]]
        return (seq.prefix(n), report.passed, report.max_rel_error, values)
    if kind == "deconvolve":
        n = op["terms"]
        target = tr.call("catalog.build", catalog.build, "pow_p", {"p": op["p"]}).sequence
        kernel = tr.call("parsing.parse", parse, op["kernel"])
        solution = tr.call("recurrence.deconvolve_geometric", deconvolve_geometric, target, kernel, n)
        recon = tr.call("ztransform.convolve", _convolve_prefix, Sequence.geometric(kernel), solution, n)
        return (solution.prefix(n), recon)
    raise KeyError(kind)


# -- checking ------------------------------------------------------------------------------


def _mat(q):
    return ref.from_quaternion(q.w, q.x, q.y, q.z)


def _mat_json(v):
    c = v["components"]
    return ref.from_quaternion(*(complex(c[2 * t], c[2 * t + 1]) for t in range(4)))


def _close(got, want, rel=REL) -> bool:
    return ref.dist(got, want) <= rel * max(1.0, ref.norm(want))


def _point(x):
    return ref.matrix_of_literal(x) if isinstance(x, str) else x


def check(op: dict, outcome: tuple, ctx: dict) -> list[str]:
    """Problems with ``outcome``, judged by the reference; [] when correct."""
    if outcome[0] == "error":
        return [f"raised {outcome[1]}: {outcome[2]}"]
    kind = op["kind"]
    if kind == "build":
        return []
    if kind == "refuse":
        return [] if outcome == ("refused",) else ["a point inside the true radius was not refused"]
    if kind in ("point", "series", "closed"):
        mparams, point = matrix_params(op["params"]), _point(op["x"])
        want = ref.transform_closed_form(op["row"], mparams, point)
        if kind == "closed":
            if outcome == ("refused",):
                return ["a point outside the true radius was refused"]
            if _close(_mat(outcome[1]), want, rel=CLOSED_REL):
                return []
            return ["closed form differs from the reference"]
        problems = []
        value, terms, tail = outcome[:3]
        sizes = max(1.0, sum(ref.norm(t) for t in ref.series_terms(op["row"], mparams, point, terms)))
        if not math.isfinite(tail):
            problems.append("series left uncertified")
        elif ref.dist(_mat(value), want) > tail + SERIES_ROUNDING * math.sqrt(terms) * sizes:
            problems.append(f"series value off by more than its tail bound {tail:.3g}")
        if kind == "point" and not _close(_mat(outcome[3]), want, rel=CLOSED_REL):
            problems.append("closed form differs from the reference")
        return problems
    if kind == "paper_suite":
        return _check_paper_suite(outcome, ctx)
    if kind == "cli_recurrence":
        code, text = outcome
        report = json.loads(text)
        problems = _check_recurrence_results(report["results"], op["spec"])
        if code != 0 or not report["pass"]:
            problems.append(f"exit code {code}, pass {report['pass']}")
        return problems
    if kind == "solve":
        return _check_solve(op, outcome)
    if kind == "deconvolve":
        return _check_deconvolve(op, outcome)
    raise KeyError(kind)


def _catalog_terms(name: str, params: dict):
    """n -> f_n of a catalog row, from the reference."""
    terms = ref.row_terms(name, matrix_params(params))
    seen = []

    def term(n):
        while len(seen) <= n:
            seen.append(next(terms))
        return seen[n]

    return term


def _spec_reference(spec: dict):
    coeffs = [ref.matrix_of_literal(c) for c in spec["coeffs"]]
    initial = [ref.matrix_of_literal(v) for v in spec["initial"]]
    forcing = []
    for item in spec.get("forcing", []):
        params = item.get("params") or {}
        g = _catalog_terms(item["catalog"], params)
        big_g = _closed_form_at(item["catalog"], matrix_params(params))
        forcing.append((g, big_g, [ref.matrix_of_literal(c) for c in item["coeffs"]]))
    return coeffs, initial, forcing


def _closed_form_at(name: str, mparams: dict):
    """x -> the row's transform at a complex point x."""
    return lambda x: ref.transform_closed_form(name, mparams, x if mparams else ref.scalar(x))


def _check_recurrence_results(results: dict, spec: dict) -> list[str]:
    coeffs, initial, forcing = _spec_reference(spec)
    problems = []
    terms = results["terms"]
    want = ref.iterate(coeffs, initial, len(terms), [(g, qs) for g, _, qs in forcing])
    bad = [n for n, (t, w) in enumerate(zip(terms, want)) if not _close(_mat_json(t), w)]
    if bad:
        problems.append(f"iterate differs from the reference at indices {bad}")
    if "candidate" in spec and not results["verification"]["pass"]:
        v = results["verification"]
        problems.append(f"candidate verification failed at index {v['first_failure_index']} "
                        f"(relative error {v['max_rel_error']:.3g})")
    for item in results.get("transform_checks", []):
        x = ref.parse_literal(item["x"])[0]
        solved = ref.solve_transform(coeffs, initial, x, forcing)
        for key in ("transform_value", "series_value"):
            if not _close(_mat_json(item[key]), solved):
                problems.append(f"{key} at x = {item['x']} differs from the reference solve")
    return problems


def _deconvolve_reference(target_p: str, kernel: str, n: int):
    """f_t = g_t - K g_{t-1} solves sum_n K**n f_{t-n} = g_t for g_t = p**t."""
    g = _catalog_terms("pow_p", {"p": target_p})
    k = ref.matrix_of_literal(kernel)
    return [g(0)] + [ref.sub(g(t), ref.mul(k, g(t - 1))) for t in range(1, n)], g


def _check_paper_suite(outcome, ctx) -> list[str]:
    code, text = outcome
    report = json.loads(text)
    problems = [] if code == 0 and report["pass"] else [f"exit code {code}, pass {report['pass']}"]
    for item in report["results"]["checks"]:
        name, results = item["name"], item["results"]
        if name == "zero_divisor_powers":
            if not results["inverse_rejected"] or results["max_rel_error"] > 1e-12:
                problems.append("zero-divisor power identity not confirmed")
            continue
        spec = ctx["bundled"][name]
        if "deconvolve" in spec:
            d = spec["deconvolve"]
            n = len(results["solution_terms"])
            want, _ = _deconvolve_reference(d["target"]["params"]["p"], d["kernel"], n)
            if not all(_close(_mat_json(t), w) for t, w in zip(results["solution_terms"], want)):
                problems.append(f"{name}: deconvolution differs from the reference")
            if results["roundtrip_rel_error"] > 1e-10 or results["candidate_rel_error"] > 1e-10:
                problems.append(f"{name}: round trip or candidate error above 1e-10")
            continue
        problems.extend(f"{name}: {p}" for p in _check_recurrence_results(results, spec))
    return problems


def _check_solve(op, outcome) -> list[str]:
    spec = op["spec"]
    terms, passed, max_rel, values = outcome
    coeffs, initial, _ = _spec_reference(spec)
    problems = []
    want = ref.iterate(coeffs, initial, len(terms))
    if not all(_close(_mat(t), w) for t, w in zip(terms, want)):
        problems.append("iterate differs from the reference")
    if not passed:
        problems.append(f"candidate verification failed (relative error {max_rel:.3g})")
    for lit, value in zip(spec["x_samples"], values):
        x = ref.parse_literal(lit)[0]
        if not _close(_mat(value), ref.solve_transform(coeffs, initial, x)):
            problems.append(f"transform_value at x = {lit} differs from the reference solve")
    return problems


def _check_deconvolve(op, outcome) -> list[str]:
    solution, recon = outcome
    want, g = _deconvolve_reference(op["p"], op["kernel"], op["terms"])
    problems = []
    if not all(_close(_mat(s), w) for s, w in zip(solution, want)):
        problems.append("deconvolution differs from the reference")
    if not all(_close(_mat(r), g(t)) for t, r in enumerate(recon)):
        problems.append("convolution round trip does not return the target")
    return problems
