"""One workload in one fresh process: ``run.py`` starts this file.

Without tracing it checks one round against the reference, then repeats the
round whole, untraced, until ``--seconds`` have passed and reports throughput,
latency and peak memory.  With tracing it alternates untraced and traced
rounds for part of the time (their ratio is the tracing overhead), runs the
probe round and the layer microbenchmarks, and reports the per-layer figures.
Prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
from array import array
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import biqz

from calibrate import NOMINAL_S, Calibrator
import inputs
import layers
import ops
from tracing import SpanStats, Tracer, Untraced

ROOT = Path(__file__).resolve().parent.parent
TRACED_SHARE = 0.55  # of --seconds, for the paired untraced/traced rounds
MICRO_SHARE = 0.35  # of --seconds, for the layer microbenchmarks
PROBE_ROUNDS = 3


def run_round(round_ops, tracer, latencies=None, calibrator=None):
    """Perform every operation once, in order; returns (outcomes, seconds
    spent in the operations).  A calibrator's kernel runs between them."""
    state = {}
    outcomes = []
    busy = 0.0
    for op in round_ops:
        if calibrator is not None:
            calibrator.before_op()
        t0 = perf_counter()
        outcomes.append(ops.run_op(op, state, tracer))
        seconds = perf_counter() - t0
        busy += seconds
        if calibrator is not None:
            calibrator.after_op(seconds)
        if latencies is not None:
            latencies.append(seconds)
    return outcomes, busy


def checked_baseline(round_ops, ctx):
    """Run the round once and judge each outcome by the reference.

    Returns (outcomes, failed slot indices, whether every failure is a known
    fault of the program on fixed inputs).
    """
    outcomes, _ = run_round(round_ops, Untraced())
    failed, correct = [], True
    for n, (op, outcome) in enumerate(zip(round_ops, outcomes)):
        problems = ops.check(op, outcome, ctx)
        if problems:
            failed.append(n)
            known = op.get("known_fault")
            if not known:
                correct = False
            label = f"known fault: {known}" if known else "UNEXPECTED"
            print(f"slot {n} ({op['kind']}) failed [{label}]: {'; '.join(problems)}",
                  file=sys.stderr)
    return outcomes, failed, correct


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-s", type=float, default=0.0,
                    help="set-up time measured by run.py, reported with the end-to-end metrics")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(biqz.__file__).resolve().parent.parent != src:
        sys.exit(f"biqz imported from {biqz.__file__}, not from {src}")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=scratch))
    try:
        round_ops = inputs.make_round(args.workload, args.seed)
        ctx = ops.prepare(round_ops, workdir)
        baseline, failed, correct = checked_baseline(round_ops, ctx)
        if args.trace:
            result = traced_run(args, round_ops, baseline, workdir, scratch)
        else:
            result = timed_run(args, round_ops, baseline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result.pop("rounds")
    mismatched = result.pop("mismatched")
    result = {
        "correct": correct and not mismatched,
        "attempted": rounds * len(round_ops),
        "failed": rounds * len(failed) + mismatched,
        "metrics": result["metrics"],
    }
    print(json.dumps(result))


def _compare(outcomes, baseline):
    """Operations whose outcome differs from the checked round's."""
    return sum(1 for got, want in zip(outcomes, baseline) if got != want)


def timed_run(args, round_ops, baseline):
    """Whole untraced rounds until ``--seconds`` of operation time have passed.

    Times are reported at nominal machine speed (see ``calibrate``); the wall
    figures go to standard error for reading.
    """
    latencies = array("d")  # compact, so peak memory hardly depends on run length
    calibrator = Calibrator()
    busy = 0.0
    rounds = mismatched = 0
    while busy < args.seconds:
        outcomes, seconds = run_round(round_ops, Untraced(), latencies, calibrator)
        busy += seconds
        rounds += 1
        mismatched += _compare(outcomes, baseline)
    calibrator.finish()
    # read before the copies below
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    nominal = calibrator.nominal(latencies)
    cuts = statistics.quantiles(nominal, n=10)
    values = {
        "setup_s": args.setup_s,
        "ops_per_s": len(nominal) / math.fsum(nominal),
        "op_ms_p50": statistics.median(nominal) * 1e3,
        "op_ms_p90": cuts[8] * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    wall_cuts = statistics.quantiles(latencies, n=10)
    print(f"wall: ops_per_s {len(latencies) / busy:.4g}, "
          f"op_ms_p50 {statistics.median(latencies) * 1e3:.4g}, "
          f"op_ms_p90 {wall_cuts[8] * 1e3:.4g}; {len(latencies)} operations; "
          f"calibration kernel median {calibrator.median_kernel_ms():.4g} ms "
          f"over {len(calibrator.kernel)} runs (nominal {NOMINAL_S * 1e3:g} ms)",
          file=sys.stderr)
    return {"rounds": rounds, "mismatched": mismatched, "metrics": _with_units(values, "end_to_end")}


def traced_run(args, round_ops, baseline, workdir, scratch):
    tracer = Tracer()
    latencies = array("d")
    calibrator = Calibrator()
    sides = []  # whether each round was traced
    busy = 0.0
    rounds = mismatched = 0
    while busy < TRACED_SHARE * args.seconds or rounds < 2:
        # alternate which side goes first, so drift favours neither
        for use_tracer in ((False, True) if rounds % 4 == 0 else (True, False)):
            outcomes, seconds = run_round(round_ops, tracer if use_tracer else Untraced(),
                                          latencies, calibrator)
            busy += seconds
            sides.append(use_tracer)
            rounds += 1
            mismatched += _compare(outcomes, baseline)
    calibrator.finish()
    # the overhead compares the two sides at nominal speed (see calibrate)
    nominal = calibrator.nominal(latencies)
    n = len(round_ops)
    plain = traced = 0.0
    for r, use_tracer in enumerate(sides):
        seconds = math.fsum(nominal[r * n:(r + 1) * n])
        if use_tracer:
            traced += seconds
        else:
            plain += seconds
    traced_rounds = rounds // 2
    workload_stats = SpanStats(tracer.spans, traced_rounds)

    probe_ops = inputs.probe_round()
    ops.prepare(probe_ops, workdir)
    probe_tracer = Tracer()
    for _ in range(PROBE_ROUNDS):
        run_round(probe_ops, probe_tracer)
    probe_stats = SpanStats(probe_tracer.spans, PROBE_ROUNDS)

    values = layers.span_metrics(workload_stats, probe_stats)
    values["ztransform.certified"] = tracer.tallies.get("ztransform.certified", 0) / traced_rounds
    values.update(layers.microbenchmarks(args.seed, MICRO_SHARE * args.seconds))
    values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    return {"rounds": rounds, "mismatched": mismatched, "metrics": _with_units(values, "per_layer")}


def _with_units(values: dict, section: str) -> dict:
    """Values as {name: {value, unit}} in BENCHMARK.json's order and units;
    a metric missing from either side is an error."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise KeyError(f"metrics {sorted(set(names) ^ set(values))} not both declared and measured")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    main()
