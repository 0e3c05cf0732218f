"""biqz benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; biqz is imported from its ``src``.  Each
workload runs in a fresh child process (``worker.py``), so its set-up time and
peak memory are its own.  The load is one process, one thread, in a closed
loop: each operation starts when the previous one returns.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``, the
median over several fresh interpreters of the time to start and import
``biqz`` and ``biqz.cli``, and the worker's ``ops_per_s``, ``op_ms_p50``,
``op_ms_p90`` and ``peak_rss_mb``; times are given at nominal machine speed,
scaled by a calibration kernel run alongside them (``calibrate.py``).  With
``--trace 1`` it holds the per-layer metrics of a separate traced run.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_BARE_START_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog-sweep", "boundary-series", "recurrences")
SETUP_SAMPLES = 15
CHILD_TIMEOUT = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start_seconds(argv) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=_env(), check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def setup_seconds() -> float:
    """Median time of a fresh interpreter importing biqz and biqz.cli, at
    nominal machine speed.

    Each start is bracketed by starts of a bare interpreter, and its time is
    scaled by ``NOMINAL_BARE_START_S`` over the mean of theirs (see
    ``calibrate``): the result is the set-up time on a machine where a bare
    interpreter starts in exactly that long.  The first start is discarded: it
    may write bytecode caches, which users pay once, not on every start.  No
    timeout is passed: waiting with one polls at growing intervals, which
    would round the times to those steps.
    """
    bare = [sys.executable, "-c", "pass"]
    argv = [sys.executable, "-c", "import biqz, biqz.cli"]
    samples = []
    after = _start_seconds(bare)
    for n in range(SETUP_SAMPLES + 1):
        before = after
        wall = _start_seconds(argv)
        after = _start_seconds(bare)
        if n:
            samples.append(wall * 2.0 * NOMINAL_BARE_START_S / (before + after))
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if not trace:
        argv += ["--setup-s", repr(setup_seconds())]
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _describe(workload: str, result: dict) -> str:
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return (f"{workload}: attempted {result['attempted']} failed {result['failed']} "
            f"correct {result['correct']}\n  " + "\n  ".join(parts))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "biqz" / "__init__.py").is_file():
        print(f"no biqz source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for workload, result in results.items():
        print(_describe(workload, result))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
