#!/usr/bin/env python3
"""Pipeline benchmark: three workloads, end-to-end and per-layer metrics.

One workload, in this process::

    python3 perfbench/run.py --workload stub-large --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with spans recorded around every
layer and reports the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is
non-zero if any op failed or a check did not hold.

Every workload, each untraced and then traced, each in a fresh process::

    python3 perfbench/run.py [--seed 1] [--seconds 35]

Run from the repository root; the program is imported from ``src/``.
Inputs, indexes and trace files go under ``.perfbench_work/`` and
``.perfbench_out/`` in the repository root.  See PREDICTIONS.md for what
each metric should move.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS thread, so that CPU time is not
# doubled by OpenBLAS's second thread on a 2-core host; and no wire
# endpoint from the environment, so stub workloads stay in-process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("CODERAG_LM_ENDPOINT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("stub-large", "wire-small", "edit-reindex")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "coderag").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    w = WORKLOADS[workload]
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        trace_out = OUT_DIR / f"{workload}-spans.jsonl" if trace else None
        out = run_workload(w, seed, seconds, trace, workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = out["metrics"]
    print(f"# workload {workload} seed {seed} trace {int(trace)}: {w.why}")
    print(f"# {out['attempted']} ops in {out['passes']} pass(es) of {w.tasks}; "
          f"host.spin_ms {out['host.spin_ms']:.3f}; set-ups "
          + " ".join(f"{t:.3f}" for t in out["setup_times"]))
    for message in out["failures"]:
        print(f"# FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:<13} {name:<34} {value:>14.4f} {unit}")
    if trace:
        metrics["host.spin_ms"] = (out["host.spin_ms"], "ms")
    else:
        metrics.pop("error_rate")  # carried by "failed" / "attempted"
    correct = out["failed"] == 0
    print(_result_line(correct, out["attempted"], out["failed"], metrics))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                correct = False
                if not lines or not lines[-1].startswith("{"):
                    continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            if not trace:
                attempted += result["attempted"]
                failed += result["failed"]
            for name, entry in result["metrics"].items():
                combined[f"{workload}/{name}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the timed loop; ops run in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
