#!/usr/bin/env python3
"""Benchmark of the DPU-v2 stack: the cold path, the sweep, serving and
the HTTP front end.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (a separate traced run).  Every metric is printed by
name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``all``
runs each workload in its own process and prefixes every metric with
its workload.  The exit code is 0 only when every output checked
bitwise equal to its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold", "batch", "serve", "http")
#: A run that outlives this is stopped with an error, not a result.
RUN_LIMIT_S = 170


def _print_result(correct: bool, attempted: int, failed: int,
                  metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def _run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {workload} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return 2
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        for name, m in doc["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    _print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def _timeout(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # Never the user's artifact cache, and never a disabled one.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_NO_CACHE", None)
    sys.path.insert(0, str(ROOT / "src"))
    from bench import run_workload
    from core import host_fingerprint, log

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    log(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    correct, attempted, failed, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)
    _print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
