#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and quartile spread against the bounds in BENCHMARK.json.

    python3 perfbench/sweep.py --workloads analyze-dense --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --record perfbench/baseline.json

Runs go one at a time from the repository root, each for BENCHMARK.json's
``run_seconds``.  The spread of a metric is ``(Q3 - Q1) / median`` over
the seeds, with quartiles from ``statistics.quantiles(values, n=4)``; it
is marked ``steady`` below a third of the metric's bound.  ``--record``
also stores the environment, every run's values and the input and output
sha256 digests, so that later commits can compare against this one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench
import workloads


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="write a JSON summary to this file")
    args = p.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"environment": bench.environment(), "run_seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(
                (Path(workloads.CACHE_DIR) / "results"
                 / f"{name}-s{seed}-t{args.trace}.json").read_text()
            )
            runs.append({"seed": seed, **result,
                         "samples": detail["samples"],
                         "inputs_sha256": detail["inputs"]["sha256"],
                         "outputs_sha256": detail["outputs_sha256"]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        stats = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3 = quartiles(values)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                             "bound": bound, "unit": runs[0]["metrics"][metric]["unit"]}
            verdict = ""
            if bound is not None:
                verdict = ("steady" if rel < bound / 3
                           else "within" if rel <= bound else "WIDE")
            print(f"  {metric:<44} median {med:<12.6g} spread {rel:7.2%} "
                  f"bound {'' if bound is None else f'{bound:.0%}':>4} {verdict}")
        summary["workloads"][name] = {"metrics": stats, "runs": runs}
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
