#!/usr/bin/env python3
"""gapower benchmark: cold CLI invocations with an output gate, and a
separate traced run for per-layer figures.

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 40 --trace 0

Run it from the repository root; the program is imported from ``src/``.
Each invocation is a fresh interpreter that imports ``gapower.cli`` and
calls ``main(argv)`` once (closed loop, one client, one invocation at a
time), because in-process state such as ``algebra._SIGN_CACHE`` would make
repeated in-process timings faster than anything a CLI user sees.

``--trace 0`` alternates cold processes with warm ones that call ``main``
twice (the second call is the batch or library caller's), and reports the
end-to-end metrics.  Their times are calibrated seconds (see ``meter.py``):
the host's core speed changes by up to two times within seconds, and the
plain seconds, printed alongside, follow it.
``--trace 1`` alternates untraced and traced cold invocations and reports
the per-layer metrics (see ``spans.py``).  Every output of every call is
checked against the reference in ``reference.py``.  Input generation is
cached and never timed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120.0
# Pin BLAS/OpenMP pools so the numbers measure the program, not the
# scheduler; fix hashing so dict/set layouts repeat between processes.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "wall_cal_s.p50": "s",
    "wall_cal_s.tail": "s",
    "run_cal_s.p50": "s",
    "warm_run_cal_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPANS:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s",
                      f"{name}.calls": "count", f"{name}.errors": "count"})
    del units["cli.main.self_s"]
    units.update({
        "cli.self.s": "s",
        "cli.output_bytes": "bytes",
        "waveform.load_csv.rows": "count",
        "waveform.dft_extract.orders_kept_ratio": "ratio",
        "phasor.dim": "count",
        "phasor.nnz": "count",
        "algebra.blade_pairs": "count",
        "power.m_terms": "count",
        "power.cross_terms": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": CHILD_ENV,
    }


@dataclass
class Child:
    rc: int
    wall_s: float
    record: dict | None
    log: str


@dataclass
class Runner:
    """Spawns measured processes one at a time and gates their outputs."""

    root: Path
    workload: workloads.Workload
    inputs: workloads.Inputs
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, int] = field(default_factory=dict)   # sha256 -> bytes
    _verified: set[str] = field(default_factory=set)

    def env(self) -> dict:
        env = dict(os.environ, **CHILD_ENV)
        paths = [str(self.root / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        return env

    def argv(self, out: str) -> list[str]:
        return [*self.inputs.argv, "--out", out]

    def spawn(self, mode: str, argv: list[str]) -> Child:
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), mode, str(record_path), "--", *argv]
        log_path = self.work / "child.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env(),
                                    stdout=log, stderr=subprocess.STDOUT)
            # A blocking wait returns at exit; Popen.wait(timeout) would
            # poll and add up to 50 ms to the wall time.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        record = None
        if record_path.is_file():
            record = json.loads(record_path.read_text())
        return Child(rc, wall, record, log_path.read_text(errors="replace")[-2000:])

    def judge(self, rc: int, out: str, log: str = "") -> bool:
        """Count one invocation; check its output against the reference
        (once per distinct output: equal bytes get equal verdicts)."""
        self.attempted += 1
        problem = None
        path = self.root / out
        if rc != 0:
            problem = f"exit code {rc}: {log.strip()}"
        elif not path.is_file():
            problem = "no output file"
        else:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            self.outputs[digest] = len(data)
            if digest not in self._verified:
                problem = reference.check(self.workload.command, self.workload.fmt,
                                          self.inputs.expected,
                                          data.decode("utf-8"))
                if problem is None:
                    self._verified.add(digest)
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        return problem is None


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples above it.  Below 21 samples no percentile above the median
    has ten beyond it, and the median is reported as p50."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def alternate(seconds: float, first, second) -> None:
    """Call ``first`` and ``second`` in turn, each at least once, until the
    next call would overrun ``seconds`` as predicted by that function's
    previous call.  Stopping before rather than after keeps a run near
    ``seconds`` whatever the program's speed."""
    end = time.perf_counter() + seconds
    took = [0.0, 0.0]
    k = 0
    while k < 2 or time.perf_counter() + took[k % 2] <= end:
        t = time.perf_counter()
        (first, second)[k % 2]()
        took[k % 2] = time.perf_counter() - t
        k += 1


def plain_run(r: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate a cold process (one call) and a warm process (two calls:
    one more cold call, then the warm one), so that every metric samples
    the whole run rather than one stretch of it.  Every time is kept in
    plain and in calibrated seconds."""
    raw = {k: [] for k in ("wall_s", "run_s", "warm_run_s", "setup_s")}
    cal = {k: [] for k in raw}
    rss = []
    work = r.work.relative_to(r.root)

    def add(name, plain, calibrated):
        raw[name].append(plain)
        cal[name].append(calibrated)

    def cold():
        c = r.spawn("cold", r.argv(f"{work}/cold.out"))
        r.judge(c.rc, f"{work}/cold.out", c.log)
        if c.record and c.record["calls"]:
            add("wall_s", c.wall_s, c.wall_s * c.record["cal_per_s"])
            add("run_s", *c.record["calls"][0][0::2])
            add("setup_s", c.record["import_s"], c.record["import_cal_s"])
            rss.append(c.record["peak_rss_mb"])

    def warm_pair():
        c = r.spawn("warm", r.argv(f"{work}/warm-{{k}}.out"))
        calls = c.record["calls"] if c.record else []
        for k, (_, rc, _) in enumerate(calls):
            r.judge(rc, f"{work}/warm-{k}.out", c.log)
        if len(calls) == 2:
            add("run_s", *calls[0][0::2])
            add("warm_run_s", *calls[1][0::2])
            add("setup_s", c.record["import_s"], c.record["import_cal_s"])
        else:
            r.judge(c.rc or 1, "", c.log)

    alternate(seconds, cold, warm_pair)
    if not (raw["wall_s"] and raw["warm_run_s"]):
        raise RuntimeError("no invocation completed: " + "; ".join(r.problems[:3]))
    tail_value, tail_pct = tail(cal["wall_s"])
    metrics = {
        "wall_cal_s.p50": statistics.median(cal["wall_s"]),
        "wall_cal_s.tail": tail_value,
        "run_cal_s.p50": statistics.median(cal["run_s"]),
        "warm_run_cal_s.p50": statistics.median(cal["warm_run_s"]),
        "setup_s": statistics.median(cal["setup_s"]),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "samples": {"cold": len(raw["wall_s"]), "warm": len(raw["warm_run_s"])},
        "wall_cal_s.tail_percentile": tail_pct,
        "fail_ratio": r.failed / r.attempted,
        "plain_s.p50": {k: statistics.median(v) for k, v in raw.items()},
        "raw": {"plain_s": raw, "calibrated_s": cal, "peak_rss_mb": rss},
    }
    return metrics, notes


def traced_run(r: Runner, seconds: float) -> tuple[dict, dict]:
    run_s, layers, found = [], [], []
    out = f"{r.work.relative_to(r.root)}/cold.out"

    def untraced():
        c = r.spawn("plain", r.argv(out))
        r.judge(c.rc, out, c.log)
        if c.record and c.record["calls"]:
            run_s.append(c.record["calls"][0][0])

    def traced():
        c = r.spawn("traced", r.argv(out))
        if r.judge(c.rc, out, c.log) and c.record:
            figures = spans.summarize(c.record["spans"])
            figures["cli.output_bytes"] = (r.root / out).stat().st_size
            layers.append(figures)
            found.extend(c.record["found"])

    alternate(seconds, untraced, traced)
    if not (run_s and layers):
        raise RuntimeError("no invocation completed: " + "; ".join(r.problems[:3]))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [f[name] for f in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                r.problems.append(f"{name} did not repeat: {values}")
    base = statistics.median(run_s)
    metrics["trace.overhead_ratio"] = metrics["cli.main.s"] / base
    notes = {
        "samples": {"untraced": len(run_s), "traced": len(layers)},
        "run_s.p50_untraced": base,
        "spans_found": sorted(set(found)),
    }
    return metrics, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so that a running child is killed
    # and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "gapower" / "cli.py").is_file():
        print(f"error: {root} has no src/gapower/cli.py; run from the "
              "repository root", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.prepare(root, w, args.seed, args.toy)
    work = root / workloads.CACHE_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    r = Runner(root, w, inputs, work)
    try:
        # Untimed: compiles the program's bytecode once.
        c = r.spawn("import", [])
        if c.rc != 0:
            print(f"error: cannot import gapower.cli: {c.log}", file=sys.stderr)
            return 2
        run = traced_run if args.trace else plain_run
        try:
            metrics, notes = run(r, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    detail = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "environment": environment(),
        "inputs": {"directory": inputs.directory, "sha256": inputs.sha256},
        "outputs_sha256": r.outputs, "problems": r.problems[:20],
        "attempted": r.attempted, "failed": r.failed,
        "metrics": metrics, **notes,
    }
    results = root / workloads.CACHE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}{'-toy' if args.toy else ''}-s{args.seed}-t{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    env = detail["environment"]
    print(f"{w.name} seed={args.seed} trace={args.trace} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} samples={notes['samples']}")
    for name, digest in sorted(inputs.sha256.items()):
        print(f"  input  {name:<14} sha256={digest}")
    for digest, size in r.outputs.items():
        print(f"  output {size:>9} B     sha256={digest}")
    for problem in r.problems[:5]:
        print(f"  FAIL   {problem}")
    for name, value in metrics.items():
        extra = ""
        if name == "wall_cal_s.tail":
            extra = (f"  (p{notes['wall_cal_s.tail_percentile']:.0f} of "
                     f"{notes['samples']['cold']})")
        print(f"  {name:<44} {value:>14.6g} {units[name]}{extra}")
    if not args.trace:
        for name, value in notes["plain_s.p50"].items():
            print(f"  {name + '.p50':<44} {value:>14.6g} s  (plain seconds)")
        print(f"  {'fail_ratio':<44} {notes['fail_ratio']:>14.6g} ratio"
              f"  ({r.failed} of {r.attempted})")
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
