"""One measured process: a fresh interpreter that imports ``gapower.cli``
and calls ``main(argv)``, as the ``gapower`` console script does.

    python3 child.py MODE RECORD -- ARGV...

MODE is ``import`` (import only), ``cold`` (one call), ``plain`` (one
call without the speed meter), ``traced`` (one call with per-layer spans)
or ``warm`` (two calls in this process; ``{k}`` in ARGV is replaced by the
call number so that each call writes its own output).  Timings and exit
codes and the peak resident set go to the JSON file RECORD; the process
exits with the last call's exit code.  Only the standard library is
imported before ``gapower.cli`` so that the import time includes numpy.

In ``import``, ``cold`` and ``warm`` mode the speed meter (``meter.py``)
runs from before the import to after the last call, and every time is also
recorded in calibrated seconds, with ``cal_per_s`` the ratio of calibrated
to plain seconds over the whole metered stretch.
"""

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set of this process since it was exec'd (VmHWM).
    ``ru_maxrss`` would also count the parent's peak, which the child
    inherits through vfork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> int:
    mode, record_path, _, *argv = sys.argv[1:]

    meter = None
    if mode in ("import", "cold", "warm"):
        import meter as meter_module
        meter = meter_module.Meter()
        meter.start()

    t0 = time.perf_counter()
    import gapower.cli as cli
    t1 = time.perf_counter()
    record = {"import_s": t1 - t0, "calls": []}

    # Measure the checkout's own program, never an installed copy.
    src = os.path.join(os.getcwd(), "src", "gapower", "")
    if not os.path.abspath(cli.__file__).startswith(src):
        print(f"gapower imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    recorder = None
    if mode == "traced":
        import spans
        recorder, record["found"] = spans.install()

    rc = 0
    windows = []
    for k in range({"import": 0, "warm": 2}.get(mode, 1)):
        t = time.perf_counter()
        rc = cli.main([a.replace("{k}", str(k)) for a in argv])
        windows.append((t, time.perf_counter()))
        record["calls"].append([windows[-1][1] - t, rc])
    if meter is not None:
        meter.stop()
        record["import_cal_s"] = meter.calibrated(t0, t1)
        for call, window in zip(record["calls"], windows):
            call.append(meter.calibrated(*window))
        a, b = meter.samples[0][0], sum(meter.samples[-1])
        record["cal_per_s"] = meter.calibrated(a, b) / (b - a)
    record["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        record["spans"] = recorder.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
