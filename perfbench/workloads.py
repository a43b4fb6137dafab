"""Workload definitions and seeded, cached input generation.

Inputs are made with numpy alone, never with ``gapower``, so a change to
the program cannot change what it is measured on.  Each input set lives in
its own directory under ``.perfbench_cache/inputs`` together with a
manifest holding the sha256 of every file and the reference values the
output gate compares against (see ``reference.py``).  The same seed gives
byte-identical files; a cached set is reused only while its hashes match.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

CACHE_DIR = ".perfbench_cache"
FORMAT_VERSION = 1

F0_HZ = 50.0
FS_HZ = 15625.0
SAMPLES_PER_10_PERIODS = 3125

# The bench load: distorted mains voltage and the current of a nonlinear
# load, (order, rms, phase_rad), as in scripts/synth_recording.py.
VOLTAGE_ROWS = (
    (1, 233.92, -1.57),
    (3, 0.46, -2.61),
    (5, 4.74, 1.28),
    (7, 4.02, -0.07),
    (9, 0.42, -2.60),
)
CURRENT_ROWS = (
    (1, 2.33, -0.72),
    (3, 0.93, 1.85),
    (5, 0.45, -1.69),
    (7, 0.49, 1.70),
    (9, 0.16, -1.44),
)
# White measurement noise (V, A); it puts energy on every order, as a real
# recording does, so --orders N yields N occupied orders.
NOISE_SIGMA = (0.5, 0.02)


@dataclass(frozen=True)
class Size:
    periods: int = 0      # analyze: recording length in fundamental periods
    orders: int = 0       # analyze: --orders
    top_order: int = 0    # solve: highest odd harmonic of the source


@dataclass(frozen=True)
class Workload:
    """A CLI call and its input sizes; BENCHMARK.json and README.md say
    why each workload was chosen."""

    name: str
    command: str          # CLI subcommand
    fmt: str              # --format
    full: Size
    toy: Size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-long", "analyze", "table",
            full=Size(periods=3200, orders=9),
            toy=Size(periods=32, orders=9),
        ),
        Workload(
            "analyze-dense", "analyze", "json",
            full=Size(periods=10, orders=100),
            toy=Size(periods=10, orders=20),
        ),
        Workload(
            "solve-odd99", "solve", "csv",
            full=Size(top_order=99),
            toy=Size(top_order=19),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """A generated input set: the CLI argv (minus --out) and the gate's
    reference values."""

    directory: str            # relative to the checkout root
    argv: tuple[str, ...]
    expected: dict
    sha256: dict[str, str]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli_argv(w: Workload, size: Size, directory: str) -> tuple[str, ...]:
    if w.command == "analyze":
        return (
            "analyze", "--input", f"{directory}/rec.csv",
            "--fundamental", f"{F0_HZ:g}", "--orders", str(size.orders),
            "--format", w.fmt,
        )
    return (
        "solve", "--circuit", f"{directory}/circuit.json",
        "--source", f"{directory}/source.json", "--format", w.fmt,
    )


def prepare(root: Path, w: Workload, seed: int, toy: bool) -> Inputs:
    """Return the workload's input set for ``seed``, generating it once."""
    size = w.toy if toy else w.full
    tag = "toy" if toy else "full"
    directory = f"{CACHE_DIR}/inputs/{w.name}-{tag}-s{seed}-v{FORMAT_VERSION}"
    path = root / directory
    manifest = path / "manifest.json"
    if manifest.is_file():
        doc = json.loads(manifest.read_text())
        if all(_sha256(path / f) == h for f, h in doc["sha256"].items()):
            return Inputs(directory, _cli_argv(w, size, directory),
                          doc["expected"], doc["sha256"])
    tmp = root / f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    if w.command == "analyze":
        expected = _write_recording(tmp, rng, size)
    else:
        expected = _write_circuit(tmp, rng, size)
    hashes = {f.name: _sha256(f) for f in sorted(tmp.iterdir())}
    (tmp / "manifest.json").write_text(
        json.dumps({"sha256": hashes, "expected": expected})
    )
    shutil.rmtree(path, ignore_errors=True)
    tmp.rename(path)
    return Inputs(directory, _cli_argv(w, size, directory), expected, hashes)


def _sines(rows, t: np.ndarray) -> np.ndarray:
    x = np.zeros_like(t)
    for k, rms, phase in rows:
        x += math.sqrt(2.0) * rms * np.sin(k * 2.0 * math.pi * F0_HZ * t + phase)
    return x


def _write_recording(directory: Path, rng, size: Size) -> dict:
    n = size.periods * SAMPLES_PER_10_PERIODS // 10
    t = np.arange(n) / FS_HZ
    u = _sines(VOLTAGE_ROWS, t) + rng.normal(0.0, NOISE_SIGMA[0], n)
    i = _sines(CURRENT_ROWS, t) + rng.normal(0.0, NOISE_SIGMA[1], n)
    # The reference must see exactly the doubles the program parses, so
    # the values are taken back from the text that is written.
    cells = [f"{a:.12g},{b:.12g}\n" for a, b in zip(u.tolist(), i.tolist())]
    with open(directory / "rec.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# fs_hz = {FS_HZ:g}\n")
        fh.writelines(cells)
    parsed = np.array([[float(v) for v in c.split(",")] for c in cells])
    return reference.analyze(parsed[:, 0], parsed[:, 1], FS_HZ, F0_HZ,
                             size.orders)


def _write_circuit(directory: Path, rng, size: Size) -> dict:
    circuit = {
        "r_ohm": float(rng.uniform(1.0, 10.0)),
        "l_henry": float(rng.uniform(5e-3, 50e-3)),
        "c_farad": float(rng.uniform(50e-6, 500e-6)),
    }
    rows = [(1, float(rng.uniform(220.0, 240.0)), float(rng.uniform(-3.0, 3.0)))]
    for k in range(3, size.top_order + 1, 2):
        rows.append((k, float(rng.uniform(0.5, 5.0)), float(rng.uniform(-3.0, 3.0))))
    source = {
        "fundamental_hz": F0_HZ,
        "dc": 0.0,
        "harmonics": [{"order": k, "rms": a, "phase_rad": p} for k, a, p in rows],
        "interharmonics": [],
    }
    (directory / "circuit.json").write_text(json.dumps(circuit, indent=1))
    (directory / "source.json").write_text(json.dumps(source, indent=1))
    return reference.solve(circuit, rows, F0_HZ, size.top_order)
