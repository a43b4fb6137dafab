"""Golden CLI outputs: every case must reproduce its recorded bytes.

The determinism tests in ``test_cli.py`` compare two runs of one build;
these compare against files under ``tests/golden/`` so that a change to
the numerical core that moves a printed digit, a term's position or a
term's presence fails here.  The large dense-noise report is compared by
its sha256 (recorded in ``tests/golden/SHA256SUMS``).

Inputs are generated in the test from fixed rows and a seeded generator,
written as text with ``%.12g`` like ``scripts/synth_recording.py``, and
passed by relative path so the recorded documents hold no temporary path.

To re-record after an intended change of the output contract, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from gapower.cli import main
from gapower.waveform import sample_signal

from conftest import (
    BENCH_CURRENT_ROWS,
    BENCH_F0_HZ,
    BENCH_FS_HZ,
    BENCH_SAMPLES,
    BENCH_VOLTAGE_ROWS,
    OMEGA1_F0_HZ,
    rows_to_signal,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
SHA_FILE = GOLDEN / "SHA256SUMS"

# case name -> CLI arguments (without --format/--out); inputs are relative
# to the working directory the inputs were written into.
SOLVE = ["solve", "--circuit", "circuit.json", "--source", "source.json"]
SOLVE_DC = ["solve", "--circuit", "circuit_rl.json", "--source", "source_dc.json"]
ANALYZE_BENCH = ["analyze", "--input", "bench.csv", "--fundamental", "50",
                 "--orders", "9"]
ANALYZE_NOISY = ["analyze", "--input", "noisy.csv", "--fundamental", "50",
                 "--orders", "30"]
DECOMPOSE = ["decompose", "--voltage", "v.json", "--current", "i.json"]
DECOMPOSE_MIXED = ["decompose", "--voltage", "v_mixed.json",
                   "--current", "i_mixed.json"]

CASES = {
    "solve.json": SOLVE + ["--format", "json"],
    "solve.table": SOLVE + ["--format", "table"],
    "solve.csv": SOLVE + ["--format", "csv"],
    "solve_dc.json": SOLVE_DC + ["--format", "json"],
    "analyze_bench.json": ANALYZE_BENCH + ["--format", "json"],
    "analyze_bench.table": ANALYZE_BENCH + ["--format", "table"],
    "analyze_bench.csv": ANALYZE_BENCH + ["--format", "csv"],
    "decompose.json": DECOMPOSE + ["--format", "json"],
    "decompose.csv": DECOMPOSE + ["--format", "csv"],
    "decompose_mixed.json": DECOMPOSE_MIXED + ["--format", "json"],
    "decompose_mixed.csv": DECOMPOSE_MIXED + ["--format", "csv"],
}
# Cases recorded by sha256 only (hundreds of kB of JSON).
HASHED = {
    "analyze_noisy30.json": ANALYZE_NOISY + ["--format", "json"],
}


def _spectrum(f0, rows=(), dc=0.0, inter=()) -> dict:
    return {
        "fundamental_hz": f0,
        "dc": dc,
        "harmonics": [{"order": k, "rms": r, "phase_rad": p} for k, r, p in rows],
        "interharmonics": [
            {"order": k, "rms": r, "phase_rad": p} for k, r, p in inter
        ],
    }


def _write_csv(path: Path, u: np.ndarray, i: np.ndarray) -> None:
    lines = [f"# fs_hz = {BENCH_FS_HZ:g}"]
    lines += [f"{a:.12g},{b:.12g}" for a, b in zip(u, i)]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(d: Path) -> None:
    """Write every input file the cases read into directory ``d``."""
    write = lambda name, obj: (d / name).write_text(json.dumps(obj))  # noqa: E731
    # the worked two-harmonic circuit (unequal conductances: a scattered
    # current and a cross-frequency term)
    write("source.json", _spectrum(OMEGA1_F0_HZ, [(1, 100.0, 0.0), (3, 100.0, 0.0)]))
    write("circuit.json", {"r_ohm": 1.0, "l_henry": 0.5, "c_farad": 2.0 / 7.0})
    # DC through a resistive-inductive branch, and a half-empty plane
    # (phase 0 puts nothing on the odd slot of order 2)
    write("source_dc.json", _spectrum(
        50.0, [(1, 230.0, 0.3), (2, 7.0, 0.0), (5, 11.0, -2.2)], dc=12.0))
    write("circuit_rl.json", {"r_ohm": 3.0, "l_henry": 0.01})

    u = sample_signal(rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ),
                      BENCH_FS_HZ, BENCH_SAMPLES).samples
    i = sample_signal(rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ),
                      BENCH_FS_HZ, BENCH_SAMPLES).samples
    _write_csv(d / "bench.csv", u, i)
    # noise fills every order, so the cross terms are dense
    rng = np.random.default_rng(20201)
    _write_csv(d / "noisy.csv",
               u + rng.normal(0.0, 0.8, u.shape),
               i + rng.normal(0.0, 0.02, i.shape))

    rms_i = 100.0 / math.sqrt(2.0)
    write("v.json", _spectrum(OMEGA1_F0_HZ, [(1, 100.0, 0.0), (3, 100.0, 0.0)]))
    write("i.json", _spectrum(
        OMEGA1_F0_HZ, [(1, rms_i, math.pi / 4), (3, rms_i, -math.pi / 4)]))
    # DC on both sides, an interharmonic, a half-empty voltage plane
    # (order 3 at phase 0), and a current-only order (generated current)
    write("v_mixed.json", _spectrum(
        50.0, [(1, 230.0, -0.4), (3, 9.0, 0.0), (5, 4.0, 1.1)], dc=5.0,
        inter=[(2.5, 3.0, 0.7)]))
    write("i_mixed.json", _spectrum(
        50.0, [(1, 10.0, -1.0), (3, 0.8, 2.0), (4, 0.6, 0.3), (5, 0.3, -0.2)],
        dc=0.25, inter=[(2.5, 0.4, -0.5)]))


def run_case(d: Path, argv: list[str], name: str) -> bytes:
    cwd = os.getcwd()
    os.chdir(d)
    try:
        rc = main(argv + ["--out", name])
    finally:
        os.chdir(cwd)
    assert rc == 0, f"{name}: exit {rc}"
    return (d / name).read_bytes()


def recorded_hashes() -> dict[str, str]:
    out = {}
    for line in SHA_FILE.read_text().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(d)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(inputs, name):
    got = run_case(inputs, CASES[name], name)
    want = (GOLDEN / name).read_bytes()
    assert got == want, f"{name} differs from tests/golden/{name}"


@pytest.mark.parametrize("name", sorted(HASHED))
def test_golden_output_sha256(inputs, name):
    got = run_case(inputs, HASHED[name], name)
    assert hashlib.sha256(got).hexdigest() == recorded_hashes()[name]


def test_noisy_case_is_dense(inputs):
    """The hashed case exercises what it is meant to: every order carries
    power, so the cross-term list is long."""
    doc = json.loads(run_case(inputs, HASHED["analyze_noisy30.json"],
                              "analyze_noisy30.json"))
    assert len(doc["power"]["per_harmonic"]) == 30
    assert len(doc["power"]["cross_terms"]) > 1000


def _record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for name, argv in CASES.items():
            (GOLDEN / name).write_bytes(run_case(d, argv, name))
        lines = [
            f"{hashlib.sha256(run_case(d, argv, name)).hexdigest()}  {name}"
            for name, argv in sorted(HASHED.items())
        ]
    SHA_FILE.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(CASES)} files and {len(HASHED)} digests in {GOLDEN}")


if __name__ == "__main__":
    _record()
