"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Appended to a copy of the CLI: every output gets one digit changed (the
# last digit of P, or of the current in slot 1 for the CSV output).
TAMPER = textwrap.dedent(r'''
    import re as _re

    _untampered_write = _write_text

    def _write_text(text, out):
        _untampered_write(_one_digit_changed(text), out)

    def _one_digit_changed(text):
        for pattern in (r"Power summary\n.*\n  (\S+)", r'"p_w": (\S+?),',
                        r"\n1,(?:[^,\n]*,){5}([^,\n]+)\n"):
            m = _re.search(pattern, text)
            if m:
                k = max(j for j in range(m.start(1), m.end(1)) if text[j].isdigit())
                return text[:k] + str((int(text[k]) + 5) % 10) + text[k + 1:]
        raise ValueError("no value to change")
''')


def _bench(root: Path, workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, stdout = _bench(ROOT, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in stdout.splitlines()[:-1]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "fail_ratio" in stdout


def test_traced_layers_match_the_workload():
    result, _ = _bench(ROOT, "solve-odd99", 1)
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["circuit.solve_current.calls"] == 1
    assert m["waveform.load_csv.calls"] == 0
    assert m["power.geometric_power.calls"] == 3
    assert m["algebra.blade_pairs"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_changed_digit_counts_as_failed(tmp_path, workload):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "gapower" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(TAMPER)
    result, _ = _bench(tmp_path, workload, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_inputs_are_seeded_and_byte_identical(tmp_path):
    w = workloads.WORKLOADS["analyze-dense"]
    a = workloads.prepare(tmp_path / "a", w, 5, toy=True)
    b = workloads.prepare(tmp_path / "b", w, 5, toy=True)
    c = workloads.prepare(tmp_path / "b", w, 6, toy=True)
    assert a.sha256 == b.sha256 and a.expected == b.expected
    assert c.sha256 != a.sha256
    # A cached set is reused only while its bytes still match the manifest.
    path = tmp_path / "b" / b.directory / "rec.csv"
    path.write_text("tampered\n")
    again = workloads.prepare(tmp_path / "b", w, 5, toy=True)
    assert again.sha256 == a.sha256 and "tampered" not in path.read_text()


def test_a_missing_function_is_an_absent_span(tmp_path):
    inputs = workloads.prepare(tmp_path, workloads.WORKLOADS["solve-odd99"], 1, toy=True)
    script = textwrap.dedent(f"""
        import json
        import gapower.cli, gapower.phasor
        import spans
        # As if refactors had removed one traced function and never added
        # another: neither may break the run.
        del gapower.phasor.from_phasor
        spans.SPANS["power.component_powers"] = ("gapower.power", "component_powers")
        rec, found = spans.install()
        rc = gapower.cli.main({list(inputs.argv)!r} + ["--out", "out.csv"])
        print(json.dumps([rc, found, spans.summarize(rec.spans)]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, found, figures = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0
    assert "phasor.from_phasor" not in found and "power.component_powers" not in found
    assert figures["phasor.from_phasor.calls"] == 0
    assert figures["power.component_powers.s"] == 0
    assert figures["circuit.solve_current.calls"] == 1
    assert figures["cli.main.s"] > figures["circuit.solve_current.s"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    assert run.tail(values) == (29.0, 75.0)
    assert run.tail(values[:21]) == (10.0, 100.0 * 11 / 21)
    assert run.tail(values[:8]) == (3.5, 50.0)


def test_calibrated_time_counts_program_time_at_the_sampled_speed():
    import meter

    m = meter.Meter()
    nominal = meter.NOMINAL_LOOP_S
    # The loop took twice its nominal time: the host ran at half speed.
    m.samples = [(0.0, 2 * nominal), (1.0, 2 * nominal), (2.0, 2 * nominal)]
    program = 2.0 - 2 * (2 * nominal)          # the meter's own loops excluded
    assert m.calibrated(0.0, 2.0) == pytest.approx(program / 2)
    # Outside the sampled stretch the nearest sample's speed holds.
    assert m.calibrated(-1.0, 0.0) == pytest.approx(0.5)
    assert m.calibrated(3.0, 4.0) == pytest.approx(0.5)
    # A stretch between a fast and a slow sample counts at their mean.
    m.samples = [(0.0, nominal), (1.0, 3 * nominal)]
    assert m.calibrated(nominal, 1.0) == pytest.approx((1.0 - nominal) / 2)
