"""End-to-end command-line tests: exit codes, document shape, determinism."""

from __future__ import annotations

import collections
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import (
    BENCH_CURRENT_ROWS,
    BENCH_F0_HZ,
    BENCH_FS_HZ,
    BENCH_SAMPLES,
    BENCH_VOLTAGE_ROWS,
    OMEGA1_F0_HZ,
    rows_to_signal,
)
import gapower.cli
from gapower.cli import FORMATS, main
from gapower.decompose import decompose_currents
from gapower.phasor import MAX_ORDER, BasisLayout, to_phasor
from gapower.waveform import dft_extract, sample_signal
from report_schema import POWER_REPORT_SCHEMA


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def source_file(tmp_path):
    return write_json(
        tmp_path / "source.json",
        {
            "fundamental_hz": OMEGA1_F0_HZ,
            "dc": 0.0,
            "harmonics": [
                {"order": 1, "rms": 100.0, "phase_rad": 0.0},
                {"order": 3, "rms": 100.0, "phase_rad": 0.0},
            ],
            "interharmonics": [],
        },
    )


@pytest.fixture
def circuit_equal(tmp_path):
    return write_json(
        tmp_path / "circuit1.json",
        {"r_ohm": 1.0, "l_henry": 0.5, "c_farad": 2.0 / 3.0},
    )


@pytest.fixture
def circuit_unequal(tmp_path):
    return write_json(
        tmp_path / "circuit2.json",
        {"r_ohm": 1.0, "l_henry": 0.5, "c_farad": 2.0 / 7.0},
    )


@pytest.fixture
def bench_csv(tmp_path):
    u = sample_signal(
        rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ), BENCH_FS_HZ, BENCH_SAMPLES
    )
    i = sample_signal(
        rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ), BENCH_FS_HZ, BENCH_SAMPLES
    )
    lines = [f"# fs_hz = {BENCH_FS_HZ}"]
    lines += [f"{a:.17g},{b:.17g}" for a, b in zip(u.samples, i.samples)]
    path = tmp_path / "bench.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -- solve ---------------------------------------------------------------

def test_solve_json_document(tmp_path, source_file, circuit_equal):
    out = tmp_path / "out.json"
    rc = main(
        ["solve", "--circuit", circuit_equal, "--source", source_file,
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["power"]["p_w"] == 10000.0
    assert doc["power"]["apparent_va"] == 14142.1
    assert doc["power"]["pf"] == pytest.approx(1 / math.sqrt(2), abs=1e-4)
    jsonschema.validate(doc["power"], POWER_REPORT_SCHEMA)

    spectrum = {c["order"]: c for c in doc["current_spectrum"]["harmonics"]}
    assert spectrum[1]["rms"] == pytest.approx(100 / math.sqrt(2), abs=1e-3)
    assert spectrum[1]["phase_rad"] == pytest.approx(math.pi / 4, abs=1e-4)
    assert spectrum[3]["phase_rad"] == pytest.approx(-math.pi / 4, abs=1e-4)

    comp = {c["order"]: c["siemens"] for c in
            doc["currents"]["compensation_susceptances"]}
    assert comp == {1: -0.5, 3: 0.5}


def test_solve_stdout_json(capsys, source_file, circuit_equal):
    rc = main(
        ["solve", "--circuit", circuit_equal, "--source", source_file,
         "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["circuit"]["r_ohm"] == 1.0
    assert doc["source"]["harmonics"][0]["rms"] == 100.0


def test_solve_csv_norm_row(tmp_path, source_file, circuit_unequal):
    out = tmp_path / "dec.csv"
    rc = main(
        ["solve", "--circuit", circuit_unequal, "--source", source_file,
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,i_p,i_a,i_s,i_q,i_N,i"
    assert lines[-1] == "norm,90.5539,70.7107,56.5685,42.4264,70.7107,100"
    assert len(lines) == 1 + 7 + 1  # header, one row per basis index, norms


def test_solve_table_sections(capsys, source_file, circuit_unequal):
    rc = main(["solve", "--circuit", circuit_unequal, "--source", source_file])
    assert rc == 0
    text = capsys.readouterr().out
    for title in (
        "Spectra",
        "Power summary",
        "Per-harmonic P/Q",
        "Cross-frequency terms",
        "Current decomposition (A)",
        "Compensation susceptances (S)",
    ):
        assert title in text


@pytest.mark.parametrize("fmt", FORMATS)
def test_solve_builds_the_admittance_table_once(
    monkeypatch, capsys, source_file, circuit_unequal, fmt
):
    calls = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(gapower.cli, "admittances_for")
    spy(gapower.cli, "solve_current")
    assert main(["solve", "--circuit", circuit_unequal, "--source", source_file,
                 "--format", fmt]) == 0
    assert calls == {"admittances_for": 1, "solve_current": 1}


def test_solve_missing_file(tmp_path, source_file):
    rc = main(
        ["solve", "--circuit", str(tmp_path / "nope.json"), "--source", source_file]
    )
    assert rc == 2


def test_solve_malformed_json(tmp_path, source_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--circuit", str(bad), "--source", source_file]) == 2


def test_solve_source_not_utf8(tmp_path, circuit_equal, capsys):
    bad = tmp_path / "source.json"
    bad.write_bytes(b'{"fundamental_hz": 50.0, "dc": "\xff"}')
    assert main(["solve", "--circuit", circuit_equal, "--source", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_unwritable_out_is_an_input_error(
    tmp_path, source_file, circuit_equal, capsys
):
    out = tmp_path / "missing" / "out.json"
    assert main(["solve", "--circuit", circuit_equal, "--source", source_file,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize(
    "doc",
    [
        {"r_ohm": 1.0, "farads": 2.0},
        {"r_ohm": "one"},
        {"r_ohm": -1.0},
        {"r_ohm": 1.0, "c_farad": 0.0},
        [{"r_ohm": 1.0}],
    ],
)
def test_solve_bad_circuit_documents(tmp_path, source_file, doc, capsys):
    path = write_json(tmp_path / "c.json", doc)
    assert main(["solve", "--circuit", str(path), "--source", source_file]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"r_ohm": None}, "r_ohm must be a number"),
        ({"r_ohm": 1.0, "l_henry": None}, "l_henry must be a number"),
    ],
)
def test_solve_null_circuit_field(tmp_path, source_file, doc, message, capsys):
    # only the capacitor may be null (no capacitor: a short circuit)
    path = write_json(tmp_path / "c.json", doc)
    assert main(["solve", "--circuit", str(path), "--source", source_file]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ([{"order": 1, "rms": 1.0}, {"order": 3, "rms": -2.0}],
         "rms at order 3.0 must be finite and >= 0, got -2.0"),
        ([{"order": 3, "rms": 1.0}, {"order": 1, "rms": 1.0}],
         "order 1.0 follows order 3.0: harmonic and interharmonic orders must "
         "each strictly increase"),
        ([{"order": 1, "rms": 1.0}, {"order": 2.5, "rms": 1.0}],
         "harmonics[1].order must be integer, got 2.5"),
    ],
)
def test_solve_bad_source_line_names_file_and_order(
    tmp_path, circuit_equal, lines, message, capsys
):
    src = write_json(tmp_path / "s.json", {"fundamental_hz": 50.0, "harmonics": lines})
    assert main(["solve", "--circuit", circuit_equal, "--source", src]) == 2
    assert capsys.readouterr().err == f"error: {src}: {message}\n"


@pytest.mark.parametrize(
    "order, text",
    [(1e12, "1000000000000.0"), (1e300, "1e+300"),
     (MAX_ORDER + 1, f"{MAX_ORDER + 1}.0")],
)
@pytest.mark.parametrize("command", ["solve", "decompose-voltage", "decompose-current"])
def test_order_above_the_ceiling_is_an_input_error(
    tmp_path, circuit_equal, order, text, command, capsys
):
    fine = {"fundamental_hz": 50.0, "harmonics": [{"order": 1, "rms": 1.0}]}
    absurd = {"fundamental_hz": 50.0,
              "harmonics": [{"order": 1, "rms": 1.0}, {"order": order, "rms": 1.0}]}
    bad = write_json(tmp_path / "bad.json", absurd)
    good = write_json(tmp_path / "good.json", fine)
    argv = {
        "solve": ["solve", "--circuit", circuit_equal, "--source", bad],
        "decompose-voltage": ["decompose", "--voltage", bad, "--current", good],
        "decompose-current": ["decompose", "--voltage", good, "--current", bad],
    }[command]
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: harmonics[1].order {text} exceeds the largest "
        f"supported order {MAX_ORDER}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_out_of_memory_is_a_computation_error(
    tmp_path, source_file, circuit_equal, fmt, monkeypatch, capsys
):
    # stands in for an allocation numpy cannot meet; no such request is
    # made here
    message = "Unable to allocate 32.0 TiB for an array with shape (2097153, 2097153)"

    def exhausted(u, i):
        raise MemoryError(message)

    monkeypatch.setattr(gapower.cli, "power_report", exhausted)
    out = tmp_path / "out"
    argv = ["solve", "--circuit", circuit_equal, "--source", source_file,
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_solve_memory_follows_the_support(tmp_path, fmt):
    # lines at orders 1 and 1000 span 2001 slots but occupy 4: a
    # (dim, dim) power block would take 32 MB per temporary
    src = write_json(tmp_path / "two_lines.json", {
        "fundamental_hz": 50.0,
        "harmonics": [{"order": 1, "rms": 230.0, "phase_rad": 0.3},
                      {"order": 1000, "rms": 5.0, "phase_rad": -1.1}],
    })
    circuit = write_json(tmp_path / "rl.json", {"r_ohm": 1.0, "l_henry": 0.01})
    out = tmp_path / "out"
    argv = ["solve", "--circuit", circuit, "--source", src,
            "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    text = out.read_text(encoding="utf-8")
    planes = [[1, 1999], [1, 2000], [2, 1999], [2, 2000]]
    if fmt == "json":
        terms = json.loads(text)["power"]["cross_terms"]
        assert [t["blade_indices"] for t in terms] == planes
    else:
        assert all(f"  s{a} s{b}  " in text for a, b in planes)


def test_solve_dc_through_capacitor_is_computation_error(tmp_path, circuit_equal):
    src = write_json(
        tmp_path / "dc.json",
        {"fundamental_hz": 50.0, "dc": 5.0,
         "harmonics": [{"order": 1, "rms": 10.0, "phase_rad": 0.0}]},
    )
    assert main(["solve", "--circuit", circuit_equal, "--source", src]) == 1
    out = tmp_path / "out"
    for fmt in FORMATS:
        assert main(["solve", "--circuit", circuit_equal, "--source", src,
                     "--format", fmt, "--out", str(out)]) == 1
        assert not out.exists()


# -- analyze -------------------------------------------------------------

def test_analyze_bench_json(tmp_path, bench_csv):
    out = tmp_path / "report.json"
    ts = tmp_path / "ts.csv"
    rc = main(
        ["analyze", "--input", bench_csv, "--fundamental", "50", "--orders", "9",
         "--format", "json", "--out", str(out), "--timeseries", str(ts)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["input"]["samples"] == BENCH_SAMPLES
    assert doc["input"]["duration_s"] == pytest.approx(0.2)
    assert doc["waveform"]["active_power_w"] == pytest.approx(359.21, rel=0.01)
    assert doc["waveform"]["thd_u"] == pytest.approx(0.0267, abs=5e-4)
    assert doc["power"]["pf"] == pytest.approx(0.589, rel=0.02)
    assert doc["currents"]["norms"]["i_a"] == pytest.approx(1.535, rel=0.02)
    assert doc["currents"]["norms"]["i_N"] == pytest.approx(2.108, rel=0.02)
    jsonschema.validate(doc["power"], POWER_REPORT_SCHEMA)

    ts_lines = ts.read_text().splitlines()
    assert ts_lines[0] == "t_s,u,i,p,i_a,i_N"
    assert len(ts_lines) == 1 + BENCH_SAMPLES


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_analyze_without_fundamental_exits_2(tmp_path, fmt, capsys):
    # a pure 3rd harmonic: THD has no fundamental to divide by, whatever
    # the format prints
    u = sample_signal(rows_to_signal([(3, 10.0, 0.4)], BENCH_F0_HZ),
                      BENCH_FS_HZ, BENCH_SAMPLES)
    i = sample_signal(rows_to_signal([(3, 0.5, -0.2)], BENCH_F0_HZ),
                      BENCH_FS_HZ, BENCH_SAMPLES)
    lines = [f"# fs_hz = {BENCH_FS_HZ}"]
    lines += [f"{a:.17g},{b:.17g}" for a, b in zip(u.samples, i.samples)]
    path = tmp_path / "third.csv"
    path.write_text("\n".join(lines) + "\n")
    out, ts = tmp_path / "out.txt", tmp_path / "ts.csv"
    rc = main(["analyze", "--input", str(path), "--fundamental", "50",
               "--orders", "5", "--format", fmt, "--out", str(out),
               "--timeseries", str(ts)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: THD needs a fundamental component with rms > 0\n")
    assert not out.exists() and not ts.exists()


@pytest.mark.parametrize("bad", ["out", "timeseries"])
def test_analyze_opens_every_output_before_writing(tmp_path, bench_csv, bad, capsys):
    # a bad --out leaves no timeseries behind, and a bad --timeseries no
    # report: both files are opened before the first byte is written
    paths = {"out": tmp_path / "out.json", "timeseries": tmp_path / "ts.csv"}
    paths[bad] = tmp_path / "missing" / paths[bad].name
    rc = main(["analyze", "--input", bench_csv, "--fundamental", "50",
               "--orders", "9", "--format", "json", "--out", str(paths["out"]),
               "--timeseries", str(paths["timeseries"])])
    assert rc == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not paths["out"].exists() and not paths["timeseries"].exists()


def test_an_existing_output_keeps_its_bytes_when_another_fails(tmp_path, bench_csv):
    out = tmp_path / "out.json"
    out.write_text("earlier report")
    rc = main(["analyze", "--input", bench_csv, "--fundamental", "50",
               "--orders", "9", "--out", str(out),
               "--timeseries", str(tmp_path / "missing" / "ts.csv")])
    assert rc == 2
    assert out.read_text() == "earlier report"


def test_analyze_table_sections(capsys, bench_csv):
    rc = main(["analyze", "--input", bench_csv, "--fundamental", "50",
               "--orders", "9"])
    assert rc == 0
    text = capsys.readouterr().out
    for title in ("Waveform", "Spectra", "Power summary",
                  "Current decomposition (A)"):
        assert title in text


def test_analyze_interharmonics_flag(tmp_path):
    from gapower.phasor import SpectralSignal

    sig = SpectralSignal(50.0, orders=[1, 2.5], rms=[10.0, 2.0], phase_rad=[0.0, 0.3])
    w = sample_signal(sig, 6400.0, 1280)  # 10 periods
    path = tmp_path / "ih.csv"
    path.write_text(
        "# fs_hz=6400\n"
        + "\n".join(f"{v:.17g},{v / 10:.17g}" for v in w.samples)
        + "\n"
    )
    out = tmp_path / "ih.json"
    rc = main(
        ["analyze", "--input", str(path), "--fundamental", "50", "--orders", "2",
         "--interharmonics", "2.5", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    inter = doc["voltage_spectrum"]["interharmonics"]
    assert len(inter) == 1 and inter[0]["order"] == 2.5
    assert inter[0]["rms"] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("raw", ["nan", "inf", "2", "3.5,2.5", "2.5,2.5", "-0.5"])
def test_analyze_bad_interharmonics(bench_csv, capsys, raw):
    assert main(["analyze", "--input", bench_csv, "--fundamental", "50",
                 "--orders", "9", f"--interharmonics={raw}"]) == 2
    assert "--interharmonics" in capsys.readouterr().err


def test_analyze_empty_input(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["analyze", "--input", str(path), "--fundamental", "50",
                 "--orders", "9"]) == 2


def test_analyze_input_not_utf8(tmp_path, capsys):
    path = tmp_path / "rec.csv"
    path.write_bytes(b"# fs_hz = 1000\n1,2\n\xff\n")
    assert main(["analyze", "--input", str(path), "--fundamental", "50",
                 "--orders", "9"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


def test_analyze_non_coherent_fundamental(bench_csv):
    assert main(["analyze", "--input", bench_csv, "--fundamental", "51",
                 "--orders", "9"]) == 2


def test_analyze_bad_config(bench_csv, capsys):
    for fundamental, orders, message in (
        ("-50", "9", "fundamental must be > 0 Hz, got -50.0"),
        ("nan", "9", "fundamental must be > 0 Hz, got nan"),
        ("50", "0", "max order must be >= 1, got 0"),
    ):
        assert main(["analyze", "--input", bench_csv, "--fundamental", fundamental,
                     "--orders", orders]) == 2
        assert message in capsys.readouterr().err


# -- decompose -----------------------------------------------------------

@pytest.fixture
def example_spectra(tmp_path):
    v = write_json(
        tmp_path / "v.json",
        {"fundamental_hz": OMEGA1_F0_HZ,
         "harmonics": [{"order": 1, "rms": 100.0, "phase_rad": 0.0},
                       {"order": 3, "rms": 100.0, "phase_rad": 0.0}]},
    )
    rms_i = 100.0 / math.sqrt(2.0)
    c = write_json(
        tmp_path / "i.json",
        {"fundamental_hz": OMEGA1_F0_HZ,
         "harmonics": [{"order": 1, "rms": rms_i, "phase_rad": math.pi / 4},
                       {"order": 3, "rms": rms_i, "phase_rad": -math.pi / 4}]},
    )
    return v, c


def test_decompose_csv_rows(tmp_path, example_spectra):
    v, c = example_spectra
    out = tmp_path / "dec.csv"
    rc = main(["decompose", "--voltage", v, "--current", c,
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0,0,0,0,0,0,0"
    assert lines[2] == "1,0,0,0,50,50,50"
    assert lines[6] == "5,0,0,0,-50,-50,-50"


def test_decompose_proportional_current_has_no_residual(tmp_path):
    v = write_json(
        tmp_path / "v.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 10.0, "phase_rad": 0.2},
                       {"order": 5, "rms": 3.0, "phase_rad": -0.4}]},
    )
    c = write_json(
        tmp_path / "i.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 2.0, "phase_rad": 0.2},
                       {"order": 5, "rms": 0.6, "phase_rad": -0.4}]},
    )
    out = tmp_path / "d.json"
    rc = main(["decompose", "--voltage", v, "--current", c,
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["currents"]["norms"]["i_N"] == 0.0
    assert doc["currents"]["norms"]["i_a"] == pytest.approx(
        math.hypot(2.0, 0.6), abs=1e-5  # doc values carry 6 significant digits
    )


def test_decompose_current_only_order_routed_to_residual(tmp_path):
    v = write_json(
        tmp_path / "v.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 10.0, "phase_rad": 0.0}]},
    )
    c = write_json(
        tmp_path / "i.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 1.0, "phase_rad": 0.0},
                       {"order": 5, "rms": 2.0, "phase_rad": 0.5}]},
    )
    out = tmp_path / "d.json"
    rc = main(["decompose", "--voltage", v, "--current", c,
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    rows = {r["index"]: r for r in doc["currents"]["rows"]}
    for idx in (9, 10):  # the order-5 slots carry no voltage
        assert rows[idx]["i_p"] == 0.0 and rows[idx]["i_q"] == 0.0
        assert rows[idx]["i_N"] == rows[idx]["i"]
    assert doc["currents"]["norms"]["i_N"] == pytest.approx(2.0, abs=1e-6)


def test_decompose_fundamental_mismatch(tmp_path):
    v = write_json(
        tmp_path / "v.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 1.0, "phase_rad": 0.0}]},
    )
    c = write_json(
        tmp_path / "i.json",
        {"fundamental_hz": 60.0,
         "harmonics": [{"order": 1, "rms": 1.0, "phase_rad": 0.0}]},
    )
    assert main(["decompose", "--voltage", v, "--current", c]) == 2


def test_decompose_zero_voltage_is_computation_error(tmp_path):
    v = write_json(tmp_path / "v.json", {"fundamental_hz": 50.0, "harmonics": []})
    c = write_json(
        tmp_path / "i.json",
        {"fundamental_hz": 50.0,
         "harmonics": [{"order": 1, "rms": 1.0, "phase_rad": 0.0}]},
    )
    assert main(["decompose", "--voltage", v, "--current", c]) == 1


@pytest.mark.parametrize(
    "voltage, current, message",
    [
        # 1e10 A over 1e-300 V: the DC conductance leaves the float range
        ({"dc": 1e-300, "harmonics": [{"order": 1, "rms": 1e-290}]},
         {"dc": 1e10, "harmonics": [{"order": 1, "rms": 1.0}]},
         "conductance at DC exceeds the float range"),
        ({"harmonics": [{"order": 1, "rms": 1e-300}]},
         {"harmonics": [{"order": 1, "rms": 1e10}]},
         "admittance at order 1.0 exceeds the float range"),
    ],
    ids=["dc", "order"],
)
def test_decompose_admittance_beyond_float_range_exits_1(
    tmp_path, capsys, voltage, current, message
):
    v = write_json(tmp_path / "v.json", {"fundamental_hz": 50.0, **voltage})
    c = write_json(tmp_path / "i.json", {"fundamental_hz": 50.0, **current})
    out = tmp_path / "d.csv"
    rc = main(["decompose", "--voltage", v, "--current", c,
               "--format", "csv", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- chunked output ------------------------------------------------------------

def test_small_chunks_write_the_same_bytes(
    tmp_path, bench_csv, source_file, circuit_unequal, example_spectra, monkeypatch
):
    commands = {
        "analyze": ["analyze", "--input", bench_csv, "--fundamental", "50",
                    "--orders", "9"],
        "solve": ["solve", "--circuit", circuit_unequal, "--source", source_file],
        "decompose": ["decompose", "--voltage", example_spectra[0],
                      "--current", example_spectra[1]],
    }

    def run(tag):
        outputs = {}
        for name, argv in commands.items():
            for fmt in ("json", "csv"):
                out = tmp_path / f"{tag}-{name}.{fmt}"
                ts = tmp_path / f"{tag}-{name}-{fmt}-ts.csv"
                extra = ["--timeseries", str(ts)] if name == "analyze" else []
                assert main([*argv, "--format", fmt, "--out", str(out), *extra]) == 0
                outputs[name, fmt] = out.read_bytes()
                if extra:
                    outputs[name, fmt, "timeseries"] = ts.read_bytes()
        return outputs

    whole = run("whole")
    for size in (1, 2, 3):
        monkeypatch.setattr(gapower.cli, "_ROWS_PER_CALL", size)
        monkeypatch.setattr(gapower.cli, "_RECORDS_PER_CHUNK", size)
        assert run(f"small{size}") == whole


@pytest.mark.parametrize("stage", ["timeseries", "report"])
def test_a_failed_streamed_write_leaves_no_file_it_created(
    tmp_path, bench_csv, stage, monkeypatch, capsys
):
    # the timeseries fails after its header is written, with the report
    # opened but empty; the report fails at its cross terms, after its
    # spectra and the whole timeseries are written
    g6_rows = gapower.cli._g6_rows

    def g6_rows_exhausted(a, row):
        if row.count("%.6g") == 6:
            raise MemoryError("timeseries chunk")
        return g6_rows(a, row)

    def ints_exhausted(values):
        raise MemoryError("cross-term chunk")

    if stage == "timeseries":
        monkeypatch.setattr(gapower.cli, "_g6_rows", g6_rows_exhausted)
    else:
        monkeypatch.setattr(gapower.cli, "_ints", ints_exhausted)
    out, ts = tmp_path / "out.json", tmp_path / "ts.csv"
    rc = main(["analyze", "--input", bench_csv, "--fundamental", "50",
               "--orders", "9", "--format", "json", "--out", str(out),
               "--timeseries", str(ts)])
    assert rc == 1
    message = {"timeseries": "timeseries chunk", "report": "cross-term chunk"}[stage]
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv"]


def test_timeseries_is_written_in_bounded_memory(tmp_path):
    # 200,000 rows: about 46 MB traced peak when the whole CSV text is
    # built before the write, about 26 MB in chunks of _ROWS_PER_CALL rows
    u_w, i_w = (
        sample_signal(rows_to_signal(rows, BENCH_F0_HZ), BENCH_FS_HZ, 200_000)
        for rows in (BENCH_VOLTAGE_ROWS, BENCH_CURRENT_ROWS)
    )
    u_sig, i_sig = dft_extract(u_w, BENCH_F0_HZ, 9), dft_extract(i_w, BENCH_F0_HZ, 9)
    layout = BasisLayout.for_signals(u_sig, i_sig)
    cc = decompose_currents(to_phasor(u_sig, layout), to_phasor(i_sig, layout))
    path = tmp_path / "ts.csv"
    tracemalloc.start()
    try:
        gapower.cli._write_text(gapower.cli._timeseries_csv(u_w, i_w, cc), str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 35e6
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 200_000


def noisy_recording(path) -> str:
    """A seeded noisy recording of the bench spectrum, 3,125 rows (ten
    periods): the noise fills every order, so --orders N keeps N orders
    and about 2 N**2 cross terms."""
    rng = np.random.default_rng(12)
    u, i = (
        sample_signal(rows_to_signal(rows, BENCH_F0_HZ), BENCH_FS_HZ, BENCH_SAMPLES)
        .samples + rng.normal(0.0, sigma, BENCH_SAMPLES)
        for rows, sigma in ((BENCH_VOLTAGE_ROWS, 0.5), (BENCH_CURRENT_ROWS, 0.02))
    )
    np.savetxt(path, np.column_stack([u, i]), fmt="%.12g", delimiter=",",
               header=f"fs_hz = {BENCH_FS_HZ}")
    return str(path)


def test_report_is_written_in_bounded_memory(tmp_path):
    # --orders 100 writes 20,100 cross terms (2.3 MB of JSON): a traced
    # peak of 5.9 MB when the whole report is built before the write,
    # about 1.9 MB in chunks of _RECORDS_PER_CHUNK records
    rec = noisy_recording(tmp_path / "rec.csv")
    out = tmp_path / "out.json"

    def traced(orders: int) -> tuple[int, int]:
        """The traced peak of a warm call at ``orders``, and its output size."""
        argv = ["analyze", "--input", rec, "--fundamental", "50",
                "--orders", str(orders), "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out.stat().st_size

    peak, _ = traced(100)
    assert peak < 3e6
    (low, low_size), (high, high_size) = traced(50), traced(150)
    # the output grows by 4.4 MB; the peak only by what the larger power
    # itself holds
    assert high - low < (high_size - low_size) / 3


# -- parser / determinism ----------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["solve"]) == 2
    assert main(["analyze", "--input", "x.csv"]) == 2
    assert main(["solve", "--circuit", "a", "--source", "b",
                 "--format", "yaml"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_output_is_deterministic(tmp_path, source_file, circuit_unequal, fmt):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.{fmt}"
        rc = main(["solve", "--circuit", circuit_unequal, "--source", source_file,
                   "--format", fmt, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_analyze_deterministic(tmp_path, bench_csv):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        rc = main(["analyze", "--input", bench_csv, "--fundamental", "50",
                   "--orders", "9", "--format", "json", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- cold start ------------------------------------------------------------

# A fresh interpreter runs one command six times and reports what it
# imported, whether it built the number kernel's tables, how many objects
# the collector holds frozen after each call, what a full collection finds
# after the last one, and whether every call wrote the same bytes.
_FRESH_MAIN = """
import gc, json, sys
from pathlib import Path
from gapower import cli
out = Path(sys.argv[sys.argv.index("--out") + 1])
rcs, frozen, outputs = [], [], set()
for _ in range(6):
    rcs.append(cli.main(sys.argv[1:]))
    frozen.append(gc.get_freeze_count())
    outputs.add(out.read_bytes())
tables = cli._digit_words.cache_info().currsize + cli._exponent_words.cache_info().currsize
print(json.dumps({"rcs": rcs, "tables": tables, "frozen": frozen,
                  "collected": gc.collect(), "outputs": len(outputs),
                  "modules": sorted({"dataclasses", "numpy.ma"} & set(sys.modules))}))
"""


@pytest.mark.parametrize("command, fmt", [
    ("solve", "csv"), ("solve", "json"), ("analyze", "json"), ("analyze", "table"),
    ("decompose", "json"),
])
def test_commands_import_no_dataclasses_or_numpy_ma(
    tmp_path, source_file, circuit_equal, bench_csv, example_spectra, command, fmt
):
    """``dataclasses`` would cost every process its generated methods at
    import, and numpy's set routines import ``numpy.ma`` (about 20 ms) on
    first use; a short table never needs the kernel's tables.  The
    import-time heap is frozen once per process, so repeated calls give
    the same bytes and freeze nothing more."""
    inputs = {
        "solve": ["--circuit", circuit_equal, "--source", source_file],
        "analyze": ["--input", bench_csv, "--fundamental", "50", "--orders", "9"],
        "decompose": ["--voltage", example_spectra[0], "--current", example_spectra[1]],
    }[command]
    argv = [command, *inputs, "--format", fmt, "--out", str(tmp_path / "out")]
    env = dict(os.environ)
    paths = [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout)
    assert report["rcs"] == [0] * 6
    assert report["outputs"] == 1
    assert report["modules"] == []
    if command == "analyze" and fmt == "table":
        assert report["tables"] == 0
    # the first call froze the import-time heap, and no later call froze
    # more: each call's own garbage (the parser's cycles) stays collectable
    assert report["frozen"][0] > 0
    assert report["frozen"] == report["frozen"][:1] * 6
    assert report["collected"] > 0
