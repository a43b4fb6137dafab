"""``solve --format json`` and ``--format table`` end to end against an
independent reference.

A drawn series RLC branch (R, L and C log-uniform, C sometimes absent)
under a drawn 50 Hz source (DC where no capacitor blocks it, a few dense
low orders and one sparse order up to 10^4, all scaled by a log-uniform
factor) is written as JSON, so the CLI parses exactly the drawn doubles.
The reported totals, per-order P/Q, current norms and compensation
susceptances, and in the tables the source and current spectra too, are
compared at the 6 digits they are printed with to
``oracles.solve_brute``, a complex-phasor path that shares no code with
the package.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from gapower.cli import main

from oracles import close6, solve_brute

F0_HZ = 50.0


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def circuits(draw):
    """(r, l, c, dc, lines): the branch and the source it is solved for."""
    r, l = draw(log_uniform(1e-2, 1e2)), draw(log_uniform(1e-5, 1e-1))
    c = draw(st.one_of(st.none(), log_uniform(1e-6, 1e-2)))
    scale = draw(log_uniform(1e-3, 1e3))
    dense = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))
    sparse = round(draw(log_uniform(7, 1e4)))
    lines = {
        k: (scale * draw(log_uniform(1e-3, 1.0)), draw(st.floats(-math.pi, math.pi)))
        for k in [*dense, sparse]
    }
    dc = 0.0
    if c is None and draw(st.booleans()):  # a capacitor blocks DC
        dc = scale * draw(st.sampled_from([-1.0, 1.0])) * draw(log_uniform(1e-3, 1.0))
    return r, l, c, dc, lines


def solve_text(r, l, c, dc, lines, fmt: str) -> str:
    """The ``solve --format fmt`` report of the circuit."""
    source = {
        "fundamental_hz": F0_HZ,
        "dc": dc,
        "harmonics": [
            {"order": k, "rms": rms, "phase_rad": phase}
            for k, (rms, phase) in sorted(lines.items())
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("circuit.json", "source.json")]
        for path, doc in zip(paths, ({"r_ohm": r, "l_henry": l, "c_farad": c}, source)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["solve", "--circuit", paths[0], "--source", paths[1],
                       "--format", fmt])
    assert rc == 0
    return out.getvalue()


@given(circuits())
def test_solve_json_matches_the_complex_reference(circuit):
    r, l, c, dc, lines = circuit
    doc = json.loads(solve_text(*circuit, "json"))
    ref = solve_brute(r, l, c, F0_HZ, dc, lines)
    power, currents = doc["power"], doc["currents"]
    s, total = ref["apparent_va"], ref["scale"]
    assert close6(power["p_w"], ref["p_w"], total, total)
    assert close6(power["apparent_va"], s, total, total)
    assert close6(power["pf"], ref["pf"], total / s, total / s)
    rows = power["per_harmonic"]
    assert [row["order"] for row in rows] == [row[0] for row in ref["per_order"]]
    for row, (_, p, q, scale) in zip(rows, ref["per_order"]):
        assert close6(row["p_w"], p, scale, total), row
        assert close6(row["q_var"], q, scale, total), row
    assert list(currents["norms"]) == list(ref["norms"])
    for name, norm in ref["norms"].items():
        assert close6(currents["norms"][name], norm, ref["norm_scale"],
                      ref["norm_scale"]), name
    records = currents["compensation_susceptances"]
    assert [row["order"] for row in records] == [row[0] for row in ref["compensation"]]
    for row, (_, siemens, scale) in zip(records, ref["compensation"]):
        assert close6(row["siemens"], siemens, scale, scale), row


def cut_tables(text: str) -> dict:
    """Each table of a ``--format table`` report by title: its rows of
    cell texts, each row cut at the offsets of the header's names."""
    tables = {}
    for block in text.split("\n\n"):
        title, header, *rows = block.rstrip("\n").split("\n")
        starts, at = [], 0
        for name in header.split():
            at = header.index(name, at)
            starts.append(at)
            at += len(name)
        tables[title] = [[row[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
                         for row in rows]
    return tables


def close_angle(got: float, ref: float, scale: float) -> bool:
    """``close6`` for an angle, ``got`` taken to the turn of ``ref``."""
    return close6(got - 2 * math.pi * round((got - ref) / (2 * math.pi)), ref, scale, scale)


@given(circuits())
def test_solve_tables_match_the_complex_reference(circuit):
    r, l, c, dc, lines = circuit
    tables = cut_tables(solve_text(*circuit, "table"))
    ref = solve_brute(r, l, c, F0_HZ, dc, lines)
    s, total, norm_total = ref["apparent_va"], ref["scale"], ref["norm_scale"]
    spectra = tables["Spectra"]
    assert len(spectra) == len(ref["spectra"])
    for row, (k, u, i, grow) in zip(spectra, ref["spectra"]):
        if k == 0:  # the row of DC levels
            assert row[0] == "dc" and row[2] == row[4] == "", row
            assert close6(float(row[1]), u.real, 0.0, 0.0), row
            assert close6(float(row[3]), i.real, abs(i), norm_total), row
            continue
        assert float(row[0]) == k, row
        assert close6(float(row[1]), abs(u), abs(u), abs(u)), row
        assert close_angle(float(row[2]), cmath.phase(u), math.pi), row
        assert close6(float(row[3]), abs(i), abs(i) * grow, norm_total), row
        assert close_angle(float(row[4]), cmath.phase(i), math.pi * grow), row
    [summary] = tables["Power summary"]
    assert close6(float(summary[0]), ref["p_w"], total, total)
    assert close6(float(summary[1]), s, total, total)
    assert close6(float(summary[2]), ref["pf"], total / s, total / s)
    rows = tables["Per-harmonic P/Q"]
    assert [float(row[0]) for row in rows] == [row[0] for row in ref["per_order"]]
    for row, (_, p, q, scale) in zip(rows, ref["per_order"]):
        assert close6(float(row[1]), p, scale, total), row
        assert close6(float(row[2]), q, scale, total), row
    rows = tables["Compensation susceptances (S)"]
    assert [float(row[0]) for row in rows] == [row[0] for row in ref["compensation"]]
    for row, (_, siemens, scale) in zip(rows, ref["compensation"]):
        assert close6(float(row[1]), siemens, scale, scale), row
