"""``decompose --format json`` end to end against an independent reference.

A drawn voltage and current at 50 Hz share a few dense low orders; the
voltage alone holds one more order, the current alone another, both hold
DC and one interharmonic, and every rms is scaled by a log-uniform
factor.  They are written as JSON, so the CLI parses exactly the drawn
doubles.  The current norms, the per-slot rows and the compensation
susceptances are compared at the 6 digits they are printed with to
``oracles.decompose_brute``, a complex-phasor path that shares no code
with the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from gapower.cli import main

from oracles import close6, decompose_brute

F0_HZ = 50.0


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def pairs(draw):
    """(u_dc, u_lines, i_dc, i_lines): a voltage and a current."""
    scale = draw(log_uniform(1e-3, 1e3))
    orders = draw(st.lists(st.integers(1, 8), min_size=3, max_size=6, unique=True))
    *shared, u_only, i_only = orders
    inter = draw(st.sampled_from([0.5, 2.5, 4.25, 7.75]))

    def line():
        return scale * draw(log_uniform(1e-3, 1.0)), draw(st.floats(-math.pi, math.pi))

    def dc():
        return scale * draw(st.sampled_from([-1.0, 1.0])) * draw(log_uniform(1e-3, 1.0))

    u_lines = {float(k): line() for k in sorted([*shared, u_only, inter])}
    i_lines = {float(k): line() for k in sorted([*shared, i_only, inter])}
    return dc(), u_lines, dc(), i_lines


def spectrum(dc: float, lines: dict) -> dict:
    def records(integer: bool) -> list:
        return [{"order": int(k) if integer else k, "rms": rms, "phase_rad": phase}
                for k, (rms, phase) in lines.items() if k.is_integer() == integer]

    return {"fundamental_hz": F0_HZ, "dc": dc,
            "harmonics": records(True), "interharmonics": records(False)}


def decompose_json(u_dc, u_lines, i_dc, i_lines) -> dict:
    """The parsed ``decompose --format json`` report of the pair."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("u.json", "i.json")]
        for path, doc in zip(paths, (spectrum(u_dc, u_lines), spectrum(i_dc, i_lines))):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["decompose", "--voltage", paths[0], "--current", paths[1],
                       "--format", "json"])
    assert rc == 0
    return json.loads(out.getvalue())


@given(pairs())
def test_decompose_json_matches_the_complex_reference(pair):
    currents, ref = decompose_json(*pair)["currents"], decompose_brute(*pair)
    s = ref["scale"]
    assert list(currents["norms"]) == list(ref["norms"])
    for name, norm in ref["norms"].items():
        assert close6(currents["norms"][name], norm, s, s), name
    rows = currents["rows"]
    assert [row["index"] for row in rows] == list(range(len(ref["rows"])))
    for row, want in zip(rows, ref["rows"]):
        for name, value in zip(ref["norms"], want):
            assert close6(row[name], value, s, s), (row, name)
    records = currents["compensation_susceptances"]
    assert [row["order"] for row in records] == [row[0] for row in ref["compensation"]]
    for row, (_, siemens, scale) in zip(records, ref["compensation"]):
        assert close6(row["siemens"], siemens, scale, scale), row
