"""``analyze --format json`` end to end against an independent reference.

A drawn coherent recording (DC, orders 1-15, one half-integer
interharmonic, optional noise, the voltage scaled by alpha and the current
by beta, each log-uniform in [1e-6, 1e6]) is written with ``%.17g``, so
the CLI parses exactly the drawn doubles.  Every reported total, per-order
P/Q, current norm and compensation susceptance is compared at the 6 digits
it is printed with to ``oracles.analyze_brute``, an ``np.fft.rfft`` path
that shares no code with the package.  The same recording at alpha = beta
= 1 checks the unit law at the CLI: the scaled report is the unscaled one
scaled by alpha*beta (powers), beta (currents) or beta/alpha
(susceptances), with pf unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gapower.cli import main

from oracles import analyze_brute, close6, ulp6

F0_HZ = 50.0
PERIODS = 4  # even, so every half-integer order falls on a DFT bin
FS_HZ = 64 * F0_HZ
ORDERS = 15
CURRENTS = ("i_a", "i_N", "i_p", "i_q")

lines = st.tuples(
    st.booleans(), st.floats(-3.0, 0.0), st.floats(-math.pi, math.pi)
)


@st.composite
def recordings(draw):
    """(u, i, interharmonic, alpha, beta): unscaled samples of a recording
    whose lines have rms 1e-3..1 (the fundamental on both sides), and the
    two scales."""
    interharmonic = draw(st.integers(0, ORDERS - 1)) + 0.5
    t = np.arange(PERIODS * 64) / FS_HZ
    noise = draw(st.sampled_from([0.0, 1e-4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def side() -> np.ndarray:
        x = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 0.0))
        drawn = draw(st.lists(lines, min_size=ORDERS + 1, max_size=ORDERS + 1))
        for k, (held, log_rms, phase) in enumerate(drawn, start=1):
            order = float(k) if k <= ORDERS else interharmonic
            if held or k == 1:
                w = 2.0 * math.pi * order * F0_HZ
                x = x + math.sqrt(2.0) * 10.0**log_rms * np.sin(w * t + phase)
        return x + noise * rng.standard_normal(t.size)

    u, i = side(), side()
    alpha, beta = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    return u, i, interharmonic, alpha, beta


def analyze_json(u, i, interharmonic: float) -> dict:
    """The parsed ``analyze --format json`` report of the recording."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# fs_hz={FS_HZ!r}\n")
            fh.writelines("%.17g,%.17g\n" % row for row in zip(u, i))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["analyze", "--input", path, "--fundamental", str(F0_HZ),
                       "--orders", str(ORDERS), "--interharmonics",
                       repr(interharmonic), "--format", "json"])
    assert rc == 0
    return json.loads(out.getvalue())


def check_against_reference(doc: dict, ref: dict) -> None:
    power, currents = doc["power"], doc["currents"]
    s = ref["apparent_va"]
    assert close6(power["p_w"], ref["p_w"], s, s)
    assert close6(power["apparent_va"], s, s, s)
    assert close6(power["pf"], ref["pf"], 1.0, 1.0)
    rows = power["per_harmonic"]
    assert [r["order"] for r in rows] == [row[0] for row in ref["per_order"]]
    for r, (_, p, q, scale) in zip(rows, ref["per_order"]):
        assert close6(r["p_w"], p, scale, s), r
        assert close6(r["q_var"], q, scale, s), r
    i_norm = ref["norms"]["i"]
    for name in (*CURRENTS, "i"):
        assert close6(currents["norms"][name], ref["norms"][name], i_norm, i_norm), name
    records = currents["compensation_susceptances"]
    assert [r["order"] for r in records] == [row[0] for row in ref["compensation"]]
    for r, (_, siemens, scale) in zip(records, ref["compensation"]):
        assert close6(r["siemens"], siemens, scale, scale), r


def check_unit_law(scaled: dict, unit: dict, ref: dict, alpha: float,
                   beta: float) -> None:
    """Each number of ``scaled`` is its ``unit`` counterpart times its
    factor, within the 6-digit rounding of each; ``ref`` (the reference of
    ``unit``) gives the scale of the float slack."""
    def same(got: float, base: float, factor: float, total: float) -> bool:
        rounding = 0.51 * (ulp6(got) + factor * ulp6(base))
        return abs(got - factor * base) <= rounding + 1e-12 * total * factor

    ps, cs = scaled["power"], scaled["currents"]
    pu, cu = unit["power"], unit["currents"]
    s = ref["apparent_va"]
    for key in ("p_w", "apparent_va"):
        assert same(ps[key], pu[key], alpha * beta, s), key
    assert same(ps["pf"], pu["pf"], 1.0, 1.0)
    assert [r["order"] for r in ps["per_harmonic"]] == [
        r["order"] for r in pu["per_harmonic"]]
    for a, b in zip(ps["per_harmonic"], pu["per_harmonic"]):
        assert same(a["p_w"], b["p_w"], alpha * beta, s), a
        assert same(a["q_var"], b["q_var"], alpha * beta, s), a
    i_norm = ref["norms"]["i"]
    for name in (*CURRENTS, "i"):
        assert same(cs["norms"][name], cu["norms"][name], beta, i_norm), name
    records = cs["compensation_susceptances"], cu["compensation_susceptances"]
    assert [r["order"] for r in records[0]] == [r["order"] for r in records[1]]
    for a, b, (_, _, scale) in zip(*records, ref["compensation"]):
        assert same(a["siemens"], b["siemens"], beta / alpha, scale), a


@given(recordings())
def test_analyze_json_matches_the_rfft_reference(recording):
    u, i, interharmonic, alpha, beta = recording
    unit, ref = analyze_json(u, i, interharmonic), analyze_brute(
        u, i, FS_HZ, F0_HZ, ORDERS, interharmonic)
    check_against_reference(unit, ref)
    su, si = alpha * u, beta * i
    scaled = analyze_json(su, si, interharmonic)
    check_against_reference(
        scaled, analyze_brute(su, si, FS_HZ, F0_HZ, ORDERS, interharmonic))
    check_unit_law(scaled, unit, ref, alpha, beta)
