"""Results do not depend on units: the zero rule is relative to the signal.

Scaling the voltage by alpha and the current by beta scales the power by
alpha*beta and leaves every ratio, and the set of occupied orders, alone,
out to scales where the squares of the values overflow or underflow.
A component is never dropped for being small in absolute terms, and the
phases 0, +-pi/2 and pi put exact values on the slots.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gapower.circuit import SeriesRLC, admittances_for, solve_current
from gapower.cli import main
from gapower.decompose import decompose_currents, estimate_admittances
from gapower.phasor import (
    BasisLayout,
    SpectralSignal,
    from_phasor,
    to_phasor,
)
from gapower.power import geometric_power, harmonic_pq, power_factor

from conftest import vector
from oracles import branch_current_complex, pair_from_complex, pq_complex

# A value of 1e-3 .. 1e3 of either sign, or an exact zero (an empty slot).
slot_values = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e,
              st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0)),
)
# alpha = 10**e, log-uniform in [1e-150, 1e150]
exponents = st.floats(-150.0, 150.0)


@st.composite
def pairs(draw):
    """Non-zero voltage and current on one layout, with half-empty planes,
    voltage-free orders and maybe DC."""
    layout = BasisLayout(n=draw(st.integers(1, 5)))
    dim = layout.dimension

    def one():
        terms = {k: draw(slot_values) for k in range(dim)}
        terms[draw(st.integers(1, dim - 1))] = draw(st.floats(0.5, 2.0))
        return vector(layout, terms)

    return one(), one()


def ratios(u, i) -> dict[str, float]:
    cc = decompose_currents(u, i)
    n = i.norm()
    out = {name: value / n for name, value in cc.norms().items()}
    out["i_G"] = cc.i_G.norm() / n
    return out


@given(pairs(), exponents, exponents)
def test_scaling_u_and_i_scales_m_and_keeps_ratios(pair, ea, eb):
    u, i = pair
    alpha, beta = 10.0**ea, 10.0**eb
    assume(alpha * beta * u.norm() * i.norm() < sys.float_info.max)
    su, si = alpha * u, beta * i
    m, ms = geometric_power(u, i), geometric_power(su, si)
    size = su.norm() * si.norm()  # |M| of the scaled pair
    assert abs(ms.scalar - alpha * beta * m.scalar) <= 1e-12 * size
    assert np.max(np.abs(ms.bivector - alpha * beta * m.bivector)) <= 1e-12 * size
    assert power_factor(ms) == pytest.approx(power_factor(m), abs=1e-12)

    assert su.occupied_orders() == u.occupied_orders()
    assert si.occupied_orders() == i.occupied_orders()
    assert su.has_dc() == u.has_dc()
    want = ratios(u, i)
    for name, got in ratios(su, si).items():
        assert got == pytest.approx(want[name], rel=1e-9, abs=1e-12), name

    orders, p, q = (a.tolist() for a in harmonic_pq(su, si))
    assert orders == harmonic_pq(u, i)[0].tolist()
    for order, p_k, q_k in zip(orders, p, q):
        (ua, ub), (ia, ib) = su.pair(order), si.pair(order)
        p_ref, q_ref = pq_complex(
            math.hypot(ua, ub), math.atan2(ua, ub), math.hypot(ia, ib), math.atan2(ia, ib)
        )
        assert abs(p_k - p_ref) <= 1e-12 * size
        assert abs(q_k - q_ref) <= 1e-12 * size


def test_tiny_component_occupies_its_order():
    # 1e-13 A is a current like any other; in pA it would be 0.1
    s = SpectralSignal(50.0, orders=[1], rms=[1e-13], phase_rad=[0.3])
    p = to_phasor(s, BasisLayout(n=1))
    assert p.occupied_orders() == (1.0,)
    back = from_phasor(p)
    assert back.orders.tolist() == [1.0]
    assert back.rms[0] == pytest.approx(1e-13, rel=1e-12)
    assert back.phase_rad[0] == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("volts", [1e155, 1e-200])
def test_decompose_at_extreme_voltage_scale(volts):
    # ||u||^2 is 1e310 or 1e-400: out of range unless scaled before squaring
    layout = BasisLayout(n=1)
    u, i = vector(layout, {2: volts}), vector(layout, {2: 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ys = estimate_admittances(u, i)
        cc = decompose_currents(u, i, ys)
    assert cc.i_a.coeffs.tolist() == i.coeffs.tolist()
    assert not cc.i_N.coeffs.any()
    assert ys.present.tolist() == [False, True]
    assert ys.conductance.tolist() == [0.0, 2.0 / volts]
    assert ys.susceptance.tolist() == [0.0]


def test_active_current_of_a_tiny_voltage_against_a_huge_current():
    # P/||u||^2 is 1e310 here: i_a is formed without that ratio
    layout = BasisLayout(n=1)
    u = to_phasor(SpectralSignal(50.0, orders=[1], rms=[1e-300]), layout)
    i = to_phasor(SpectralSignal(50.0, orders=[1], rms=[1e10]), layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cc = decompose_currents(u, i, admittances_for(SeriesRLC(r=1.0), u))
    assert cc.i_a.coeffs.tolist() == [0.0, 0.0, 1e10]
    assert not cc.i_N.coeffs.any()


def test_huge_component_has_its_norm_and_order():
    p = vector(BasisLayout(n=1), {1: 1e155})
    assert p.norm() == 1e155
    assert p.occupied_orders() == (1.0,)


def test_solve_at_huge_voltage_against_complex_oracle():
    s = SpectralSignal(50.0, orders=[1], rms=[1e155], phase_rad=[0.7])
    u = to_phasor(s, BasisLayout(n=1))
    i = solve_current(u, admittances_for(SeriesRLC(r=1e10), u))
    want = pair_from_complex(
        branch_current_complex(1e155, 0.7, 1e10, 0.0, None, 1.0, u.omega))
    assert abs(want[0] + 1j * want[1]) == pytest.approx(1e145, rel=1e-6)
    assert i.pair(1) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("volts, ohms", [(1e170, 1e160), (1e-150, 1e-160)])
def test_solve_at_extreme_resistance_against_complex_oracle(tmp_path, volts, ohms):
    # R**2 is 1e320 or 1e-320: out of range unless scaled before squaring
    s = SpectralSignal(50.0, orders=[1], rms=[volts], phase_rad=[0.7])
    u = to_phasor(s, BasisLayout(n=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        i = solve_current(u, admittances_for(SeriesRLC(r=ohms), u))
    want = pair_from_complex(
        branch_current_complex(volts, 0.7, ohms, 0.0, None, 1.0, u.omega))
    assert i.pair(1) == pytest.approx(want, rel=1e-12)

    source = {"fundamental_hz": 50.0,
              "harmonics": [{"order": 1, "rms": volts, "phase_rad": 0.0}]}
    (tmp_path / "src.json").write_text(json.dumps(source))
    (tmp_path / "c.json").write_text(json.dumps({"r_ohm": ohms}))
    out = tmp_path / "out.csv"
    rc = main(["solve", "--circuit", str(tmp_path / "c.json"),
               "--source", str(tmp_path / "src.json"), "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    amps = abs(branch_current_complex(volts, 0.0, ohms, 0.0, None, 1.0, u.omega))
    assert f"{amps:.6g}" == "1e+10"
    assert out.read_text().splitlines()[-1] == "norm,1e+10,1e+10,0,0,0,1e+10"


def test_solve_rejects_a_current_beyond_the_float_range(tmp_path, capsys):
    # G = 1e307 S is finite, but G * 230 V * sqrt(2) is not
    source = {"fundamental_hz": 50.0,
              "harmonics": [{"order": 1, "rms": 230.0, "phase_rad": 0.0}]}
    (tmp_path / "src.json").write_text(json.dumps(source))
    (tmp_path / "c.json").write_text(json.dumps({"r_ohm": 1e-307}))
    out = tmp_path / "out.csv"
    rc = main(["solve", "--circuit", str(tmp_path / "c.json"),
               "--source", str(tmp_path / "src.json"), "--format", "csv",
               "--out", str(out)])
    assert rc == 1
    assert "current exceeds the float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phase, want", [
    (math.pi, (0.0, -230e3)),
    (0.0, (0.0, 230e3)),
    (math.pi / 2, (230e3, 0.0)),
    (-math.pi / 2, (-230e3, 0.0)),
])
def test_phase_pi_gives_exact_slots(phase, want):
    # sin(pi)*230e3 is 2.8e-11 in floating point, a spurious slot value
    s = SpectralSignal(50.0, orders=[1], rms=[230e3], phase_rad=[phase])
    assert to_phasor(s, BasisLayout(n=1)).pair(1) == want


# ``solve`` of a source whose orders sit at phase +-pi/2, as printed before
# the zero rule became relative (every cos(pi/2) slot an exact 0).
QUARTER_PHASE_TABLE = """\
Spectra
  order  u_rms  u_phase  i_rms     i_phase
  1      230    1.5708   33.0334   0.445457
  3      12     -1.5708  0.628707  -2.98376

Power summary
  p_w      apparent_va  pf
  3274.81  7609.4       0.430363

Per-harmonic P/Q
  order  p_w      q_var
  1      3273.62  6856.26
  3      1.18582  7.45071

Cross-frequency terms
  blade  va
  s1 s5  148.069
  s1 s6  -142.805
  s2 s5  357.718

Current decomposition (A)
  index  i_p         i_a        i_s        i_q        i_N        i
  0      0           0          0          0          0          0
  1      14.2331     14.1996    0.0334974  0          0.0334974  14.2331
  2      0           0          0          29.8098    29.8098    29.8098
  3      0           0          0          0          0          0
  4      0           0          0          0          0          0
  5      -0.0988181  -0.740851  0.642033   0          0.642033   -0.0988181
  6      0           0          0          -0.620892  -0.620892  -0.620892
  norm   14.2335     14.219     0.642906   29.8163    29.8232    33.0394

Compensation susceptances (S)
  order  siemens
  1      0.129608
  3      0.051741
"""


def test_solve_at_quarter_phase_prints_exact_zeros(tmp_path):
    source = {"fundamental_hz": 50.0, "harmonics": [
        {"order": 1, "rms": 230.0, "phase_rad": math.pi / 2},
        {"order": 3, "rms": 12.0, "phase_rad": -math.pi / 2},
    ]}
    (tmp_path / "src.json").write_text(json.dumps(source))
    (tmp_path / "c.json").write_text(json.dumps({"r_ohm": 3.0, "l_henry": 0.02}))
    out = tmp_path / "out.table"
    rc = main(["solve", "--circuit", str(tmp_path / "c.json"),
               "--source", str(tmp_path / "src.json"), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == QUARTER_PHASE_TABLE
