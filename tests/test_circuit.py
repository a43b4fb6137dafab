"""Per-harmonic impedance/admittance and the GA Ohm's law, cross-checked
against classical complex phasor analysis."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapower.circuit import (
    HarmonicAdmittance,
    HarmonicImpedance,
    SeriesRLC,
    admittance_at,
    admittances_for,
    impedance_at,
    solve_current,
)
from gapower.errors import CircuitError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    HarmonicComponent,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)

from conftest import OMEGA1_F0_HZ, dense
from oracles import branch_current_complex, impedance_complex, pair_from_complex


def test_series_rlc_validation():
    with pytest.raises(CircuitError):
        SeriesRLC(r=-1.0)
    with pytest.raises(CircuitError):
        SeriesRLC(c=0.0)
    with pytest.raises(CircuitError):
        SeriesRLC()
    assert SeriesRLC(r=1.0).c is None


# -- impedance / admittance ---------------------------------------------------

def test_impedance_fixture_values(rlc_equal_conductance):
    z1 = impedance_at(rlc_equal_conductance, 1, 1.0)
    assert (z1.order, z1.resistance, z1.reactance) == (1.0, 1.0, -1.0)
    z3 = impedance_at(rlc_equal_conductance, 3, 1.0)
    assert (z3.order, z3.resistance, z3.reactance) == (3.0, 1.0, 1.0)


def test_impedance_pure_resistor():
    z = impedance_at(SeriesRLC(r=1.0), 5, 2.0)
    assert (z.resistance, z.reactance) == (1.0, 0.0)


def test_impedance_rejects_zero_frequency():
    with pytest.raises(CircuitError):
        impedance_at(SeriesRLC(r=1.0, c=1.0), 1, 0.0)
    with pytest.raises(CircuitError):
        impedance_at(SeriesRLC(r=1.0), 0, 1.0)


def test_admittance_fixture_values(rlc_equal_conductance):
    y1 = admittance_at(impedance_at(rlc_equal_conductance, 1, 1.0))
    assert (y1.order, y1.conductance, y1.susceptance) == pytest.approx((1.0, 0.5, 0.5))
    y3 = admittance_at(impedance_at(rlc_equal_conductance, 3, 1.0))
    assert (y3.conductance, y3.susceptance) == pytest.approx((0.5, -0.5))


def test_admittance_scalar_case():
    y = admittance_at(impedance_at(SeriesRLC(r=2.0), 1, 1.0))
    assert (y.conductance, y.susceptance) == (0.5, 0.0)


def test_admittance_rejects_zero_impedance():
    with pytest.raises(CircuitError):
        admittance_at(impedance_at(SeriesRLC(l=1.0, c=1.0), 1, 1.0))


@pytest.mark.parametrize("net, omega", [
    (SeriesRLC(r=1.0, c=1e-320), 314.0),  # 1/(C w) overflows
    (SeriesRLC(r=1.0, c=5e-324), 0.25),  # C w underflows to 0
    (SeriesRLC(r=1.0, l=1e308), 314.0),  # L w overflows
])
def test_impedance_rejects_reactance_beyond_float_range(net, omega):
    with pytest.raises(CircuitError, match="exceeds the float range"):
        impedance_at(net, 1, omega)


def test_admittance_rejects_impedance_too_small_to_invert():
    # 1/5e-324 is beyond the float range: a handled error, not a traceback
    with pytest.raises(CircuitError, match="too small to invert"):
        admittance_at(impedance_at(SeriesRLC(r=5e-324), 1, 1.0))


# X = 1.0e-12 ohm next to R = 2 ohm: B = -2.5e-13 S must survive as it is
@example(r=2.0, l=7.34e-16, c=None, k=6, omega=228.0)
@given(
    st.floats(0.1, 10.0),
    st.floats(0.0, 2.0),
    st.one_of(st.none(), st.floats(0.05, 5.0)),
    st.integers(1, 9),
    st.floats(0.5, 400.0),
)
def test_admittance_is_spinor_inverse_of_impedance(r, l, c, k, omega):
    """G + B plane inverts R + X plane, so (G, B) is the complex 1/Z, each
    part within a relative tolerance of itself.  Below the smallest normal
    float a value has no relative precision left (X = 5e-324 gives
    B = -1.25e-324, which rounds to 0), hence the absolute floor there."""
    z = impedance_at(SeriesRLC(r=r, l=l, c=c), k, omega)
    y = admittance_at(z)
    want = 1.0 / impedance_complex(r, l, c, k, omega)
    tol = {"rel": 1e-12, "abs": sys.float_info.min}
    assert y.conductance == pytest.approx(want.real, **tol)
    assert y.susceptance == pytest.approx(want.imag, **tol)
    # and the round trip back to the impedance
    back = admittance_at(HarmonicImpedance(z.order, y.conductance, y.susceptance))
    assert back.conductance == pytest.approx(z.resistance, **tol)
    assert back.susceptance == pytest.approx(z.reactance, **tol)


# -- solve_current ----------------------------------------------------------------

def test_solve_two_harmonic_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    np.testing.assert_allclose(
        i.coeffs, dense(7, {1: 50.0, 2: 50.0, 5: -50.0, 6: 50.0}), rtol=0.0, atol=1e-9
    )


def test_solve_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    np.testing.assert_allclose(
        i.coeffs, dense(7, {1: 30.0, 2: 10.0, 5: -30.0, 6: 90.0}), rtol=0.0, atol=1e-9
    )


def test_solve_pure_resistor():
    s = SpectralSignal(OMEGA1_F0_HZ, harmonics=(HarmonicComponent(1, 10.0),))
    u = to_phasor(s, BasisLayout(n=1))
    i = solve_current(u, SeriesRLC(r=2.0))
    assert i.coeffs.tolist() == [0.0, 0.0, 5.0]


def test_solve_keeps_a_tiny_susceptance():
    """At R = 2 ohm and X = 1.0e-12 ohm the current has a 2.5e-13 A
    quadrature slot next to its 0.5 A in-phase slot; it is solved, not
    dropped, so every slot matches the complex oracle to 1e-14 of |i|."""
    r, l, k, omega = 2.0, 7.34e-16, 6, 228.0
    s = SpectralSignal(omega / (2.0 * math.pi), harmonics=(HarmonicComponent(k, 1.0),))
    u = to_phasor(s, BasisLayout(n=k))
    i = solve_current(u, SeriesRLC(r=r, l=l))
    lo, hi = u.layout.slot_pair(k)
    want = np.zeros_like(i.coeffs)
    want[[lo, hi]] = pair_from_complex(
        branch_current_complex(1.0, 0.0, r, l, None, k, u.omega)
    )
    assert want[lo] < -2e-13
    assert np.max(np.abs(i.coeffs - want)) <= 1e-14 * i.norm()


def test_solve_dc_through_resistor():
    s = SpectralSignal(50.0, dc=10.0, harmonics=(HarmonicComponent(1, 10.0),))
    u = to_phasor(s, BasisLayout(n=1))
    i = solve_current(u, SeriesRLC(r=2.0))
    assert i.dc == pytest.approx(5.0)


def test_solve_dc_rejected_with_capacitor():
    s = SpectralSignal(50.0, dc=1.0)
    u = to_phasor(s, BasisLayout(n=0))
    with pytest.raises(CircuitError):
        solve_current(u, SeriesRLC(r=1.0, c=1.0))
    with pytest.raises(CircuitError):
        solve_current(u, SeriesRLC(l=1.0))


def test_solve_interharmonic_slot():
    s = SpectralSignal(
        OMEGA1_F0_HZ,
        harmonics=(HarmonicComponent(1, 10.0),),
        interharmonics=(HarmonicComponent(1.5, 4.0, 0.3),),
    )
    layout = BasisLayout.for_signals(s)
    u = to_phasor(s, layout)
    i = solve_current(u, SeriesRLC(r=2.0))
    odd, even = i.pair(1.5)
    assert odd == pytest.approx(2.0 * math.sin(0.3))
    assert even == pytest.approx(2.0 * math.cos(0.3))


# -- random-instance properties ----------------------------------------------------------

nets = st.builds(
    SeriesRLC,
    r=st.floats(0.5, 10.0),
    l=st.floats(0.0, 1.0),
    c=st.one_of(st.none(), st.floats(0.05, 5.0)),
)


@st.composite
def sources(draw) -> GeometricPhasor:
    f0 = draw(st.floats(1.0, 60.0))
    orders = sorted(draw(st.lists(st.integers(1, 5), unique=True, min_size=1)))
    harmonics = tuple(
        HarmonicComponent(
            k, draw(st.floats(0.1, 100.0)), draw(st.floats(-math.pi, math.pi))
        )
        for k in orders
    )
    sig = SpectralSignal(f0, harmonics=harmonics)
    return to_phasor(sig, BasisLayout.for_signals(sig))


@given(sources(), nets)
def test_solver_matches_complex_oracle(u, net):
    i = solve_current(u, net)
    for order in u.occupied_orders():
        u_odd, u_even = u.pair(order)
        z = branch_current_complex(
            math.hypot(u_odd, u_even),
            math.atan2(u_odd, u_even),
            net.r,
            net.l,
            net.c,
            order,
            u.omega,
        )
        expected = pair_from_complex(z)
        got = i.pair(order)
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)


@given(sources(), nets)
def test_kvl_residual(u, net):
    """KVL in the time domain, R i + L di/dt + (1/C) int i dt = u, with each
    current sinusoid differentiated and integrated analytically."""
    i = from_phasor(solve_current(u, net))
    t = np.linspace(0.0, 2.0 * math.pi / u.omega, 64, endpoint=False)
    terms = [net.r * reconstruct(i, t)]
    for c in i.components():
        kw = c.order * u.omega
        cos = math.sqrt(2.0) * c.rms * np.cos(kw * t + c.phase_rad)
        terms.append(net.l * kw * cos)
        if net.c is not None:
            terms.append(-cos / (kw * net.c))
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in terms))
    np.testing.assert_allclose(
        sum(terms), reconstruct(from_phasor(u), t), rtol=0.0, atol=1e-9 * scale
    )


@given(sources(), nets)
def test_admittances_cover_source(u, net):
    ys = admittances_for(net, u)
    orders = {y.order for y in ys}
    assert set(u.occupied_orders()) <= orders


def test_admittance_table_includes_dc_entry():
    s = SpectralSignal(50.0, dc=10.0, harmonics=(HarmonicComponent(1, 10.0),))
    u = to_phasor(s, BasisLayout(n=1))
    ys = admittances_for(u=u, net=SeriesRLC(r=4.0))
    dc_entries = [y for y in ys if y.order == 0.0]
    assert dc_entries == [HarmonicAdmittance(0.0, 0.25, 0.0)]
