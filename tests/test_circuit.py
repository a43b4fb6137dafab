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
    SeriesRLC,
    admittances_for,
    invert,
    solve_current,
)
from gapower.decompose import estimate_admittances
from gapower.errors import CircuitError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
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


def one_order(k: float, omega: float) -> GeometricPhasor:
    """A 1 V source at order ``k`` of the fundamental ``omega`` rad/s."""
    f0 = omega / (2.0 * math.pi)
    s = SpectralSignal(f0, orders=[k], rms=[1.0])
    return to_phasor(s, BasisLayout.for_signals(s))


def table_pairs(ys) -> list[tuple[float, float]]:
    """(G, B) of each order the table holds, in layout order."""
    held = ys.present[1:]
    return list(zip(ys.conductance[1:][held].tolist(),
                    ys.susceptance[held].tolist()))


# -- impedance / admittance ---------------------------------------------------

def test_impedance_fixture_values(two_harmonic_phasor, rlc_equal_conductance):
    # R + X plane at orders 1 and 3 is the inverse of the table's G + B plane
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    r, x = invert(*np.transpose(table_pairs(ys)))
    assert r.tolist() == [1.0, 1.0]
    assert x.tolist() == [-1.0, 1.0]


def test_impedance_pure_resistor():
    ys = admittances_for(SeriesRLC(r=1.0), one_order(5, 2.0))
    assert table_pairs(ys) == [(1.0, 0.0)]  # R = 1 ohm, X = 0 at any order


def test_impedance_rejects_zero_frequency():
    # order * omega underflows to 0 Hz, where the capacitor is open
    u = one_order(0.01, 3e-323)
    assert 0.01 * u.omega == 0.0
    with pytest.raises(CircuitError):
        admittances_for(SeriesRLC(r=1.0, c=1.0), u)


def test_admittance_fixture_values(two_harmonic_phasor, rlc_equal_conductance):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    assert ys.present.tolist() == [False, True, False, True]
    (g1, b1), (g3, b3) = table_pairs(ys)
    assert (g1, b1) == pytest.approx((0.5, 0.5))
    assert (g3, b3) == pytest.approx((0.5, -0.5))
    # the entries the table does not hold are 0
    assert ys.conductance[[0, 2]].tolist() == [0.0, 0.0]
    assert ys.susceptance[1] == 0.0


def test_admittance_scalar_case():
    ys = admittances_for(SeriesRLC(r=2.0), one_order(1, 1.0))
    assert table_pairs(ys) == [(0.5, 0.0)]


def test_admittance_rejects_zero_impedance():
    with pytest.raises(CircuitError, match="zero impedance at order 1.0 is not"):
        admittances_for(SeriesRLC(l=1.0, c=1.0), one_order(1, 1.0))


@pytest.mark.parametrize("net, omega", [
    (SeriesRLC(r=1.0, c=1e-320), 314.0),  # 1/(C w) overflows
    (SeriesRLC(r=1.0, c=5e-324), 0.25),  # C w underflows to 0
    (SeriesRLC(r=1.0, l=1e308), 314.0),  # L w overflows
])
def test_impedance_rejects_reactance_beyond_float_range(net, omega):
    with pytest.raises(CircuitError, match="order 1 exceeds the float range"):
        admittances_for(net, one_order(1, omega))


def test_admittance_rejects_impedance_too_small_to_invert():
    # 1/5e-324 is beyond the float range: a handled error, not a traceback
    with pytest.raises(CircuitError, match="order 1.0 is too small to invert"):
        admittances_for(SeriesRLC(r=5e-324), one_order(1, 1.0))


def test_admittance_errors_name_the_first_failing_order(two_harmonic_phasor):
    u = two_harmonic_phasor  # orders 1 and 3 at w = 1 rad/s
    with pytest.raises(CircuitError, match="order 3 exceeds the float range"):
        admittances_for(SeriesRLC(r=1.0, l=1e308), u)
    # resonant at order 1 (X = 2**1023 - 2**1023 = 0) and 3 L w beyond
    # the float range at order 3: order 1 fails first
    with pytest.raises(CircuitError, match="order 1.0 is not invertible"):
        admittances_for(SeriesRLC(l=2.0**1023, c=2.0**-1023), u)


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
    u = one_order(k, omega)
    z = impedance_complex(r, l, c, k, u.omega)
    want = 1.0 / z
    tol = {"rel": 1e-12, "abs": sys.float_info.min}
    [(g, b)] = table_pairs(admittances_for(SeriesRLC(r=r, l=l, c=c), u))
    assert g == pytest.approx(want.real, **tol)
    assert b == pytest.approx(want.imag, **tol)
    # and the round trip of invert back to the impedance
    back_r, back_x = invert(*invert(z.real, z.imag))
    assert back_r == pytest.approx(z.real, **tol)
    assert back_x == pytest.approx(z.imag, **tol)


# -- solve_current ----------------------------------------------------------------

def test_solve_two_harmonic_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    np.testing.assert_allclose(
        i.coeffs, dense(7, {1: 50.0, 2: 50.0, 5: -50.0, 6: 50.0}), rtol=0.0, atol=1e-9
    )


def test_solve_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(
        two_harmonic_phasor,
        admittances_for(rlc_unequal_conductance, two_harmonic_phasor),
    )
    np.testing.assert_allclose(
        i.coeffs, dense(7, {1: 30.0, 2: 10.0, 5: -30.0, 6: 90.0}), rtol=0.0, atol=1e-9
    )


def test_solve_pure_resistor():
    s = SpectralSignal(OMEGA1_F0_HZ, orders=[1], rms=[10.0])
    u = to_phasor(s, BasisLayout(n=1))
    i = solve_current(u, admittances_for(SeriesRLC(r=2.0), u))
    assert i.coeffs.tolist() == [0.0, 0.0, 5.0]


def test_solve_keeps_a_tiny_susceptance():
    """At R = 2 ohm and X = 1.0e-12 ohm the current has a 2.5e-13 A
    quadrature slot next to its 0.5 A in-phase slot; it is solved, not
    dropped, so every slot matches the complex oracle to 1e-14 of |i|."""
    r, l, k, omega = 2.0, 7.34e-16, 6, 228.0
    s = SpectralSignal(omega / (2.0 * math.pi), orders=[k], rms=[1.0])
    u = to_phasor(s, BasisLayout(n=k))
    i = solve_current(u, admittances_for(SeriesRLC(r=r, l=l), u))
    lo, hi = u.layout.slot_pair(k)
    want = np.zeros_like(i.coeffs)
    want[[lo, hi]] = pair_from_complex(
        branch_current_complex(1.0, 0.0, r, l, None, k, u.omega)
    )
    assert want[lo] < -2e-13
    assert np.max(np.abs(i.coeffs - want)) <= 1e-14 * i.norm()


def test_solve_dc_through_resistor():
    s = SpectralSignal(50.0, dc=10.0, orders=[1], rms=[10.0])
    u = to_phasor(s, BasisLayout(n=1))
    i = solve_current(u, admittances_for(SeriesRLC(r=2.0), u))
    assert i.dc == pytest.approx(5.0)


def test_solve_dc_rejected_with_capacitor():
    s = SpectralSignal(50.0, dc=1.0)
    u = to_phasor(s, BasisLayout(n=0))
    with pytest.raises(CircuitError):
        solve_current(u, admittances_for(SeriesRLC(r=1.0, c=1.0), u))
    with pytest.raises(CircuitError):
        solve_current(u, admittances_for(SeriesRLC(l=1.0), u))


def test_solve_interharmonic_slot():
    s = SpectralSignal(
        OMEGA1_F0_HZ, orders=[1, 1.5], rms=[10.0, 4.0], phase_rad=[0.0, 0.3]
    )
    layout = BasisLayout.for_signals(s)
    u = to_phasor(s, layout)
    i = solve_current(u, admittances_for(SeriesRLC(r=2.0), u))
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
    sig = SpectralSignal(
        f0,
        orders=orders,
        rms=[draw(st.floats(0.1, 100.0)) for _ in orders],
        phase_rad=[draw(st.floats(-math.pi, math.pi)) for _ in orders],
    )
    return to_phasor(sig, BasisLayout.for_signals(sig))


@given(sources(), nets)
def test_solver_matches_complex_oracle(u, net):
    i = solve_current(u, admittances_for(net, u))
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
    i = from_phasor(solve_current(u, admittances_for(net, u)))
    t = np.linspace(0.0, 2.0 * math.pi / u.omega, 64, endpoint=False)
    terms = [net.r * reconstruct(i, t)]
    for order, rms, phase in zip(
        i.orders.tolist(), i.rms.tolist(), i.phase_rad.tolist()
    ):
        kw = order * u.omega
        cos = math.sqrt(2.0) * rms * np.cos(kw * t + phase)
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
    assert ys.present.tolist() == [u.has_dc(), *u.occupied().tolist()]


@given(sources(), nets)
def test_estimated_table_matches_the_circuit(u, net):
    """The table estimated from the solved current holds the circuit's
    entries, and each order's (G, B) is the complex 1/Z within 1e-12 of
    |1/Z|."""
    ys = admittances_for(net, u)
    est = estimate_admittances(u, solve_current(u, ys))
    assert est.present.tolist() == ys.present.tolist()
    held = est.present[1:]
    orders = np.array(u.layout.orders())[held]
    g, b = est.conductance[1:][held], est.susceptance[held]
    for k, gk, bk in zip(orders.tolist(), g.tolist(), b.tolist()):
        want = 1.0 / impedance_complex(net.r, net.l, net.c, k, u.omega)
        assert abs(gk - want.real) <= 1e-12 * abs(want)
        assert abs(bk - want.imag) <= 1e-12 * abs(want)


def test_admittance_table_includes_dc_entry():
    s = SpectralSignal(50.0, dc=10.0, orders=[1], rms=[10.0])
    u = to_phasor(s, BasisLayout(n=1))
    ys = admittances_for(u=u, net=SeriesRLC(r=4.0))
    assert ys.present.tolist() == [True, True]
    assert ys.conductance[0] == 0.25
    assert ys.susceptance.shape == (1,)  # one per order: DC has none
