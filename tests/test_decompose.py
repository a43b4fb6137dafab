"""Current splits: worked fixtures, orthogonality laws and minimality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapower.circuit import (
    Admittances,
    SeriesRLC,
    admittances_for,
    compensation_susceptances,
    solve_current,
)
from gapower.decompose import (
    CSV_COLUMNS,
    decompose_currents,
    estimate_admittances,
    fryze_split,
    generated_current,
    parallel_quadrature,
    scattered,
)
from gapower.errors import LayoutError, PowerAnalysisError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    SpectralSignal,
    to_phasor,
)
from gapower.power import geometric_power

from conftest import dense, vector


def vec_phasor(terms: dict, n: int, f0: float = 50.0) -> GeometricPhasor:
    return vector(BasisLayout(n=n), terms, f0)


def is_zero(p: GeometricPhasor) -> bool:
    return not p.coeffs.any()


def assert_coeffs(p: GeometricPhasor, want) -> None:
    np.testing.assert_allclose(p.coeffs, want, rtol=0.0, atol=1e-9)


# -- fryze_split --------------------------------------------------------------

def test_fryze_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    i_a, i_n = fryze_split(two_harmonic_phasor, i)
    assert_coeffs(i_a, dense(7, {2: 50.0, 6: 50.0}))
    assert_coeffs(i_n, dense(7, {1: 50.0, 5: -50.0}))
    assert i_a.dot(i_n) == pytest.approx(0.0, abs=1e-9)


def test_fryze_bench_norms(bench_phasors):
    u, i = bench_phasors
    i_a, i_n = fryze_split(u, i)
    assert i_a.norm() == pytest.approx(1.535, rel=0.02)
    assert i_n.norm() == pytest.approx(2.108, rel=0.02)


def test_fryze_resistive_has_no_residual(two_harmonic_phasor):
    i = solve_current(
        two_harmonic_phasor, admittances_for(SeriesRLC(r=5.0), two_harmonic_phasor)
    )
    _, i_n = fryze_split(two_harmonic_phasor, i)
    assert is_zero(i_n)


def test_fryze_zero_voltage_rejected(two_harmonic_phasor):
    zero = GeometricPhasor(
        np.zeros(7), two_harmonic_phasor.layout, two_harmonic_phasor.fundamental_hz
    )
    with pytest.raises(PowerAnalysisError):
        fryze_split(zero, two_harmonic_phasor)


# -- parallel_quadrature ----------------------------------------------------------

def test_parallel_quadrature_fixture(two_harmonic_phasor, rlc_equal_conductance):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i_p, i_q = parallel_quadrature(two_harmonic_phasor, ys)
    assert_coeffs(i_p, dense(7, {2: 50.0, 6: 50.0}))
    assert_coeffs(i_q, dense(7, {1: 50.0, 5: -50.0}))
    assert i_p.dot(i_q) == pytest.approx(0.0, abs=1e-9)


def test_parallel_quadrature_variant_norms(
    two_harmonic_phasor, rlc_unequal_conductance
):
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    i_p, i_q = parallel_quadrature(two_harmonic_phasor, ys)
    assert i_p.norm() == pytest.approx(90.55, abs=0.01)
    assert i_q.norm() == pytest.approx(42.42, abs=0.01)


def test_parallel_quadrature_zero_susceptance(two_harmonic_phasor):
    ys = admittances_for(SeriesRLC(r=2.0), two_harmonic_phasor)
    _, i_q = parallel_quadrature(two_harmonic_phasor, ys)
    assert is_zero(i_q)


def without(ys: Admittances, entry: int) -> Admittances:
    """The table ``ys`` no longer holding ``entry`` (0 is DC)."""
    present = ys.present.copy()
    present[entry] = False
    return Admittances(ys.layout, ys.conductance, ys.susceptance, present)


def test_parallel_quadrature_missing_admittance(two_harmonic_phasor):
    ys = admittances_for(SeriesRLC(r=2.0), two_harmonic_phasor)
    with pytest.raises(PowerAnalysisError, match="for order 3.0$"):
        parallel_quadrature(two_harmonic_phasor, without(ys, 3))
    # an entry the voltage does not need is not read
    other = vec_phasor({2: 1.0}, n=3, f0=two_harmonic_phasor.fundamental_hz)
    i_p, _ = parallel_quadrature(other, without(ys, 3))
    assert_coeffs(i_p, dense(7, {2: 0.5}))


def test_parallel_quadrature_rejects_a_table_on_another_layout(
    two_harmonic_phasor,
):
    ys = admittances_for(SeriesRLC(r=2.0), vec_phasor({2: 1.0}, n=1))
    with pytest.raises(LayoutError):
        parallel_quadrature(two_harmonic_phasor, ys)
    with pytest.raises(LayoutError, match="conductance shape"):
        Admittances(BasisLayout(n=3), np.zeros(3), np.zeros(3), np.ones(4, bool))


def test_admittance_table_has_one_entry_index_and_no_dc_susceptance():
    layout, g, present = BasisLayout(n=3), np.zeros(4), np.ones(4, bool)
    # a susceptance per order alone, without the DC entry, is refused
    with pytest.raises(LayoutError, match="susceptance shape"):
        Admittances(layout, g, np.zeros(3), present)
    with pytest.raises(LayoutError, match="DC has no plane"):
        Admittances(layout, g, [0.5, 0.0, 0.0, 0.0], present)


def test_parallel_quadrature_dc_slot():
    s = SpectralSignal(50.0, dc=10.0, orders=[1], rms=[10.0])
    u = to_phasor(s, BasisLayout(n=1))
    ys = admittances_for(SeriesRLC(r=2.0), u)
    i_p, i_q = parallel_quadrature(u, ys)
    assert i_p.dc == pytest.approx(5.0)
    assert is_zero(i_q)
    with pytest.raises(PowerAnalysisError, match="for the DC slot"):
        parallel_quadrature(u, without(ys, 0))


# -- scattered ---------------------------------------------------------------------

def test_scattered_zero_for_equal_conductances(
    two_harmonic_phasor, rlc_equal_conductance
):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i = solve_current(two_harmonic_phasor, ys)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    assert is_zero(scattered(i_p, i_a))


def test_scattered_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    i = solve_current(two_harmonic_phasor, ys)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    i_s = scattered(i_p, i_a)
    assert_coeffs(i_s, dense(7, {2: -40.0, 6: 40.0}))
    assert i_s.norm() == pytest.approx(56.56, abs=0.01)


def test_scattered_single_harmonic_is_zero():
    u = vec_phasor({1: 3.0, 2: 4.0}, n=1)
    i = vec_phasor({1: 1.0, 2: 2.0}, n=1)
    cc = decompose_currents(u, i)
    assert is_zero(cc.i_s)


@example(8.770014309871662)  # i_p - i_a rounds to 3.55e-15 A here
@given(st.floats(-5.0, 5.0).map(lambda e: 10.0**e))
def test_scattered_is_exactly_zero_for_a_pure_resistor(r):
    source = SpectralSignal(50.0, orders=[1], rms=[230.0])
    u = to_phasor(source, BasisLayout.for_signals(source))
    ys = admittances_for(SeriesRLC(r=r), u)
    cc = decompose_currents(u, solve_current(u, ys), ys)
    assert is_zero(cc.i_s)


# -- generated_current ----------------------------------------------------------------

def test_generated_zero_when_voltage_covers(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    assert is_zero(generated_current(two_harmonic_phasor, i))


def test_generated_picks_voltage_free_orders():
    u = vec_phasor({2: 10.0}, n=5)
    i = vec_phasor({1: 1.0, 9: 2.0, 10: 3.0}, n=5)
    i_g = generated_current(u, i)
    assert_coeffs(i_g, dense(11, {9: 2.0, 10: 3.0}))


def test_generated_half_occupied_plane_not_generated():
    # voltage with only the sine slot of order 1 still owns the plane
    u = vec_phasor({1: 10.0}, n=1)
    i = vec_phasor({1: 1.0, 2: 2.0}, n=1)
    assert is_zero(generated_current(u, i))


def test_generated_dc_slot():
    u = vec_phasor({1: 10.0}, n=1)
    i = vec_phasor({0: 1.5, 1: 1.0}, n=1)
    assert_coeffs(generated_current(u, i), dense(3, {0: 1.5}))


# -- compensation ------------------------------------------------------------------------

def test_compensation_fixture(two_harmonic_phasor, rlc_equal_conductance):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    orders, siemens = compensation_susceptances(ys)
    assert (orders.tolist(), siemens.tolist()) == ([1.0, 3.0], [-0.5, 0.5])


def test_compensation_resistive_all_zero(two_harmonic_phasor):
    ys = admittances_for(SeriesRLC(r=2.0), two_harmonic_phasor)
    orders, siemens = compensation_susceptances(ys)
    assert (orders.tolist(), siemens.tolist()) == ([1.0, 3.0], [0.0, 0.0])
    # DC is held as order 0 and needs no compensation
    u = vec_phasor({0: 4.0, 2: 10.0}, n=1)
    orders, siemens = compensation_susceptances(admittances_for(SeriesRLC(r=2.0), u))
    assert (orders.tolist(), siemens.tolist()) == ([0.0, 1.0], [0.0, 0.0])


def test_compensated_load_draws_no_quadrature_current(
    two_harmonic_phasor, rlc_unequal_conductance
):
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    orders, siemens = compensation_susceptances(ys)
    b = ys.susceptance.copy()
    b[ys.present] += siemens
    fixed = Admittances(ys.layout, ys.conductance, b, ys.present)
    _, i_q = parallel_quadrature(two_harmonic_phasor, fixed)
    assert is_zero(i_q)


# -- estimated admittances ------------------------------------------------------------------

def test_estimate_recovers_circuit_admittances(
    two_harmonic_phasor, rlc_equal_conductance
):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    estimated = estimate_admittances(
        two_harmonic_phasor, solve_current(two_harmonic_phasor, ys)
    )
    assert estimated.present.tolist() == ys.present.tolist()
    np.testing.assert_allclose(estimated.conductance, ys.conductance, rtol=1e-12)
    np.testing.assert_allclose(estimated.susceptance, ys.susceptance, rtol=1e-12)


def test_estimate_handles_dc():
    u = vec_phasor({0: 4.0, 2: 10.0}, n=1)
    i = vec_phasor({0: 2.0, 2: 5.0}, n=1)
    ys = estimate_admittances(u, i)
    assert ys.present.tolist() == [True, True]
    assert ys.conductance.tolist() == [0.5, 0.5]
    assert ys.susceptance.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "u_terms, i_terms, entry",
    [
        ({0: 1e-300, 2: 1e-290}, {0: 1e10, 2: 1.0}, "conductance at DC"),
        ({1: 1e-300, 5: 1e-300}, {1: 1e-300, 5: 1e10}, "admittance at order 3.0"),
        ({1: 1e-300, 6: 1e-300}, {1: 1e-300, 5: 1e10}, "admittance at order 3.0"),
        ({3: 1e-300, 5: 1e-300}, {3: 1e10, 5: 1e10}, "admittance at order 2.0"),
    ],
)
def test_estimate_refuses_admittances_beyond_float_range(u_terms, i_terms, entry):
    u, i = vec_phasor(u_terms, n=3), vec_phasor(i_terms, n=3)
    with pytest.raises(PowerAnalysisError, match=f"^{entry} exceeds the float range$"):
        estimate_admittances(u, i)


# -- decompose_currents -------------------------------------------------------------------

def test_component_table_shape(two_harmonic_phasor, rlc_unequal_conductance):
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    i = solve_current(two_harmonic_phasor, ys)
    cc = decompose_currents(two_harmonic_phasor, i, ys)
    rows = cc.table_rows()
    assert rows.shape == (7 + 1, len(CSV_COLUMNS))
    assert rows[:-1, CSV_COLUMNS.index("i")].tolist() == i.coeffs.tolist()
    norms = cc.norms()
    assert list(norms) == list(CSV_COLUMNS)
    # the norm row mirrors the norms dict, column by column
    assert rows[-1].tolist() == [norms[c] for c in CSV_COLUMNS]


def test_decompose_defaults_to_estimated_admittances(bench_phasors):
    u, i = bench_phasors
    cc = decompose_currents(u, i)
    assert_coeffs(cc.i_p + cc.i_q + cc.i_G, i.coeffs)
    assert_coeffs(cc.i_a + cc.i_N, i.coeffs)
    assert_coeffs(cc.i_s + cc.i_q + cc.i_G, cc.i_N.coeffs)


# -- random-instance laws ---------------------------------------------------------------------

coeff = st.floats(-20.0, 20.0)


@st.composite
def measured_pairs(draw):
    n = draw(st.integers(1, 5))
    layout = BasisLayout(n=n)
    dim = layout.dimension

    def one():
        slots = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        return vector(layout, {k: draw(coeff) for k in slots})

    u = one()
    if u.norm() < 1e-6:
        u = vector(layout, {1: 1.0})
    return u, one()


@given(measured_pairs())
def test_pythagoras_fryze(pair):
    u, i = pair
    i_a, i_n = fryze_split(u, i)
    assert i.norm() ** 2 == pytest.approx(
        i_a.norm() ** 2 + i_n.norm() ** 2, abs=1e-9, rel=1e-12
    )


@given(measured_pairs())
def test_pythagoras_parallel_quadrature_generated(pair):
    u, i = pair
    cc = decompose_currents(u, i)
    assert i.norm() ** 2 == pytest.approx(
        cc.i_p.norm() ** 2 + cc.i_q.norm() ** 2 + cc.i_G.norm() ** 2,
        abs=1e-9,
        rel=1e-12,
    )
    assert_coeffs(cc.i_p + cc.i_q + cc.i_G, i.coeffs)


@given(measured_pairs())
def test_power_preserved_by_active_current(pair):
    u, i = pair
    i_a, _ = fryze_split(u, i)
    assert geometric_power(u, i_a).scalar == pytest.approx(
        geometric_power(u, i).scalar, abs=1e-9, rel=1e-12
    )


@given(measured_pairs())
def test_active_current_is_minimal(pair):
    u, i = pair
    i_a, _ = fryze_split(u, i)
    # perturb by anything orthogonal to u: same active power, larger norm
    proj = i.dot(u) / (u.norm() ** 2)
    t_orth = i - proj * u
    j = i_a + t_orth
    assert u.dot(j) == pytest.approx(u.dot(i_a), abs=1e-6)
    assert j.norm() >= i_a.norm() - 1e-9


def test_equal_conductance_makes_fryze_and_parallel_agree(
    two_harmonic_phasor, rlc_equal_conductance
):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i = solve_current(two_harmonic_phasor, ys)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    assert_coeffs(i_a, i_p.coeffs)
