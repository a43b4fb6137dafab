"""Current splits: worked fixtures, orthogonality laws and minimality."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.algebra import Multivector, blade, inner_vectors
from gapower.circuit import (
    HarmonicAdmittance,
    SeriesRLC,
    admittances_for,
    solve_current,
)
from gapower.decompose import (
    CSV_COLUMNS,
    compensation_susceptances,
    decompose_currents,
    estimate_admittances,
    fryze_split,
    generated_current,
    parallel_quadrature,
    scattered,
)
from gapower.errors import PowerAnalysisError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    HarmonicComponent,
    SpectralSignal,
    to_phasor,
)
from gapower.power import geometric_power


def vec_phasor(terms: dict, n: int, f0: float = 50.0) -> GeometricPhasor:
    layout = BasisLayout(n=n)
    return GeometricPhasor.from_mv(Multivector(layout.dimension, terms), layout, f0)


# -- fryze_split --------------------------------------------------------------

def test_fryze_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    i_a, i_n = fryze_split(two_harmonic_phasor, i)
    assert i_a.mv == Multivector(7, {blade(2): 50.0, blade(6): 50.0})
    assert i_n.mv == Multivector(7, {blade(1): 50.0, blade(5): -50.0})
    assert inner_vectors(i_a.mv, i_n.mv) == pytest.approx(0.0, abs=1e-9)


def test_fryze_bench_norms(bench_phasors):
    u, i = bench_phasors
    i_a, i_n = fryze_split(u, i)
    assert i_a.norm() == pytest.approx(1.535, rel=0.02)
    assert i_n.norm() == pytest.approx(2.108, rel=0.02)


def test_fryze_resistive_has_no_residual(two_harmonic_phasor):
    i = solve_current(two_harmonic_phasor, SeriesRLC(r=5.0))
    _, i_n = fryze_split(two_harmonic_phasor, i)
    assert i_n.mv.is_zero()


def test_fryze_zero_voltage_rejected(two_harmonic_phasor):
    zero = GeometricPhasor.from_mv(
        Multivector(7), two_harmonic_phasor.layout, two_harmonic_phasor.fundamental_hz
    )
    with pytest.raises(PowerAnalysisError):
        fryze_split(zero, two_harmonic_phasor)


# -- parallel_quadrature ----------------------------------------------------------

def test_parallel_quadrature_fixture(two_harmonic_phasor, rlc_equal_conductance):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i_p, i_q = parallel_quadrature(two_harmonic_phasor, ys)
    assert i_p.mv == Multivector(7, {blade(2): 50.0, blade(6): 50.0})
    assert i_q.mv == Multivector(7, {blade(1): 50.0, blade(5): -50.0})
    assert inner_vectors(i_p.mv, i_q.mv) == pytest.approx(0.0, abs=1e-9)


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
    assert i_q.mv.is_zero()


def test_parallel_quadrature_missing_admittance(two_harmonic_phasor):
    ys = admittances_for(SeriesRLC(r=2.0), two_harmonic_phasor)
    with pytest.raises(PowerAnalysisError):
        parallel_quadrature(two_harmonic_phasor, ys[:1])


def test_parallel_quadrature_dc_slot():
    s = SpectralSignal(50.0, dc=10.0, harmonics=(HarmonicComponent(1, 10.0),))
    u = to_phasor(s, BasisLayout(n=1))
    ys = admittances_for(SeriesRLC(r=2.0), u)
    i_p, i_q = parallel_quadrature(u, ys)
    assert i_p.dc == pytest.approx(5.0)
    assert i_q.mv.is_zero()
    with pytest.raises(PowerAnalysisError):
        parallel_quadrature(u, [y for y in ys if y.order != 0.0])


# -- scattered ---------------------------------------------------------------------

def test_scattered_zero_for_equal_conductances(
    two_harmonic_phasor, rlc_equal_conductance
):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    assert scattered(i_p, i_a).mv.is_zero()


def test_scattered_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    i_s = scattered(i_p, i_a)
    assert i_s.mv == Multivector(7, {blade(2): -40.0, blade(6): 40.0})
    assert i_s.norm() == pytest.approx(56.56, abs=0.01)


def test_scattered_single_harmonic_is_zero():
    u = vec_phasor({blade(1): 3.0, blade(2): 4.0}, n=1)
    i = vec_phasor({blade(1): 1.0, blade(2): 2.0}, n=1)
    cc = decompose_currents(u, i)
    assert cc.i_s.mv.is_zero()


# -- generated_current ----------------------------------------------------------------

def test_generated_zero_when_voltage_covers(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    assert generated_current(two_harmonic_phasor, i).mv.is_zero()


def test_generated_picks_voltage_free_orders():
    u = vec_phasor({blade(2): 10.0}, n=5)
    i = vec_phasor({blade(1): 1.0, blade(9): 2.0, blade(10): 3.0}, n=5)
    i_g = generated_current(u, i)
    assert i_g.mv == Multivector(11, {blade(9): 2.0, blade(10): 3.0})


def test_generated_half_occupied_plane_not_generated():
    # voltage with only the sine slot of order 1 still owns the plane
    u = vec_phasor({blade(1): 10.0}, n=1)
    i = vec_phasor({blade(1): 1.0, blade(2): 2.0}, n=1)
    assert generated_current(u, i).mv.is_zero()


def test_generated_dc_slot():
    u = vec_phasor({blade(1): 10.0}, n=1)
    i = vec_phasor({blade(0): 1.5, blade(1): 1.0}, n=1)
    assert generated_current(u, i).mv == Multivector(3, {blade(0): 1.5})


# -- compensation ------------------------------------------------------------------------

def test_compensation_fixture(two_harmonic_phasor, rlc_equal_conductance):
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    assert compensation_susceptances(ys) == [(1.0, -0.5), (3.0, 0.5)]


def test_compensation_resistive_all_zero(two_harmonic_phasor):
    ys = admittances_for(SeriesRLC(r=2.0), two_harmonic_phasor)
    assert compensation_susceptances(ys) == [(1.0, 0.0), (3.0, 0.0)]


def test_compensated_load_draws_no_quadrature_current(
    two_harmonic_phasor, rlc_unequal_conductance
):
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    fixed = [
        HarmonicAdmittance(y.order, y.conductance, y.susceptance + b, y.plane)
        for y, (_, b) in zip(ys, compensation_susceptances(ys))
    ]
    _, i_q = parallel_quadrature(two_harmonic_phasor, fixed)
    assert i_q.mv.is_zero()


# -- estimated admittances ------------------------------------------------------------------

def test_estimate_recovers_circuit_admittances(
    two_harmonic_phasor, rlc_equal_conductance
):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    estimated = {y.order: y for y in estimate_admittances(two_harmonic_phasor, i)}
    for y in admittances_for(rlc_equal_conductance, two_harmonic_phasor):
        assert estimated[y.order].conductance == pytest.approx(y.conductance)
        assert estimated[y.order].susceptance == pytest.approx(y.susceptance)
        assert estimated[y.order].plane == y.plane


def test_estimate_handles_dc():
    u = vec_phasor({blade(0): 4.0, blade(2): 10.0}, n=1)
    i = vec_phasor({blade(0): 2.0, blade(2): 5.0}, n=1)
    ys = {y.order: y for y in estimate_admittances(u, i)}
    assert ys[0.0].conductance == pytest.approx(0.5)
    assert ys[0.0].susceptance == 0.0


# -- decompose_currents -------------------------------------------------------------------

def test_component_table_shape(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    ys = admittances_for(rlc_unequal_conductance, two_harmonic_phasor)
    cc = decompose_currents(two_harmonic_phasor, i, ys)
    rows = cc.table_rows()
    assert len(rows) == 7 + 1
    assert rows[-1][0] == "norm"
    norms = cc.norms()
    assert list(norms) == list(CSV_COLUMNS)
    # the norm row mirrors the norms dict, column by column
    assert rows[-1][1:] == [norms[c] for c in CSV_COLUMNS]


def test_decompose_defaults_to_estimated_admittances(bench_phasors):
    u, i = bench_phasors
    cc = decompose_currents(u, i)
    assert (cc.i_p + cc.i_q + cc.i_G).mv.isclose(i.mv, tol=1e-9)
    assert (cc.i_a + cc.i_N).mv.isclose(i.mv, tol=1e-9)
    assert (cc.i_s + cc.i_q + cc.i_G).mv.isclose(cc.i_N.mv, tol=1e-9)


# -- random-instance laws ---------------------------------------------------------------------

coeff = st.floats(-20.0, 20.0)


@st.composite
def measured_pairs(draw):
    n = draw(st.integers(1, 5))
    layout = BasisLayout(n=n)
    dim = layout.dimension

    def one():
        masks = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        return Multivector(dim, {1 << b: draw(coeff) for b in masks})

    u_mv = one()
    if u_mv.norm() < 1e-6:
        u_mv = Multivector(dim, {1 << 1: 1.0})
    return (
        GeometricPhasor.from_mv(u_mv, layout, 50.0),
        GeometricPhasor.from_mv(one(), layout, 50.0),
    )


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
    assert (cc.i_p + cc.i_q + cc.i_G).mv.isclose(i.mv, tol=1e-9)


@given(measured_pairs())
def test_power_preserved_by_active_current(pair):
    u, i = pair
    i_a, _ = fryze_split(u, i)
    assert geometric_power(u, i_a).active == pytest.approx(
        geometric_power(u, i).active, abs=1e-9, rel=1e-12
    )


@given(measured_pairs())
def test_active_current_is_minimal(pair):
    u, i = pair
    i_a, _ = fryze_split(u, i)
    # perturb by anything orthogonal to u: same active power, larger norm
    proj = inner_vectors(i.mv, u.mv) / (u.norm() ** 2)
    t_orth = i.mv - proj * u.mv
    j = i_a.mv + t_orth
    assert inner_vectors(u.mv, j) == pytest.approx(
        inner_vectors(u.mv, i_a.mv), abs=1e-6
    )
    assert j.norm() >= i_a.norm() - 1e-9


def test_equal_conductance_makes_fryze_and_parallel_agree(
    two_harmonic_phasor, rlc_equal_conductance
):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    ys = admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    i_a, _ = fryze_split(two_harmonic_phasor, i)
    i_p, _ = parallel_quadrature(two_harmonic_phasor, ys)
    assert i_a.mv.isclose(i_p.mv)
