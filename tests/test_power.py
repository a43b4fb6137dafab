"""Geometric power fixtures, the norm identity and the classical P/Q
oracle."""

from __future__ import annotations

import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.algebra import Multivector, basis, blade
from gapower.errors import LayoutError, PowerAnalysisError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    HarmonicComponent,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)
from gapower.power import (
    POWER_REPORT_SCHEMA,
    GeometricPower,
    apparent,
    cross_frequency_terms,
    geometric_power,
    harmonic_pq,
    power_factor,
    power_report,
)
from gapower.circuit import SeriesRLC, solve_current

from oracles import pq_complex


def phasor_of(terms: dict, dim: int, f0: float = 50.0) -> GeometricPhasor:
    layout = BasisLayout(n=(dim - 1) // 2)
    return GeometricPhasor.from_mv(Multivector(dim, terms), layout, f0)


# -- fixtures ------------------------------------------------------------

def test_geometric_power_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    m = geometric_power(two_harmonic_phasor, i)
    assert m.mv == Multivector(
        7,
        {
            0: 10000.0,
            blade(1, 2): -5000.0,
            blade(5, 6): 5000.0,
            blade(1, 6): -5000.0,
            blade(2, 5): -5000.0,
        },
    )
    assert m.active == pytest.approx(10000.0)
    assert np.any(m.bivector) and not np.any(np.tril(m.bivector))


def test_geometric_power_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    m = geometric_power(two_harmonic_phasor, i)
    assert m.mv == Multivector(
        7,
        {
            0: 10000.0,
            blade(1, 2): -3000.0,
            blade(5, 6): 3000.0,
            blade(1, 6): -3000.0,
            blade(2, 5): -3000.0,
            blade(2, 6): 8000.0,
        },
    )


def test_geometric_power_unity_case():
    s = basis(3)
    layout = BasisLayout(n=1)
    u = GeometricPhasor.from_mv(s[1], layout, 50.0)
    m = geometric_power(u, u)
    assert m.mv == 1.0
    assert power_factor(m) == pytest.approx(1.0)


def test_geometric_power_layout_mismatch():
    u = phasor_of({blade(1): 1.0}, 3)
    i = GeometricPhasor.from_mv(Multivector(5, {blade(1): 1.0}), BasisLayout(n=2), 50.0)
    with pytest.raises(LayoutError):
        geometric_power(u, i)


def test_geometric_power_type_guards_grades():
    layout = BasisLayout(n=1)
    with pytest.raises(PowerAnalysisError):
        GeometricPower.from_mv(Multivector(3, {blade(1): 1.0}), layout)


def test_apparent_fixture(two_harmonic_phasor, rlc_equal_conductance,
                          rlc_unequal_conductance):
    i1 = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    i2 = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    expected = 10000.0 * math.sqrt(2.0)
    assert apparent(geometric_power(two_harmonic_phasor, i1)) == pytest.approx(
        expected, rel=1e-12
    )
    # changing the capacitor redistributes the bivectors, not the norm
    assert apparent(geometric_power(two_harmonic_phasor, i2)) == pytest.approx(
        expected, rel=1e-12
    )


def test_apparent_zero_current(two_harmonic_phasor):
    zero = GeometricPhasor.from_mv(
        Multivector(7), two_harmonic_phasor.layout, two_harmonic_phasor.fundamental_hz
    )
    assert apparent(geometric_power(two_harmonic_phasor, zero)) == 0.0
    with pytest.raises(PowerAnalysisError):
        power_factor(geometric_power(two_harmonic_phasor, zero))


def test_power_factor_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    pf = power_factor(geometric_power(two_harmonic_phasor, i))
    assert pf == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_power_factor_quadrature_is_zero():
    u = phasor_of({blade(2): 1.0}, 3)
    i = phasor_of({blade(1): 1.0}, 3)
    assert power_factor(geometric_power(u, i)) == pytest.approx(0.0)


# -- per-harmonic P/Q ----------------------------------------------------------

def test_harmonic_pq_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    pq = harmonic_pq(two_harmonic_phasor, i)
    assert [(x.order, x.p, x.q) for x in pq] == [
        (1.0, pytest.approx(5000.0), pytest.approx(-5000.0)),
        (3.0, pytest.approx(5000.0), pytest.approx(5000.0)),
    ]


def test_harmonic_pq_parallel_current_has_zero_q():
    u = phasor_of({blade(1): 3.0, blade(2): 4.0}, 3)
    pq = harmonic_pq(u, u)
    assert pq[0].q == 0.0
    assert pq[0].p == pytest.approx(25.0)


def test_harmonic_pq_covers_current_only_orders():
    u = phasor_of({blade(2): 10.0}, 5)
    i = phasor_of({blade(2): 1.0, blade(4): 2.0}, 5)
    pq = {x.order: x for x in harmonic_pq(u, i)}
    assert set(pq) == {1.0, 2.0}
    assert pq[2.0].p == 0.0 and pq[2.0].q == 0.0


def test_harmonic_pq_bench_matches_complex_oracle(bench_phasors):
    u, i = bench_phasors
    pq = {x.order: x for x in harmonic_pq(u, i)}
    u_sig = from_phasor(u)
    i_sig = from_phasor(i)
    for cu, ci in zip(u_sig.harmonics, i_sig.harmonics):
        p_ref, q_ref = pq_complex(cu.rms, cu.phase_rad, ci.rms, ci.phase_rad)
        assert pq[cu.order].p == pytest.approx(p_ref, abs=1e-9)
        assert pq[cu.order].q == pytest.approx(q_ref, abs=1e-9)


def test_cross_frequency_terms_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_unequal_conductance)
    m = geometric_power(two_harmonic_phasor, i)
    assert cross_frequency_terms(m) == (
        ((1, 6), pytest.approx(-3000.0)),
        ((2, 5), pytest.approx(-3000.0)),
        ((2, 6), pytest.approx(8000.0)),
    )


# -- report ---------------------------------------------------------------------

def test_power_report_shape_and_schema(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(two_harmonic_phasor, rlc_equal_conductance)
    report = power_report(two_harmonic_phasor, i)
    doc = report.to_dict()
    jsonschema.validate(doc, POWER_REPORT_SCHEMA)
    assert doc["p_w"] == pytest.approx(10000.0)
    assert doc["apparent_va"] == pytest.approx(10000.0 * math.sqrt(2))
    assert [h["order"] for h in doc["per_harmonic"]] == [1.0, 3.0]
    assert {tuple(t["blade_indices"]) for t in doc["cross_terms"]} == {
        (1, 6),
        (2, 5),
    }


def test_power_report_zero_pair_has_null_pf():
    u = phasor_of({blade(1): 1.0}, 3)
    zero = phasor_of({}, 3)
    doc = power_report(zero, zero).to_dict()
    assert doc["pf"] is None
    jsonschema.validate(doc, POWER_REPORT_SCHEMA)
    assert u  # silence unused warning


# -- random-instance properties ----------------------------------------------------

coeff = st.floats(-50.0, 50.0)


@st.composite
def phasor_pairs(draw):
    n = draw(st.integers(1, 5))
    layout = BasisLayout(n=n)
    dim = layout.dimension

    def one():
        masks = draw(
            st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)
        )
        return GeometricPhasor.from_mv(
            Multivector(dim, {1 << i: draw(coeff) for i in masks}), layout, 50.0
        )

    return one(), one()


@given(phasor_pairs())
def test_norm_identity(pair):
    u, i = pair
    assert apparent(geometric_power(u, i)) == pytest.approx(
        u.norm() * i.norm(), abs=1e-9
    )


@given(phasor_pairs())
def test_decomposition_completeness(pair):
    u, i = pair
    m = geometric_power(u, i)
    bivector_sq = float(np.sum(m.bivector**2))
    assert apparent(m) ** 2 == pytest.approx(
        m.active**2 + bivector_sq, abs=1e-9, rel=1e-12
    )


@given(phasor_pairs())
def test_pq_matches_complex_oracle(pair):
    u, i = pair
    pq = {x.order: x for x in harmonic_pq(u, i)}
    for order in set(u.occupied_orders()) | set(i.occupied_orders()):
        u_odd, u_even = u.pair(order)
        i_odd, i_even = i.pair(order)
        p_ref, q_ref = pq_complex(
            math.hypot(u_odd, u_even),
            math.atan2(u_odd, u_even),
            math.hypot(i_odd, i_even),
            math.atan2(i_odd, i_even),
        )
        assert pq[order].p == pytest.approx(p_ref, abs=1e-9)
        assert abs(pq[order].q) == pytest.approx(abs(q_ref), abs=1e-9)


@given(phasor_pairs())
def test_scalar_part_equals_mean_instantaneous_power(pair):
    u, i = pair
    m = geometric_power(u, i)
    f0 = u.fundamental_hz
    samples = 256
    t = np.arange(samples) / (samples * f0)
    p_t = reconstruct(from_phasor(u), t) * reconstruct(from_phasor(i), t)
    assert float(np.mean(p_t)) == pytest.approx(m.active, abs=1e-6)
