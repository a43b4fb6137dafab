"""The dense phasor and power representation against the brute-force
blade oracle, the term orders the reports rely on, and the conversions
to and from the sparse kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.algebra import Multivector
from gapower.errors import LayoutError, PowerAnalysisError
from gapower.phasor import BasisLayout, GeometricPhasor
from gapower.power import (
    GeometricPower,
    apparent,
    cross_frequency_terms,
    geometric_power,
)

from oracles import mv_product_brute

coeff = st.floats(-50.0, 50.0, allow_nan=False).filter(lambda c: abs(c) > 1e-6)


@st.composite
def layouts(draw) -> BasisLayout:
    n = draw(st.integers(0, 5))
    inter = draw(st.lists(st.sampled_from([0.5, 1.5, 2.5, 4.5, 7.25]),
                          unique=True, max_size=2))
    return BasisLayout(n=n, interharmonic_orders=tuple(sorted(inter)))


@st.composite
def phasors(draw, layout: BasisLayout) -> GeometricPhasor:
    """Random phasor with zero slots, half-empty planes and maybe no DC."""
    dim = layout.dimension
    values = [draw(coeff) for _ in range(dim)]
    keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    coeffs = np.array([v if k else 0.0 for v, k in zip(values, keep)])
    return GeometricPhasor(coeffs, layout, 50.0)


@st.composite
def phasor_pairs(draw):
    layout = draw(layouts())
    return draw(phasors(layout)), draw(phasors(layout))


def index_terms(p: GeometricPhasor) -> dict:
    return {(k,): c for k, c in enumerate(p.coeffs.tolist()) if c}


@given(phasor_pairs())
def test_dense_power_matches_brute_product(pair):
    u, i = pair
    m = geometric_power(u, i)
    want = mv_product_brute(index_terms(u), index_terms(i))
    assert all(len(idx) in (0, 2) for idx in want)
    assert m.scalar == pytest.approx(want.get((), 0.0), abs=1e-9, rel=1e-12)
    dim = u.layout.dimension
    assert m.bivector.shape == (dim, dim)
    assert not np.tril(m.bivector).any()
    for a in range(dim):
        for b in range(a + 1, dim):
            assert m.bivector[a, b] == pytest.approx(
                want.get((a, b), 0.0), abs=1e-9, rel=1e-12
            ), (a, b)


@given(phasor_pairs())
def test_cross_terms_are_row_major_and_exclude_order_planes(pair):
    u, i = pair
    m = geometric_power(u, i)
    layout = u.layout
    planes = {layout.slot_pair(o) for o in layout.orders()}
    terms = cross_frequency_terms(m)
    idx = [t[0] for t in terms]
    assert idx == sorted(idx) and len(set(idx)) == len(idx)
    want = {
        (a, b)
        for a, b in zip(*np.nonzero(m.bivector))
        if (a, b) not in planes
    }
    assert set(idx) == want
    for (a, b), va in terms:
        assert type(a) is int and type(va) is float
        assert va == m.bivector[a, b]


def test_norm_identity_at_dim_201():
    rng = np.random.default_rng(7)
    layout = BasisLayout(n=100)
    assert layout.dimension == 201
    u = GeometricPhasor(rng.normal(0.0, 100.0, 201), layout, 50.0)
    i = GeometricPhasor(rng.normal(0.0, 2.0, 201), layout, 50.0)
    m = geometric_power(u, i)
    assert np.count_nonzero(m.bivector) == 201 * 200 // 2
    assert apparent(m) == pytest.approx(u.norm() * i.norm(), rel=1e-12)


@given(phasor_pairs())
def test_sparse_views_round_trip(pair):
    u, i = pair
    layout = u.layout
    back = GeometricPhasor.from_mv(u.mv, layout, u.fundamental_hz)
    assert np.array_equal(back.coeffs, u.coeffs)
    m = geometric_power(u, i)
    m_back = GeometricPower.from_mv(m.mv, layout)
    assert m_back.scalar == m.scalar
    assert np.array_equal(m_back.bivector, m.bivector)


def test_arrays_are_read_only(two_harmonic_phasor):
    u = two_harmonic_phasor
    with pytest.raises(ValueError):
        u.coeffs[1] = 1.0
    with pytest.raises(ValueError):
        u.pairs[0, 0] = 1.0
    with pytest.raises(ValueError):
        geometric_power(u, u).bivector[0, 1] = 1.0


def test_construction_cut_applies_to_dense_arrays():
    layout = BasisLayout(n=1)
    p = GeometricPhasor(np.array([5e-13, -3.0, -0.0]), layout, 50.0)
    assert p.coeffs.tolist() == [0.0, -3.0, 0.0]
    assert math.copysign(1.0, p.coeffs[2]) == 1.0
    block = np.zeros((3, 3))
    block[0, 1], block[1, 2] = 1e-13, 2.0
    m = GeometricPower(-1e-13, block, layout)
    assert m.scalar == 0.0 and m.bivector[0, 1] == 0.0 and m.bivector[1, 2] == 2.0


def test_dense_constructors_check_shapes():
    layout = BasisLayout(n=1)
    with pytest.raises(LayoutError):
        GeometricPhasor(np.zeros(5), layout, 50.0)
    with pytest.raises(LayoutError):
        GeometricPower(0.0, np.zeros((5, 5)), layout)
    lower = np.zeros((3, 3))
    lower[2, 1] = 1.0
    with pytest.raises(PowerAnalysisError):
        GeometricPower(0.0, lower, layout)
    with pytest.raises(LayoutError):
        GeometricPower.from_mv(Multivector(5, {0: 1.0}), layout)
