"""The dense phasor and the power's list of non-zero planes against the
brute-force blade oracle, the term orders the reports rely on, and the
constructors' storage rules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapower.power
from gapower.errors import LayoutError, PowerAnalysisError
from gapower.phasor import BasisLayout, GeometricPhasor
from gapower.power import GeometricPower, apparent, geometric_power, power_report

from conftest import bivector_block, index_terms, slots, vector
from oracles import mv_product_brute, terms_text_brute, wedge_planes_brute

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


SUPPORT_SHAPES = ["random", "zero-current", "disjoint", "dc-only-voltage", "full"]


@st.composite
def support_pairs(draw, shape: str):
    """Two phasors on a layout of up to 21 slots whose non-zero slots
    follow ``shape``: random masks, a zero current, disjoint supports, a
    voltage with only DC, or every slot of both."""
    inter = draw(st.lists(st.sampled_from([0.5, 1.5, 2.5, 4.5, 7.25]),
                          unique=True, max_size=2))
    layout = BasisLayout(n=draw(st.integers(0, 8)),
                         interharmonic_orders=tuple(sorted(inter)))
    dim = layout.dimension
    values = np.array(draw(st.lists(coeff, min_size=2 * dim, max_size=2 * dim)))
    keep = np.array(draw(st.lists(st.booleans(), min_size=2 * dim, max_size=2 * dim)))
    values, keep = values.reshape(2, dim), keep.reshape(2, dim)
    if shape == "zero-current":
        keep[1] = False
    elif shape == "disjoint":
        keep[1] &= ~keep[0]
    elif shape == "dc-only-voltage":
        keep[0] = False
        keep[0, 0] = True
    elif shape == "full":
        keep[:] = True
    u, i = np.where(keep, values, 0.0)
    return GeometricPhasor(u, layout, 50.0), GeometricPhasor(i, layout, 50.0)


@pytest.mark.parametrize("shape", SUPPORT_SHAPES)
@given(data=st.data())
def test_planes_over_the_support_match_the_oracle(shape, data):
    u, i = data.draw(support_pairs(shape))
    report = power_report(u, i)
    m = report.m
    want = mv_product_brute(index_terms(u), index_terms(i))
    planes = {idx: c for idx, c in want.items() if idx}
    assert m.scalar == report.p_w == want.get((), 0.0)
    rows = [tuple(r) for r in m.blade_indices.tolist()]
    assert dict(zip(rows, m.va.tolist())) == planes
    assert rows == sorted(set(rows))
    # the cross-frequency terms are the planes off every (2m - 1, 2m)
    cross = report.cross
    rows = [tuple(r) for r in m.blade_indices[cross].tolist()]
    assert cross.shape == m.va.shape and rows == sorted(set(rows))
    assert dict(zip(rows, m.va[cross].tolist())) == {
        (a, b): c for (a, b), c in planes.items() if not (a % 2 and b == a + 1)
    }
    assert str(m) == terms_text_brute(want)
    norms = math.hypot(*u.coeffs.tolist()) * math.hypot(*i.coeffs.tolist())
    assert apparent(m) == pytest.approx(norms, rel=1e-12, abs=0.0)


@st.composite
def wedge_pairs(draw):
    """Two phasors on a layout of up to 41 slots with sparse supports of
    any magnitudes, where the current is the voltage times a power of two
    on a set of slots, so that every plane among them cancels exactly."""
    layout = BasisLayout(n=draw(st.integers(0, 20)))
    dim = layout.dimension
    u, i = (
        np.array(draw(st.lists(st.floats(-1e150, 1e150), min_size=dim, max_size=dim)))
        for _ in range(2)
    )
    for x in (u, i):
        zeros = draw(st.lists(st.integers(0, dim - 1), max_size=dim))
        x[zeros] = 0.0
    parallel = draw(st.lists(st.integers(0, dim - 1), max_size=dim))
    i[parallel] = draw(st.sampled_from([1.0, -1.0, 2.0, -0.5])) * u[parallel]
    return GeometricPhasor(u, layout, 50.0), GeometricPhasor(i, layout, 50.0)


@given(wedge_pairs(), st.one_of(st.just(gapower.power._BLOCK), st.integers(1, 64)))
def test_wedge_planes_match_the_oracle_bit_for_bit(pair, block):
    u, i = pair
    planes, va = wedge_planes_brute(u.coeffs.tolist(), i.coeffs.tolist())
    with pytest.MonkeyPatch.context() as patch:
        # a small block puts row-block edges among the planes
        patch.setattr(gapower.power, "_BLOCK", block)
        m = geometric_power(u, i)
    assert [tuple(p) for p in m.blade_indices.tolist()] == planes
    assert m.va.tobytes() == np.array(va, dtype=np.float64).tobytes()


@given(phasor_pairs())
def test_dense_power_matches_brute_product(pair):
    u, i = pair
    m = geometric_power(u, i)
    want = mv_product_brute(index_terms(u), index_terms(i))
    assert all(len(idx) in (0, 2) for idx in want)
    assert m.scalar == pytest.approx(want.get((), 0.0), abs=1e-9, rel=1e-12)
    dim = u.layout.dimension
    block = bivector_block(m)
    assert block.shape == (dim, dim)
    assert not np.tril(block).any()
    for a in range(dim):
        for b in range(a + 1, dim):
            assert block[a, b] == pytest.approx(
                want.get((a, b), 0.0), abs=1e-9, rel=1e-12
            ), (a, b)


@given(phasor_pairs())
def test_cross_terms_are_row_major_and_exclude_order_planes(pair):
    u, i = pair
    report = power_report(u, i)
    m, cross = report.m, report.cross
    layout = u.layout
    planes = {slots(layout, o) for o in layout.orders().tolist()}
    blade_indices, va = m.blade_indices[cross], m.va[cross]
    n = len(va)
    assert cross.dtype == bool and cross.shape == m.va.shape
    assert blade_indices.shape == (n, 2)
    assert blade_indices.dtype.kind == "i"
    assert va.shape == (n,) and va.dtype == np.float64
    idx = [tuple(t) for t in blade_indices.tolist()]
    assert idx == sorted(idx) and len(set(idx)) == len(idx)
    block = bivector_block(m)
    want = {
        (a, b)
        for a, b in zip(*np.nonzero(block))
        if (a, b) not in planes
    }
    assert set(idx) == want
    for (a, b), c in zip(idx, va.tolist()):
        assert c == block[a, b]


def test_norm_identity_at_dim_201():
    rng = np.random.default_rng(7)
    layout = BasisLayout(n=100)
    assert layout.dimension == 201
    u = GeometricPhasor(rng.normal(0.0, 100.0, 201), layout, 50.0)
    i = GeometricPhasor(rng.normal(0.0, 2.0, 201), layout, 50.0)
    m = geometric_power(u, i)
    assert np.count_nonzero(bivector_block(m)) == 201 * 200 // 2
    assert apparent(m) == pytest.approx(u.norm() * i.norm(), rel=1e-12)


def test_arrays_are_read_only(two_harmonic_phasor):
    u = two_harmonic_phasor
    with pytest.raises(ValueError):
        u.coeffs[1] = 1.0
    with pytest.raises(ValueError):
        u.pairs[0, 0] = 1.0
    m = geometric_power(u, vector(u.layout, {1: 1.0}, u.fundamental_hz))
    with pytest.raises(ValueError):
        m.va[0] = 1.0
    with pytest.raises(ValueError):
        m.blade_indices[0, 1] = 3


def test_dense_constructors_store_exact_copies():
    """No value is cut, however small, and the caller's arrays stay
    theirs to change."""
    layout = BasisLayout(n=1)
    coeffs = np.array([5e-13, -3.0, 1e-300])
    p = GeometricPhasor(coeffs, layout, 50.0)
    assert p.coeffs.tolist() == [5e-13, -3.0, 1e-300]
    coeffs[1] = 7.0
    assert p.coeffs[1] == -3.0
    planes, va = np.array([[0, 1], [1, 2]]), np.array([1e-13, 2.0])
    m = GeometricPower(-1e-13, planes, va, layout)
    planes[1], va[1] = (0, 2), 0.0
    block = bivector_block(m)
    assert m.scalar == -1e-13 and block[0, 1] == 1e-13 and block[1, 2] == 2.0


def frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def test_dense_constructors_check_shapes():
    """Each bad input raises the same error as lists or writable arrays,
    which are copied, and as read-only arrays, which are taken as they
    are."""
    layout = BasisLayout(n=1)
    raised = []
    for coeffs in (np.zeros(5), frozen(np.zeros(5), np.float64)):
        with pytest.raises(LayoutError) as exc:
            GeometricPhasor(coeffs, layout, 50.0)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    for planes, va, error in [
        ([[3, 4]], [1.0], LayoutError),
        ([[-1, 2]], [1.0], LayoutError),
        ([[0, 1]], [1.0, 2.0], LayoutError),
        ([[2, 1]], [1.0], PowerAnalysisError),
        ([[1, 2], [0, 2]], [1.0, 1.0], PowerAnalysisError),
        ([[0, 2], [0, 1]], [1.0, 1.0], PowerAnalysisError),
        ([[0, 1], [0, 1]], [1.0, 1.0], PowerAnalysisError),
    ]:
        raised = []
        for args in ((planes, va), (frozen(planes, np.intp), frozen(va, np.float64))):
            with pytest.raises(error) as exc:
                GeometricPower(0.0, *args, layout)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]


def test_dense_constructors_take_read_only_arrays_uncopied():
    layout = BasisLayout(n=1)
    coeffs = frozen([5e-13, -3.0, 1e-300], np.float64)
    assert GeometricPhasor(coeffs, layout, 50.0).coeffs is coeffs
    planes, va = frozen([[0, 1], [1, 2]], np.intp), frozen([1e-13, 2.0], np.float64)
    m = GeometricPower(0.0, planes, va, layout)
    assert m.blade_indices is planes and m.va is va


def test_power_report_builds_one_power_on_the_arrays_it_formed(monkeypatch):
    built = []

    def spy(scalar, blade_indices, va, layout):
        built.append((blade_indices, va))
        return GeometricPower(scalar, blade_indices, va, layout)

    monkeypatch.setattr(gapower.power, "GeometricPower", spy)
    rng = np.random.default_rng(3)
    layout = BasisLayout(n=4)
    u = GeometricPhasor(rng.normal(size=layout.dimension), layout, 50.0)
    i = GeometricPhasor(rng.normal(size=layout.dimension), layout, 50.0)
    m = power_report(u, i).m
    [(planes, va)] = built
    assert len(m.va) == layout.dimension * (layout.dimension - 1) // 2
    assert np.shares_memory(m.blade_indices, planes)
    assert np.shares_memory(m.va, va)
