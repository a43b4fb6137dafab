"""Spectral-signal validation, slot layout and the signal <-> phasor maps."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.errors import LayoutError, PowerAnalysisError, SchemaError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    HarmonicComponent,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)

from conftest import OMEGA1_F0_HZ, dense, vector


def phase_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# -- component and signal validation --------------------------------------

def test_component_normalizes_phase():
    c = HarmonicComponent(1, 1.0, 3.0 * math.pi)
    assert c.phase_rad == pytest.approx(math.pi)
    assert HarmonicComponent(1, 1.0, -math.pi).phase_rad == pytest.approx(math.pi)


def test_component_rejects_bad_values():
    with pytest.raises(PowerAnalysisError):
        HarmonicComponent(0, 1.0)
    with pytest.raises(PowerAnalysisError):
        HarmonicComponent(1, -1.0)
    with pytest.raises(PowerAnalysisError):
        HarmonicComponent(1, math.nan)


def test_signal_drops_zero_rms_components():
    s = SpectralSignal(
        50.0,
        harmonics=(HarmonicComponent(1, 10.0), HarmonicComponent(3, 0.0)),
    )
    assert [c.order for c in s.harmonics] == [1.0]


def test_signal_rejects_misplaced_orders():
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(50.0, harmonics=(HarmonicComponent(2.5, 1.0),))
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(50.0, interharmonics=(HarmonicComponent(2, 1.0),))
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(
            50.0,
            harmonics=(HarmonicComponent(3, 1.0), HarmonicComponent(1, 1.0)),
        )
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(0.0, harmonics=(HarmonicComponent(1, 1.0),))


def test_signal_dict_round_trip():
    doc = json.loads(
        """{
          "fundamental_hz": 50.0,
          "dc": 2.0000000000000004,
          "harmonics": [
            {"order": 1, "rms": 10.123456789012345, "phase_rad": 0.1},
            {"order": 5, "rms": 1.0, "phase_rad": -2.0}
          ],
          "interharmonics": [{"order": 2.5, "rms": 0.5, "phase_rad": 1.0}]
        }"""
    )
    s = SpectralSignal(
        50.0,
        dc=2.0000000000000004,
        harmonics=(
            HarmonicComponent(1, 10.123456789012345, 0.1),
            HarmonicComponent(5, 1.0, -2.0),
        ),
        interharmonics=(HarmonicComponent(2.5, 0.5, 1.0),),
    )
    assert SpectralSignal.from_dict(doc) == s


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"fundamental_hz": "fifty"},
        {"fundamental_hz": 50.0, "harmonics": {"order": 1}},
        {"fundamental_hz": 50.0, "harmonics": [{"order": 1}]},
        {"fundamental_hz": 50.0, "harmonics": [{"order": 1, "rms": True}]},
        {"fundamental_hz": 50.0, "harmonics": [{"order": -1, "rms": 1.0}]},
        {"fundamental_hz": 50.0, "wattage": 9000},
    ],
)
def test_signal_from_dict_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        SpectralSignal.from_dict(doc)


# -- layout ------------------------------------------------------------------

def test_layout_slot_assignment():
    layout = BasisLayout(n=3, interharmonic_orders=(3.5, 4.5))
    assert layout.dimension == 1 + 6 + 4
    assert layout.slot_pair(1) == (1, 2)
    assert layout.slot_pair(3) == (5, 6)
    assert layout.slot_pair(3.5) == (7, 8)
    assert layout.slot_pair(4.5) == (9, 10)


def test_layout_missing_slot_errors():
    layout = BasisLayout(n=2)
    with pytest.raises(LayoutError):
        layout.slot_pair(3)
    with pytest.raises(LayoutError):
        layout.slot_pair(1.5)


def test_layout_rejects_integer_interharmonics():
    with pytest.raises(LayoutError):
        BasisLayout(n=1, interharmonic_orders=(2.0,))
    with pytest.raises(LayoutError):
        BasisLayout(n=1, interharmonic_orders=(2.5, 2.5))


def test_layout_for_signals_spans_both():
    u = SpectralSignal(50.0, harmonics=(HarmonicComponent(1, 1.0),))
    i = SpectralSignal(
        50.0,
        harmonics=(HarmonicComponent(5, 1.0),),
        interharmonics=(HarmonicComponent(2.5, 1.0),),
    )
    layout = BasisLayout.for_signals(u, i)
    assert layout.n == 5
    assert layout.interharmonic_orders == (2.5,)


# -- to_phasor ------------------------------------------------------------------

def test_to_phasor_two_harmonic_fixture(two_harmonic_source):
    layout = BasisLayout.for_signals(two_harmonic_source)
    u = to_phasor(two_harmonic_source, layout)
    assert np.array_equal(u.coeffs, dense(7, {2: 100.0, 6: 100.0}))


def test_to_phasor_dc_only():
    s = SpectralSignal(50.0, dc=5.0)
    u = to_phasor(s, BasisLayout(n=0))
    assert u.coeffs.tolist() == [5.0]
    assert u.dc == 5.0


def test_to_phasor_cosine_lands_on_odd_slot():
    # sqrt(2)*10*sin(wt + pi/2) is a pure cosine; phase pi/2 puts the whole
    # amplitude on the sine-coefficient slot s1
    s = SpectralSignal(50.0, harmonics=(HarmonicComponent(1, 10.0, math.pi / 2),))
    u = to_phasor(s, BasisLayout(n=1))
    assert u.coeffs.tolist() == [0.0, 10.0, 0.0]
    # trig-identity oracle: the reconstructed waveform is the plain cosine
    t = np.linspace(0.0, 0.02, 7)
    np.testing.assert_allclose(
        reconstruct(s, t),
        math.sqrt(2) * 10.0 * np.cos(2 * math.pi * 50.0 * t),
        atol=1e-9,
    )


def test_to_phasor_missing_slot_errors(two_harmonic_source):
    with pytest.raises(LayoutError):
        to_phasor(two_harmonic_source, BasisLayout(n=1))


def test_phasor_requires_grade_one():
    # a phasor is one coefficient per basis vector: a bivector block, or a
    # vector of another dimension, is refused
    layout = BasisLayout(n=1)
    with pytest.raises(LayoutError):
        GeometricPhasor(np.zeros((3, 3)), layout, 50.0)
    with pytest.raises(LayoutError):
        GeometricPhasor(dense(5, {1: 1.0}), layout, 50.0)


def test_phasor_arithmetic_and_pairs(two_harmonic_phasor):
    u = two_harmonic_phasor
    assert u.pair(1) == (0.0, 100.0)
    assert u.pair(3) == (0.0, 100.0)
    assert u.pair(2) == (0.0, 0.0)
    assert u.occupied_orders() == (1.0, 3.0)
    assert not (u - u).coeffs.any()
    assert (2 * u).norm() == pytest.approx(2 * u.norm())
    assert np.array_equal(u.component(1).coeffs, dense(7, {2: 100.0}))


def test_phasor_mixed_layout_rejected(two_harmonic_phasor):
    other = vector(BasisLayout(n=1), {1: 1.0}, OMEGA1_F0_HZ)
    with pytest.raises(LayoutError):
        two_harmonic_phasor + other


# -- from_phasor -----------------------------------------------------------------

def test_from_phasor_inverse_fixture(two_harmonic_phasor):
    s = from_phasor(two_harmonic_phasor)
    assert [(c.order, c.rms, c.phase_rad) for c in s.harmonics] == [
        (1.0, 100.0, 0.0),
        (3.0, 100.0, 0.0),
    ]


def test_from_phasor_zero_is_empty():
    layout = BasisLayout(n=2)
    p = GeometricPhasor(np.zeros(5), layout, 50.0)
    s = from_phasor(p)
    assert s.harmonics == () and s.interharmonics == () and s.dc == 0.0


# -- reconstruct --------------------------------------------------------------------

def test_reconstruct_sine_values():
    s = SpectralSignal(1.0, harmonics=(HarmonicComponent(1, 1.0),))
    assert reconstruct(s, [0.0])[0] == pytest.approx(0.0)
    assert reconstruct(s, [0.25])[0] == pytest.approx(math.sqrt(2))


def test_reconstruct_two_harmonic_fixture_at_zero(two_harmonic_source):
    assert reconstruct(two_harmonic_source, [0.0])[0] == pytest.approx(0.0)


# -- random-signal properties ----------------------------------------------------------

orders_strategy = st.lists(st.integers(1, 8), unique=True, min_size=0, max_size=4)
inter_strategy = st.lists(
    st.sampled_from([1.5, 2.5, 3.25, 4.75]), unique=True, min_size=0, max_size=2
)
rms_strategy = st.floats(0.01, 100.0)
phase_strategy = st.floats(-math.pi, math.pi)


@st.composite
def signals(draw) -> SpectralSignal:
    harmonics = tuple(
        HarmonicComponent(k, draw(rms_strategy), draw(phase_strategy))
        for k in sorted(draw(orders_strategy))
    )
    inter = tuple(
        HarmonicComponent(o, draw(rms_strategy), draw(phase_strategy))
        for o in sorted(draw(inter_strategy))
    )
    return SpectralSignal(
        draw(st.floats(1.0, 400.0)),
        dc=draw(st.floats(-10.0, 10.0)),
        harmonics=harmonics,
        interharmonics=inter,
    )


@given(signals())
def test_parseval(sig):
    p = to_phasor(sig, BasisLayout.for_signals(sig))
    expected = sig.dc**2 + sum(c.rms**2 for c in sig.components())
    assert p.norm() ** 2 == pytest.approx(expected, abs=1e-9, rel=1e-12)


@given(signals())
def test_signal_round_trip(sig):
    p = to_phasor(sig, BasisLayout.for_signals(sig))
    back = from_phasor(p)
    assert back.dc == pytest.approx(sig.dc, abs=1e-9)
    assert len(back.components()) == len(sig.components())
    for orig, rec in zip(sig.components(), back.components()):
        assert rec.order == orig.order
        assert rec.rms == pytest.approx(orig.rms, abs=1e-9)
        assert phase_diff(rec.phase_rad, orig.phase_rad) < 1e-9


@given(signals(), signals())
def test_disjoint_signals_are_orthogonal(a, b):
    a_orders = {c.order for c in a.components()}
    b_comps = tuple(c for c in b.components() if c.order not in a_orders)
    b = SpectralSignal(
        a.fundamental_hz,
        dc=0.0,
        harmonics=tuple(c for c in b_comps if float(c.order).is_integer()),
        interharmonics=tuple(c for c in b_comps if not float(c.order).is_integer()),
    )
    a = SpectralSignal(
        a.fundamental_hz, dc=0.0, harmonics=a.harmonics, interharmonics=a.interharmonics
    )
    layout = BasisLayout.for_signals(a, b)
    pa = to_phasor(a, layout)
    pb = to_phasor(b, layout)
    assert pa.dot(pb) == 0.0


@given(signals(), st.floats(0.0, 1.0))
def test_reconstruct_matches_component_sum(sig, frac):
    t = frac / sig.fundamental_hz
    expected = sig.dc + sum(
        math.sqrt(2) * c.rms * math.sin(c.order * sig.omega * t + c.phase_rad)
        for c in sig.components()
    )
    assert reconstruct(sig, [t])[0] == pytest.approx(expected, abs=1e-9)
