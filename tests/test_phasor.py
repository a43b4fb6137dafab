"""Spectral-signal validation, slot layout and the signal <-> phasor maps."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapower.algebra import ZERO_REL
from gapower.errors import LayoutError, PowerAnalysisError, SchemaError
from gapower.phasor import (
    MAX_ORDER,
    BasisLayout,
    GeometricPhasor,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)

from conftest import OMEGA1_F0_HZ, dense, slots, vector
from oracles import present_brute


def phase_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# -- signal validation ----------------------------------------------------

def test_signal_normalizes_phase():
    s = SpectralSignal(50.0, orders=[1, 3], rms=[1.0, 1.0],
                       phase_rad=[3.0 * math.pi, -math.pi])
    assert s.phase_rad.tolist() == pytest.approx([math.pi, math.pi])


def refusal(orders, rms, phase, message, name):
    return pytest.param(orders, rms, phase, message, id=name)


@pytest.mark.parametrize(
    "orders, rms, phase, message",
    [
        refusal([0], [1.0], None, "order must be finite and > 0, got 0.0",
                "order-zero"),
        refusal([1, math.nan], [1.0, 1.0], None,
                "order must be finite and > 0, got nan", "order-nan"),
        refusal([1, 3], [1.0, -1.0], None,
                "rms at order 3.0 must be finite and >= 0, got -1.0", "rms-negative"),
        refusal([1], [math.nan], None,
                "rms at order 1.0 must be finite and >= 0, got nan", "rms-nan"),
        refusal([1, 3], [1.0, math.inf], None,
                "rms at order 3.0 must be finite and >= 0, got inf", "rms-inf"),
        refusal([1, 3], [1.0, 1.0], [0.0, math.inf],
                "phase at order 3.0 must be finite, got inf", "phase-inf"),
        refusal([1, 2.5, 3], [1.0] * 3, None,
                "harmonic order 3.0 is listed after interharmonic order 2.5",
                "harmonic-after-interharmonic"),
        refusal([3, 1], [1.0, 1.0], None, "order 1.0 follows order 3.0",
                "harmonics-descend"),
        refusal([1, 1], [1.0, 1.0], None, "order 1.0 follows order 1.0",
                "harmonic-repeated"),
        refusal([1, 3.5, 2.5], [1.0] * 3, None, "order 2.5 follows order 3.5",
                "interharmonics-descend"),
        refusal([1, 3], [1.0], None,
                "orders [1.0, 3.0], rms [1.0] and phase_rad [0.0, 0.0]", "rms-short"),
        refusal([1, 3], [1.0, 1.0], [0.5],
                "orders [1.0, 3.0], rms [1.0, 1.0] and phase_rad [0.5]",
                "phase-short"),
    ],
)
def test_signal_refusals_name_the_order(orders, rms, phase, message):
    with pytest.raises(PowerAnalysisError) as err:
        SpectralSignal(50.0, orders=orders, rms=rms, phase_rad=phase)
    assert message in str(err.value)


def test_signal_drops_zero_rms_components():
    s = SpectralSignal(50.0, orders=[1, 3], rms=[10.0, 0.0])
    assert s.orders.tolist() == [1.0]


def test_signal_arrays_are_read_only_copies():
    orders = np.array([1.0, 2.5])
    s = SpectralSignal(50.0, orders=orders, rms=[1.0, 2.0])
    orders[0] = 7.0
    assert s.orders.tolist() == [1.0, 2.5]
    assert s.harmonic.tolist() == [True, False]
    assert s.phase_rad.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        s.rms[0] = 3.0


def test_signal_rejects_misplaced_orders():
    line = {"rms": 1.0}
    with pytest.raises(SchemaError,
                       match=r"harmonics\[0\].order must be integer, got 2.5"):
        SpectralSignal.from_dict(
            {"fundamental_hz": 50.0, "harmonics": [{"order": 2.5, **line}]}
        )
    with pytest.raises(SchemaError,
                       match=r"interharmonics\[1\].order must be fractional, got 2.0"):
        SpectralSignal.from_dict(
            {"fundamental_hz": 50.0,
             "interharmonics": [{"order": 1.5, **line}, {"order": 2, **line}]}
        )
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(50.0, orders=[2.5, 3], rms=[1.0, 1.0])
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(50.0, orders=[3, 1], rms=[1.0, 1.0])
    with pytest.raises(PowerAnalysisError):
        SpectralSignal(0.0, orders=[1], rms=[1.0])


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
    s = SpectralSignal.from_dict(doc)
    assert (s.fundamental_hz, s.dc) == (50.0, 2.0000000000000004)
    assert s.orders.tolist() == [1.0, 5.0, 2.5]
    assert s.rms.tolist() == [10.123456789012345, 1.0, 0.5]
    assert s.phase_rad.tolist() == [0.1, -2.0, 1.0]


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
    assert layout.orders().dtype == np.float64
    assert layout.orders().tolist() == [1.0, 2.0, 3.0, 3.5, 4.5]
    assert slots(layout, 1) == (1, 2)
    assert slots(layout, 3) == (5, 6)
    assert slots(layout, 3.5) == (7, 8)
    assert slots(layout, 4.5) == (9, 10)


def test_layout_missing_slot_errors():
    layout = BasisLayout(n=2)
    with pytest.raises(LayoutError, match=r"^harmonic order 3 has no slot \(n=2\)$"):
        to_phasor(SpectralSignal(50.0, orders=[3], rms=[1.0]), layout)
    with pytest.raises(LayoutError, match=r"^interharmonic order 1.5 has no slot$"):
        to_phasor(SpectralSignal(50.0, orders=[1.5], rms=[1.0]), layout)
    # an order beyond the integer range is refused like any other
    with pytest.raises(LayoutError, match=r"^harmonic order 10{19} has no slot"):
        to_phasor(SpectralSignal(50.0, orders=[1e19], rms=[1.0]), layout)


def test_layout_rejects_integer_interharmonics():
    with pytest.raises(LayoutError):
        BasisLayout(n=1, interharmonic_orders=(2.0,))
    with pytest.raises(LayoutError):
        BasisLayout(n=1, interharmonic_orders=(2.5, 2.5))


def test_layout_holds_orders_up_to_the_ceiling():
    # checked on the layout alone: a phasor at the ceiling is 16 MB
    doc = {"fundamental_hz": 50.0, "harmonics": [{"order": MAX_ORDER, "rms": 1.0}],
           "interharmonics": [{"order": MAX_ORDER - 0.5, "rms": 1.0}]}
    layout = BasisLayout.for_signals(SpectralSignal.from_dict(doc))
    assert layout.n == MAX_ORDER == 1 << 20
    assert layout.dimension == 1 + 2 * MAX_ORDER + 2
    with pytest.raises(LayoutError, match=(
            f"^harmonic count {MAX_ORDER + 1} exceeds the largest supported "
            f"order {MAX_ORDER}$")):
        BasisLayout(MAX_ORDER + 1)
    with pytest.raises(LayoutError, match=(
            rf"^interharmonic order {MAX_ORDER + 0.5} exceeds the largest "
            f"supported order {MAX_ORDER}$")):
        BasisLayout(1, (MAX_ORDER + 0.5,))
    doc["interharmonics"][0]["order"] = MAX_ORDER + 0.5
    with pytest.raises(SchemaError, match=(
            rf"^interharmonics\[0\]\.order {MAX_ORDER + 0.5} exceeds the largest "
            f"supported order {MAX_ORDER}$")):
        SpectralSignal.from_dict(doc)


def test_layout_for_signals_spans_both():
    u = SpectralSignal(50.0, orders=[1], rms=[1.0])
    i = SpectralSignal(50.0, orders=[5, 2.5], rms=[1.0, 1.0])
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
    s = SpectralSignal(50.0, orders=[1], rms=[10.0], phase_rad=[math.pi / 2])
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
    assert u.pairs.tolist() == [[0.0, 100.0], [0.0, 0.0], [0.0, 100.0]]
    assert u.layout.orders()[u.present()[1:]].tolist() == [1.0, 3.0]
    assert not (u - u).coeffs.any()
    assert (2 * u).norm() == pytest.approx(2 * u.norm())


@st.composite
def threshold_phasors(draw) -> GeometricPhasor:
    """Phasors whose slots are 0, of order 1 (``+``), or just above (``>``)
    or below (``<``) the zero threshold that the order-1 slots set, all
    scaled by a drawn power of two."""
    layout = BasisLayout(draw(st.integers(0, 4)), draw(st.sampled_from([(), (2.5,)])))
    dim = layout.dimension
    kinds = draw(st.lists(st.sampled_from("0+<>"), min_size=dim, max_size=dim))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
    big = np.array([draw(st.floats(0.5, 2.0)) if k == "+" else 0.0 for k in kinds])
    limit = ZERO_REL * math.hypot(*big)
    near = {"0": 0.0, "+": 0.0, ">": limit * (1 + 1e-6), "<": limit * (1 - 1e-6)}
    coeffs = (big + [near[k] for k in kinds]) * signs
    scale = 2.0 ** draw(st.integers(-900, 900))
    return GeometricPhasor(coeffs * scale, layout, 50.0)


@given(threshold_phasors())
@example(GeometricPhasor(np.zeros(5), BasisLayout(n=2), 50.0))
@example(GeometricPhasor(dense(5, {0: -3.0}), BasisLayout(n=2), 50.0))
@example(GeometricPhasor(dense(1, {0: 1e-300}), BasisLayout(n=0), 50.0))
def test_present_matches_the_brute_mask(p):
    assert p.present().tolist() == present_brute(p.coeffs.tolist(), ZERO_REL)


def test_present_at_the_zero_threshold():
    # one mask over the entries: DC, order 1, order 2
    layout = BasisLayout(n=2)
    for factor, held in ((1 + 1e-6, True), (1 - 1e-6, False)):
        p = vector(layout, {2: 1.0, 3: ZERO_REL * factor, 0: -ZERO_REL * factor})
        assert p.present().tolist() == [held, True, held]
    assert vector(layout, {}).present().tolist() == [False, False, False]
    assert vector(layout, {0: 5.0}).present().tolist() == [True, False, False]


def test_phasor_mixed_layout_rejected(two_harmonic_phasor):
    other = vector(BasisLayout(n=1), {1: 1.0}, OMEGA1_F0_HZ)
    with pytest.raises(LayoutError):
        two_harmonic_phasor + other


# -- from_phasor -----------------------------------------------------------------

def test_from_phasor_inverse_fixture(two_harmonic_phasor):
    s = from_phasor(two_harmonic_phasor)
    assert s.orders.tolist() == [1.0, 3.0]
    assert s.rms.tolist() == [100.0, 100.0]
    assert s.phase_rad.tolist() == [0.0, 0.0]


def test_from_phasor_zero_is_empty():
    layout = BasisLayout(n=2)
    p = GeometricPhasor(np.zeros(5), layout, 50.0)
    s = from_phasor(p)
    assert s.orders.size == s.rms.size == s.phase_rad.size == 0 and s.dc == 0.0


# -- reconstruct --------------------------------------------------------------------

def test_reconstruct_sine_values():
    s = SpectralSignal(1.0, orders=[1], rms=[1.0])
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
    orders = sorted(draw(orders_strategy)) + sorted(draw(inter_strategy))
    return SpectralSignal(
        draw(st.floats(1.0, 400.0)),
        dc=draw(st.floats(-10.0, 10.0)),
        orders=orders,
        rms=[draw(rms_strategy) for _ in orders],
        phase_rad=[draw(phase_strategy) for _ in orders],
    )


def lines(sig: SpectralSignal) -> list[tuple[float, float, float]]:
    """(order, rms, phase_rad) of each line, in listed order."""
    return list(zip(sig.orders.tolist(), sig.rms.tolist(), sig.phase_rad.tolist()))


@given(signals())
def test_parseval(sig):
    p = to_phasor(sig, BasisLayout.for_signals(sig))
    expected = sig.dc**2 + sum(r**2 for _, r, _ in lines(sig))
    assert p.norm() ** 2 == pytest.approx(expected, abs=1e-9, rel=1e-12)


@given(signals())
def test_signal_round_trip(sig):
    p = to_phasor(sig, BasisLayout.for_signals(sig))
    back = from_phasor(p)
    assert back.dc == pytest.approx(sig.dc, abs=1e-9)
    assert len(back.orders) == len(sig.orders)
    for (order, rms, phase), (r_order, r_rms, r_phase) in zip(lines(sig), lines(back)):
        assert r_order == order
        assert r_rms == pytest.approx(rms, abs=1e-9)
        assert phase_diff(r_phase, phase) < 1e-9


@given(signals(), signals())
def test_disjoint_signals_are_orthogonal(a, b):
    keep = ~np.isin(b.orders, a.orders)
    b = SpectralSignal(
        a.fundamental_hz,
        dc=0.0,
        orders=b.orders[keep],
        rms=b.rms[keep],
        phase_rad=b.phase_rad[keep],
    )
    a = SpectralSignal(
        a.fundamental_hz, dc=0.0, orders=a.orders, rms=a.rms, phase_rad=a.phase_rad
    )
    layout = BasisLayout.for_signals(a, b)
    pa = to_phasor(a, layout)
    pb = to_phasor(b, layout)
    assert pa.dot(pb) == 0.0


@given(signals(), st.floats(0.0, 1.0))
def test_reconstruct_matches_component_sum(sig, frac):
    t = frac / sig.fundamental_hz
    expected = sig.dc + sum(
        math.sqrt(2) * rms * math.sin(order * sig.omega * t + phase)
        for order, rms, phase in lines(sig)
    )
    assert reconstruct(sig, [t])[0] == pytest.approx(expected, abs=1e-9)
