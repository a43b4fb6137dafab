"""Geometric power fixtures, the norm identity and the classical P/Q
oracle."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.cli import _json, _power_json
from gapower.errors import LayoutError, PowerAnalysisError
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)
from gapower.power import (
    GeometricPower,
    apparent,
    geometric_power,
    harmonic_pq,
    power_factor,
    power_report,
)
from gapower.circuit import SeriesRLC, admittances_for, solve_current

from conftest import bivector_block, dense, text_of, vector
from oracles import pq_complex
from report_schema import POWER_REPORT_SCHEMA


def phasor_of(terms: dict, dim: int, f0: float = 50.0) -> GeometricPhasor:
    return vector(BasisLayout(n=(dim - 1) // 2), terms, f0)


def assert_power(m: GeometricPower, scalar: float, planes: dict) -> None:
    """``m`` is ``scalar`` plus the ``(a, b) -> coefficient`` planes."""
    got = bivector_block(m)
    block = np.zeros_like(got)
    for ab, c in planes.items():
        block[ab] = c
    assert m.scalar == pytest.approx(scalar, abs=1e-9)
    np.testing.assert_allclose(got, block, rtol=0.0, atol=1e-9)


# -- fixtures ------------------------------------------------------------

def test_geometric_power_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    m = geometric_power(two_harmonic_phasor, i)
    assert_power(m, 10000.0, {
        (1, 2): -5000.0, (5, 6): 5000.0, (1, 6): -5000.0, (2, 5): -5000.0,
    })
    assert m.scalar == pytest.approx(10000.0)
    block = bivector_block(m)
    assert np.any(block) and not np.any(np.tril(block))


def test_geometric_power_variant_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(
        two_harmonic_phasor,
        admittances_for(rlc_unequal_conductance, two_harmonic_phasor),
    )
    m = geometric_power(two_harmonic_phasor, i)
    assert_power(m, 10000.0, {
        (1, 2): -3000.0, (5, 6): 3000.0, (1, 6): -3000.0, (2, 5): -3000.0,
        (2, 6): 8000.0,
    })


def test_geometric_power_unity_case():
    u = phasor_of({1: 1.0}, 3)
    m = geometric_power(u, u)
    assert_power(m, 1.0, {})
    assert power_factor(m) == pytest.approx(1.0)


def test_geometric_power_layout_mismatch():
    u = phasor_of({1: 1.0}, 3)
    i = phasor_of({1: 1.0}, 5)
    with pytest.raises(LayoutError):
        geometric_power(u, i)


def test_geometric_power_type_guards_grades():
    # a power holds grades 0 and 2 only: a grade-1 coefficient vector is
    # not a list of planes, and neither are the diagonal's (k, k) pairs
    layout = BasisLayout(n=1)
    with pytest.raises(LayoutError):
        GeometricPower(0.0, dense(3, {1: 1.0}), dense(3, {1: 1.0}), layout)
    with pytest.raises(PowerAnalysisError):
        GeometricPower(0.0, [[0, 0], [1, 1], [2, 2]], np.ones(3), layout)


def test_apparent_fixture(two_harmonic_phasor, rlc_equal_conductance,
                          rlc_unequal_conductance):
    i1 = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    i2 = solve_current(
        two_harmonic_phasor,
        admittances_for(rlc_unequal_conductance, two_harmonic_phasor),
    )
    expected = 10000.0 * math.sqrt(2.0)
    assert apparent(geometric_power(two_harmonic_phasor, i1)) == pytest.approx(
        expected, rel=1e-12
    )
    # changing the capacitor redistributes the bivectors, not the norm
    assert apparent(geometric_power(two_harmonic_phasor, i2)) == pytest.approx(
        expected, rel=1e-12
    )


def test_apparent_zero_current(two_harmonic_phasor):
    zero = GeometricPhasor(
        np.zeros(7), two_harmonic_phasor.layout, two_harmonic_phasor.fundamental_hz
    )
    assert apparent(geometric_power(two_harmonic_phasor, zero)) == 0.0
    with pytest.raises(PowerAnalysisError):
        power_factor(geometric_power(two_harmonic_phasor, zero))


def test_power_factor_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    pf = power_factor(geometric_power(two_harmonic_phasor, i))
    assert pf == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_power_factor_quadrature_is_zero():
    u = phasor_of({2: 1.0}, 3)
    i = phasor_of({1: 1.0}, 3)
    assert power_factor(geometric_power(u, i)) == pytest.approx(0.0)


# -- per-harmonic P/Q ----------------------------------------------------------

def pq_by_order(u, i) -> dict[float, tuple[float, float]]:
    """order -> (p, q) of each row of ``harmonic_pq``."""
    orders, p, q = (a.tolist() for a in harmonic_pq(u, i))
    return dict(zip(orders, zip(p, q)))


def test_harmonic_pq_fixture(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    pq = harmonic_pq(two_harmonic_phasor, i)
    assert list(zip(*(a.tolist() for a in pq))) == [
        (1.0, pytest.approx(5000.0), pytest.approx(-5000.0)),
        (3.0, pytest.approx(5000.0), pytest.approx(5000.0)),
    ]


def test_harmonic_pq_parallel_current_has_zero_q():
    u = phasor_of({1: 3.0, 2: 4.0}, 3)
    orders, p, q = harmonic_pq(u, u)
    assert q[0] == 0.0
    assert p[0] == pytest.approx(25.0)


def test_harmonic_pq_covers_current_only_orders():
    u = phasor_of({2: 10.0}, 5)
    i = phasor_of({2: 1.0, 4: 2.0}, 5)
    pq = pq_by_order(u, i)
    assert set(pq) == {1.0, 2.0}
    assert pq[2.0] == (0.0, 0.0)


def test_harmonic_pq_bench_matches_complex_oracle(bench_phasors):
    u, i = bench_phasors
    pq = pq_by_order(u, i)
    u_sig = from_phasor(u)
    i_sig = from_phasor(i)
    assert u_sig.orders.tolist() == i_sig.orders.tolist()
    for order, u_rms, u_phase, i_rms, i_phase in zip(
        u_sig.orders.tolist(), u_sig.rms.tolist(), u_sig.phase_rad.tolist(),
        i_sig.rms.tolist(), i_sig.phase_rad.tolist(),
    ):
        p_ref, q_ref = pq_complex(u_rms, u_phase, i_rms, i_phase)
        assert pq[order][0] == pytest.approx(p_ref, abs=1e-9)
        assert pq[order][1] == pytest.approx(q_ref, abs=1e-9)


def test_cross_frequency_terms_fixture(two_harmonic_phasor, rlc_unequal_conductance):
    i = solve_current(
        two_harmonic_phasor,
        admittances_for(rlc_unequal_conductance, two_harmonic_phasor),
    )
    report = power_report(two_harmonic_phasor, i)
    m, cross = report.m, report.cross
    assert int(cross.sum()) == 3
    assert m.blade_indices[cross].tolist() == [[1, 6], [2, 5], [2, 6]]
    assert m.va[cross].tolist() == pytest.approx([-3000.0, -3000.0, 8000.0])


# -- report ---------------------------------------------------------------------

def test_power_report_shape_and_schema(two_harmonic_phasor, rlc_equal_conductance):
    i = solve_current(
        two_harmonic_phasor, admittances_for(rlc_equal_conductance, two_harmonic_phasor)
    )
    report = power_report(two_harmonic_phasor, i)
    assert report.p_w == pytest.approx(10000.0)
    assert report.apparent_va == pytest.approx(10000.0 * math.sqrt(2))
    assert report.per_harmonic[0].tolist() == [1.0, 3.0]
    # the block as the CLI prints it
    doc = json.loads(text_of(_json(_power_json(report))))
    jsonschema.validate(doc, POWER_REPORT_SCHEMA)
    assert [h["order"] for h in doc["per_harmonic"]] == [1.0, 3.0]
    assert {tuple(t["blade_indices"]) for t in doc["cross_terms"]} == {
        (1, 6),
        (2, 5),
    }


def test_power_report_zero_pair_has_null_pf():
    zero = phasor_of({}, 3)
    report = power_report(zero, zero)
    assert report.pf is None
    doc = json.loads(text_of(_json(_power_json(report))))
    assert doc["pf"] is None
    jsonschema.validate(doc, POWER_REPORT_SCHEMA)


def test_power_report_memory_follows_the_support():
    # lines at orders 1 and 1000 span 2001 slots but occupy 4: a
    # (dim, dim) block would take 32 MB per temporary, 95 MB at peak
    source = SpectralSignal(
        50.0, orders=[1, 1000], rms=[230.0, 5.0], phase_rad=[0.3, -1.1]
    )
    u = to_phasor(source, BasisLayout.for_signals(source))
    i = solve_current(u, admittances_for(SeriesRLC(r=1.0, l=0.01), u))
    tracemalloc.start()
    try:
        report = power_report(u, i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert report.m.blade_indices[report.cross].tolist() == [
        [1, 1999], [1, 2000], [2, 1999], [2, 2000]
    ]


def test_geometric_power_holds_little_besides_its_planes():
    # every slot of a dim-301 layout occupied, as --orders 150 on a noisy
    # recording: 45,150 planes stored in 1.08 MB, a traced peak of 1.31 MB
    # a block of rows at a time and of 2.58 MB with every pair formed at once
    layout = BasisLayout(150)
    rng = np.random.default_rng(3)
    u, i = (GeometricPhasor(rng.normal(size=layout.dimension), layout, 50.0)
            for _ in range(2))
    tracemalloc.start()
    try:
        m = geometric_power(u, i)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.va) == 301 * 300 // 2
    assert peak < 1.35 * (m.blade_indices.nbytes + m.va.nbytes)


# -- random-instance properties ----------------------------------------------------

coeff = st.floats(-50.0, 50.0)


@st.composite
def phasor_pairs(draw):
    n = draw(st.integers(1, 5))
    layout = BasisLayout(n=n)
    dim = layout.dimension

    def one():
        slots = draw(
            st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)
        )
        return vector(layout, {k: draw(coeff) for k in slots})

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
    bivector_sq = float(np.sum(bivector_block(m)**2))
    assert apparent(m) ** 2 == pytest.approx(
        m.scalar**2 + bivector_sq, abs=1e-9, rel=1e-12
    )


@given(phasor_pairs())
def test_pq_matches_complex_oracle(pair):
    u, i = pair
    pq = pq_by_order(u, i)
    held = (u.present() | i.present())[1:]
    for order, (u_odd, u_even), (i_odd, i_even) in zip(
        u.layout.orders()[held].tolist(),
        u.pairs[held].tolist(),
        i.pairs[held].tolist(),
    ):
        p_ref, q_ref = pq_complex(
            math.hypot(u_odd, u_even),
            math.atan2(u_odd, u_even),
            math.hypot(i_odd, i_even),
            math.atan2(i_odd, i_even),
        )
        assert pq[order][0] == pytest.approx(p_ref, abs=1e-9)
        assert abs(pq[order][1]) == pytest.approx(abs(q_ref), abs=1e-9)


@given(phasor_pairs())
def test_scalar_part_equals_mean_instantaneous_power(pair):
    u, i = pair
    m = geometric_power(u, i)
    f0 = u.fundamental_hz
    samples = 256
    t = np.arange(samples) / (samples * f0)
    p_t = reconstruct(from_phasor(u), t) * reconstruct(from_phasor(i), t)
    assert float(np.mean(p_t)) == pytest.approx(m.scalar, abs=1e-6)


# Prints the bits of the apparent power of five seeded dim-201 powers.
_APPARENT_BITS = """
import numpy as np
from gapower.phasor import BasisLayout, GeometricPhasor
from gapower.power import apparent, geometric_power
layout = BasisLayout(n=100)
rng = np.random.default_rng(7)
for _ in range(5):
    u, i = (GeometricPhasor(rng.normal(size=layout.dimension), layout, 50.0)
            for _ in range(2))
    print(apparent(geometric_power(u, i)).hex())
"""


def test_apparent_does_not_depend_on_the_blas_thread_count():
    """Identical inputs give identical bits whatever BLAS thread count the
    process runs with."""
    src = Path(__file__).resolve().parent.parent / "src"

    def bits(threads: int) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        paths = [str(src), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        return subprocess.run(
            [sys.executable, "-c", _APPARENT_BITS],
            capture_output=True, text=True, env=env, check=True,
        ).stdout

    one = bits(1)
    assert one.count("\n") == 5
    assert bits(2) == one
