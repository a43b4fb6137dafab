"""Shared fixtures: the two worked circuit cases and the five-harmonic
bench recording used by the measurement tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gapower import (
    BasisLayout,
    GeometricPhasor,
    GeometricPower,
    SeriesRLC,
    SpectralSignal,
    to_phasor,
)

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

# Two-harmonic source driving a series RLC at omega = 1 rad/s.
OMEGA1_F0_HZ = 1.0 / (2.0 * math.pi)

# Five-odd-harmonic 50 Hz bench recording: (order, rms, phase_rad) rows
# measured at 15.625 kHz over 200 ms.
BENCH_F0_HZ = 50.0
BENCH_FS_HZ = 15625.0
BENCH_SAMPLES = 3125
BENCH_VOLTAGE_ROWS = (
    (1, 233.92, -1.57),
    (3, 0.46, -2.61),
    (5, 4.74, 1.28),
    (7, 4.02, -0.07),
    (9, 0.42, -2.60),
)
BENCH_CURRENT_ROWS = (
    (1, 2.33, -0.72),
    (3, 0.93, 1.85),
    (5, 0.45, -1.69),
    (7, 0.49, 1.70),
    (9, 0.16, -1.44),
)


def dense(dim: int, terms: dict[int, float]) -> np.ndarray:
    """Coefficient vector of length ``dim`` with ``terms`` (basis index ->
    coefficient) filled in and zeros elsewhere."""
    coeffs = np.zeros(dim)
    for k, c in terms.items():
        coeffs[k] = c
    return coeffs


def vector(layout: BasisLayout, terms: dict[int, float],
           f0: float = 50.0) -> GeometricPhasor:
    """Phasor on ``layout`` with the given basis-index coefficients."""
    return GeometricPhasor(dense(layout.dimension, terms), layout, f0)


def slots(layout: BasisLayout, order: float) -> tuple[int, int]:
    """(odd, even) basis indices ``to_phasor`` puts a line of ``order``
    on: the non-zero coefficients of a unit line at phase pi/4."""
    s = SpectralSignal(1.0, orders=[order], rms=[1.0], phase_rad=[math.pi / 4])
    return tuple(np.flatnonzero(to_phasor(s, layout).coeffs).tolist())


def index_terms(p: GeometricPhasor) -> dict:
    """The oracles' term map of a phasor: ``{(k,): coefficient}``."""
    return {(k,): c for k, c in enumerate(p.coeffs.tolist()) if c}


def bivector_block(m: GeometricPower) -> np.ndarray:
    """The power's planes scattered into a strictly upper ``(dim, dim)``
    block: entry ``[a, b]`` is the coefficient of ``s_a s_b``, every other
    entry 0."""
    dim = m.layout.dimension
    block = np.zeros((dim, dim))
    lo, hi = m.blade_indices.T
    block[lo, hi] = m.va
    return block


def power_terms(m: GeometricPower) -> dict:
    """The oracles' term map of a power: ``{(): scalar, (a, b): coefficient}``."""
    terms = dict(zip(map(tuple, m.blade_indices.tolist()), m.va.tolist()))
    if m.scalar:
        terms[()] = m.scalar
    return terms


def rows_to_signal(rows, fundamental_hz: float) -> SpectralSignal:
    orders, rms, phase = zip(*rows)
    return SpectralSignal(fundamental_hz, orders=orders, rms=rms, phase_rad=phase)


@pytest.fixture
def two_harmonic_source() -> SpectralSignal:
    return SpectralSignal(
        OMEGA1_F0_HZ, orders=[1, 3], rms=[100.0, 100.0], phase_rad=[0.0, 0.0]
    )


@pytest.fixture
def rlc_equal_conductance() -> SeriesRLC:
    # both harmonics see |Z| = sqrt(2): admittances 0.5 +/- 0.5 plane
    return SeriesRLC(r=1.0, l=0.5, c=2.0 / 3.0)


@pytest.fixture
def rlc_unequal_conductance() -> SeriesRLC:
    return SeriesRLC(r=1.0, l=0.5, c=2.0 / 7.0)


@pytest.fixture
def two_harmonic_phasor(two_harmonic_source):
    layout = BasisLayout.for_signals(two_harmonic_source)
    return to_phasor(two_harmonic_source, layout)


@pytest.fixture
def bench_signals() -> tuple[SpectralSignal, SpectralSignal]:
    return (
        rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ),
        rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ),
    )


@pytest.fixture
def bench_phasors(bench_signals):
    u_sig, i_sig = bench_signals
    layout = BasisLayout.for_signals(u_sig, i_sig)
    return to_phasor(u_sig, layout), to_phasor(i_sig, layout)
