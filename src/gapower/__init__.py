"""Geometric-algebra power analysis for non-sinusoidal single-phase systems.

The pipeline: describe a periodic voltage as a ``SpectralSignal`` (or
extract one from samples with ``dft_extract``), map it onto a grade-1
geometric phasor (a dense coefficient vector) with ``to_phasor``, solve or
measure the current, multiply the two phasors into the geometric apparent
power (a scalar plus a bivector block), and split the current into
active/non-active and parallel/quadrature/generated parts.  A coefficient
counts as zero only relative to the norm of its signal (``algebra``), so
no result depends on the units.  ``str()`` of a phasor or a power prints
its terms in blade notation, e.g. ``10000 - 5000 s12 + 5000 s56``.
"""

from .circuit import (
    Admittances,
    SeriesRLC,
    admittances_for,
    invert,
    parallel_quadrature,
    solve_current,
)
from .decompose import (
    CurrentComponents,
    compensation_susceptances,
    decompose_currents,
    estimate_admittances,
    fryze_split,
    generated_current,
    scattered,
)
from .errors import (
    CircuitError,
    LayoutError,
    PowerAnalysisError,
    SchemaError,
    WaveformError,
)
from .phasor import (
    BasisLayout,
    GeometricPhasor,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)
from .power import (
    POWER_REPORT_SCHEMA,
    CrossTerms,
    GeometricPower,
    PowerReport,
    apparent,
    cross_frequency_terms,
    geometric_power,
    harmonic_pq,
    power_factor,
    power_report,
)
from .waveform import (
    SampledWaveform,
    active_power,
    dft_extract,
    load_csv,
    rms,
    sample_signal,
    thd,
)

__version__ = "0.1.0"
