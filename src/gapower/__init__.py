"""Geometric-algebra power analysis for non-sinusoidal single-phase systems.

The pipeline: describe a periodic voltage as a ``SpectralSignal`` (or
extract one from samples with ``dft_extract``), map it onto a grade-1
geometric phasor (a dense coefficient vector) with ``to_phasor``, solve or
measure the current, multiply the two phasors into the geometric apparent
power (a scalar plus a bivector block), and split the current into
active/non-active and parallel/quadrature/generated parts.  The sparse
``Multivector`` kernel is the general algebra; ``.mv`` on a phasor or a
power gives its view there.
"""

from .algebra import (
    EQ_TOL,
    PRUNE_EPS,
    Multivector,
    basis,
    blade,
    blade_indices,
    geometric_product,
    grade_of,
    inner_vectors,
    inverse_spinor,
    outer,
    reverse,
)
from .circuit import (
    HarmonicAdmittance,
    HarmonicImpedance,
    SeriesRLC,
    admittance_at,
    admittances_for,
    impedance_at,
    solve_current,
)
from .decompose import (
    CurrentComponents,
    compensation_susceptances,
    decompose_currents,
    estimate_admittances,
    fryze_split,
    generated_current,
    parallel_quadrature,
    scattered,
)
from .errors import (
    CircuitError,
    DimensionMismatch,
    LayoutError,
    NotInvertible,
    PowerAnalysisError,
    SchemaError,
    WaveformError,
)
from .phasor import (
    BasisLayout,
    GeometricPhasor,
    HarmonicComponent,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)
from .power import (
    POWER_REPORT_SCHEMA,
    GeometricPower,
    HarmonicPQ,
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
