"""Geometric apparent power and its scalar/bivector anatomy.

The product of voltage and current phasors splits into a scalar part (the
active power) and a bivector part.  In-plane bivector coefficients are the
per-harmonic reactive powers; bivectors straddling two frequencies are
cross-frequency terms with no classical counterpart, reported verbatim.

Both phasors are grade 1, so ``M = u i = u.i + u^i`` and nothing else:
``GeometricPower`` stores the scalar ``u.i`` and the non-zero planes of
``u ^ i`` as ``(blade_indices, va)`` arrays, exact as computed; a noisy
recording fills nearly all ``dim (dim - 1) / 2`` planes.  ``|M|`` is
summed on values scaled by a power of two, so it stays finite and
non-zero wherever ``|u||i|`` does.  ``PowerReport`` keeps the
cross-frequency terms, which the CLI renders, as a power with scalar 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import format_terms, pow2_exponent
from .errors import LayoutError, PowerAnalysisError
from .phasor import BasisLayout, GeometricPhasor, order_planes

# Shape of the JSON report emitted for a voltage/current pair.
POWER_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["p_w", "apparent_va", "pf", "per_harmonic", "cross_terms"],
    "additionalProperties": False,
    "properties": {
        "p_w": {"type": "number"},
        "apparent_va": {"type": "number", "minimum": 0},
        "pf": {"type": ["number", "null"], "minimum": -1, "maximum": 1},
        "per_harmonic": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["order", "p_w", "q_var"],
                "additionalProperties": False,
                "properties": {
                    "order": {"type": "number", "exclusiveMinimum": 0},
                    "p_w": {"type": "number"},
                    "q_var": {"type": "number"},
                },
            },
        },
        "cross_terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["blade_indices", "va"],
                "additionalProperties": False,
                "properties": {
                    "blade_indices": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "va": {"type": "number"},
                },
            },
        },
    },
}


@dataclass(frozen=True, eq=False)
class GeometricPower:
    """Product of a voltage and a current phasor (scalar + bivector).

    The bivector is kept as its non-zero planes: row ``n`` of the
    read-only ``(n_planes, 2)`` int array ``blade_indices`` is ``(a, b)``
    with ``a < b``, the rows strictly ascending by ``(a, b)``, and
    ``va[n]`` is the coefficient of the plane ``s_a s_b``.  ``str()``
    prints the sum, e.g. ``10000 - 5000 s12 - 5000 s25 - 5000 s16 +
    5000 s56``: the scalar first, then the planes in ascending blade mask,
    i.e. by ``(b, a)``.
    """

    scalar: float
    blade_indices: np.ndarray
    va: np.ndarray
    layout: BasisLayout

    def __post_init__(self):
        dim = self.layout.dimension
        idx = np.array(self.blade_indices, dtype=np.intp)
        va = np.array(self.va, dtype=np.float64)
        inside = ((idx >= 0) & (idx < dim)).all()
        if va.ndim != 1 or idx.shape != (len(va), 2) or not inside:
            raise LayoutError(f"{idx.shape} blade indices for {va.shape} "
                              f"values do not fit layout dimension {dim}")
        a, b = idx.T
        if (a >= b).any() or (np.diff(a * dim + b) <= 0).any():
            raise PowerAnalysisError(
                "planes must be (a, b) with a < b, strictly ascending"
            )
        idx.flags.writeable = va.flags.writeable = False
        object.__setattr__(self, "blade_indices", idx)
        object.__setattr__(self, "va", va)
        object.__setattr__(self, "scalar", float(self.scalar))

    def __str__(self) -> str:
        a, b = self.blade_indices.T
        by_mask = np.lexsort((a, b))  # sorted by (b, a)
        planes = zip(self.blade_indices[by_mask].tolist(), self.va[by_mask].tolist())
        return format_terms([((), self.scalar), *planes])

    @property
    def active(self) -> float:
        """Total active power, the scalar part."""
        return self.scalar


def geometric_power(u: GeometricPhasor, i: GeometricPhasor) -> GeometricPower:
    """Apparent power multivector M = u i of two phasors on one layout."""
    u._check_compatible(i)
    # u ^ i has planes only among the slots where u or i is non-zero, so
    # the block is formed there; they are sorted, so its planes ascend
    support = np.flatnonzero((u.coeffs != 0) | (i.coeffs != 0))
    a, b = u.coeffs[support], i.coeffs[support]
    block = np.triu(np.outer(a, b) - np.outer(b, a), 1)
    lo, hi = np.nonzero(block)
    planes = np.column_stack([support[lo], support[hi]])
    return GeometricPower(u.dot(i), planes, block[lo, hi], u.layout)


def apparent(mpower: GeometricPower) -> float:
    """Apparent power: the multivector norm, equal to ||u|| * ||i||."""
    e = pow2_exponent(np.append(mpower.va, mpower.scalar))
    s, va = math.ldexp(mpower.scalar, -e), np.ldexp(mpower.va, -e)
    # einsum sums in its own loop, so the bits do not depend on how many
    # threads BLAS (which np.vdot would call) runs with
    squares = float(np.einsum("i,i->", va, va))
    return float(np.ldexp(math.sqrt(s * s + squares), e))


def power_factor(mpower: GeometricPower) -> float:
    """Active power over apparent power."""
    s = apparent(mpower)
    if s == 0.0:
        raise PowerAnalysisError("power factor undefined at zero apparent power")
    return mpower.active / s


def harmonic_pq(
    u: GeometricPhasor, i: GeometricPhasor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-order P and Q as ``(orders, p, q)`` arrays over every order
    occupied by either phasor, sorted by frequency.

    With slot pairs (a, b) = (odd, even) the order-k entry is
    ``p = a_u a_i + b_u b_i`` and ``q = a_u b_i - b_u a_i``: q is the
    coefficient the wedge u_k ^ i_k puts on the order's plane, positive
    for a lagging (inductive) current.
    """
    u._check_compatible(i)
    occupied = (u.present() | i.present())[1:]
    (au, bu), (ai, bi) = u.pairs[occupied].T, i.pairs[occupied].T
    orders = u.layout.orders()[occupied]
    by_frequency = np.argsort(orders)
    p, q = au * ai + bu * bi, au * bi - bu * ai
    return orders[by_frequency], p[by_frequency], q[by_frequency]


@dataclass(frozen=True, eq=False)
class PowerReport:
    """Summary of a geometric power computation: totals, per-order P/Q
    (the ``(orders, p, q)`` arrays of ``harmonic_pq``) and the
    cross-frequency terms.

    ``pf`` is None when the apparent power is zero.
    """

    p_w: float
    apparent_va: float
    pf: float | None
    per_harmonic: tuple[np.ndarray, np.ndarray, np.ndarray]
    cross_terms: GeometricPower


def cross_frequency_terms(mpower: GeometricPower) -> GeometricPower:
    """The planes of ``mpower`` that do not lie in any single order's
    plane (``phasor.order_planes``), with scalar 0."""
    cross = ~order_planes(mpower.blade_indices)
    return GeometricPower(
        0.0, mpower.blade_indices[cross], mpower.va[cross], mpower.layout
    )


def power_report(u: GeometricPhasor, i: GeometricPhasor) -> PowerReport:
    """Full report for a voltage/current pair: totals, per-order P/Q and
    cross-frequency terms."""
    m = geometric_power(u, i)
    s = apparent(m)
    pf = m.active / s if s > 0.0 else None
    return PowerReport(
        p_w=m.active,
        apparent_va=s,
        pf=pf,
        per_harmonic=harmonic_pq(u, i),
        cross_terms=cross_frequency_terms(m),
    )
