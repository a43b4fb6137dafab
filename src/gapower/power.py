"""Geometric apparent power and its scalar/bivector anatomy.

The product of voltage and current phasors splits into a scalar part (the
active power) and a bivector part.  In-plane bivector coefficients are the
per-harmonic reactive powers; bivectors straddling two frequencies are
cross-frequency terms with no classical counterpart, reported verbatim.

Both phasors are grade 1, so ``M = u i = u.i + u^i`` and nothing else:
``GeometricPower`` stores the scalar ``u.i`` and the strict upper triangle
of ``u (x) i - i (x) u`` as a dense ``(dim, dim)`` block, computed without
the sparse blade kernel (``.mv`` builds that view on demand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, blade_indices, prune
from .errors import LayoutError, PowerAnalysisError
from .phasor import BasisLayout, GeometricPhasor

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

    ``bivector`` is a read-only, strictly upper-triangular ``(dim, dim)``
    float64 block: entry ``[a, b]`` (``a < b``) is the coefficient of the
    plane ``s_a s_b``.  The scalar and the block entries below
    ``PRUNE_EPS`` in magnitude are stored as exact zeros.
    """

    scalar: float
    bivector: np.ndarray
    layout: BasisLayout

    def __post_init__(self):
        dim = self.layout.dimension
        block = prune(np.asarray(self.bivector, dtype=np.float64))
        if block.shape != (dim, dim):
            raise LayoutError(
                f"bivector block shape {block.shape} does not match "
                f"layout dimension {dim}"
            )
        if np.tril(block).any():
            raise PowerAnalysisError(
                "bivector block must be strictly upper triangular"
            )
        block.flags.writeable = False
        object.__setattr__(self, "bivector", block)
        object.__setattr__(self, "scalar", float(prune(np.float64(self.scalar))))

    @classmethod
    def from_mv(cls, mv: Multivector, layout: BasisLayout) -> "GeometricPower":
        """Power of a scalar-plus-bivector ``Multivector`` of the layout's
        dimension."""
        if not mv.grades() <= {0, 2}:
            raise PowerAnalysisError(
                "geometric power must hold scalar and bivector grades only"
            )
        if mv.dim != layout.dimension:
            raise LayoutError(
                f"multivector dimension {mv.dim} does not match "
                f"layout dimension {layout.dimension}"
            )
        block = np.zeros((mv.dim, mv.dim))
        for mask, c in mv.terms.items():
            if mask:
                block[blade_indices(mask)] = c
        return cls(mv.scalar_part, block, layout)

    @property
    def mv(self) -> Multivector:
        """Sparse kernel view of the power."""
        lo, hi = np.nonzero(self.bivector)
        terms = {
            (1 << a) | (1 << b): c
            for a, b, c in zip(lo.tolist(), hi.tolist(),
                               self.bivector[lo, hi].tolist())
        }
        terms[0] = self.scalar
        return Multivector(self.layout.dimension, terms)

    @property
    def active(self) -> float:
        """Total active power, the scalar part."""
        return self.scalar


@dataclass(frozen=True)
class HarmonicPQ:
    """Classical P and signed Q of one order."""

    order: float
    p: float
    q: float


def geometric_power(u: GeometricPhasor, i: GeometricPhasor) -> GeometricPower:
    """Apparent power multivector M = u i of two phasors on one layout."""
    u._check_compatible(i)
    a, b = u.coeffs, i.coeffs
    return GeometricPower(
        u.dot(i), np.triu(np.outer(a, b) - np.outer(b, a), 1), u.layout
    )


def apparent(mpower: GeometricPower) -> float:
    """Apparent power: the multivector norm, equal to ||u|| * ||i||."""
    block = mpower.bivector
    return math.sqrt(mpower.scalar * mpower.scalar + float(np.vdot(block, block)))


def power_factor(mpower: GeometricPower) -> float:
    """Active power over apparent power."""
    s = apparent(mpower)
    if s == 0.0:
        raise PowerAnalysisError("power factor undefined at zero apparent power")
    return mpower.active / s


def harmonic_pq(u: GeometricPhasor, i: GeometricPhasor) -> list[HarmonicPQ]:
    """Per-order P and Q for every order occupied by either phasor.

    With slot pairs (a, b) = (odd, even) the order-k entry is
    ``p = a_u a_i + b_u b_i`` and ``q = a_u b_i - b_u a_i``: q is the
    coefficient the wedge u_k ^ i_k puts on the order's plane, positive
    for a lagging (inductive) current.
    """
    u._check_compatible(i)
    (au, bu), (ai, bi) = u.pairs.T, i.pairs.T
    p = (au * ai + bu * bi).tolist()
    q = (au * bi - bu * ai).tolist()
    orders = u.layout.orders()
    occupied = np.flatnonzero(u.occupied() | i.occupied()).tolist()
    return [
        HarmonicPQ(orders[k], p[k], q[k])
        for k in sorted(occupied, key=orders.__getitem__)
    ]


@dataclass(frozen=True)
class PowerReport:
    """Flat, JSON-ready summary of a geometric power computation.

    ``pf`` is None when the apparent power is zero.
    """

    p_w: float
    apparent_va: float
    pf: float | None
    per_harmonic: tuple[HarmonicPQ, ...]
    cross_terms: tuple[tuple[tuple[int, int], float], ...]

    def to_dict(self) -> dict:
        return {
            "p_w": self.p_w,
            "apparent_va": self.apparent_va,
            "pf": self.pf,
            "per_harmonic": [
                {"order": pq.order, "p_w": pq.p, "q_var": pq.q}
                for pq in self.per_harmonic
            ],
            "cross_terms": [
                {"blade_indices": list(idx), "va": va}
                for idx, va in self.cross_terms
            ],
        }


def cross_frequency_terms(
    mpower: GeometricPower,
) -> tuple[tuple[tuple[int, int], float], ...]:
    """Bivector terms that do not lie in any single order's plane, as
    ``((a, b), coeff)`` with ``a < b``, sorted by ``(a, b)``.

    The order planes are exactly the slot pairs ``(2m - 1, 2m)``.
    """
    block = mpower.bivector
    lo, hi = np.nonzero(block)  # row-major, hence already sorted
    cross = (lo % 2 == 0) | (hi != lo + 1)
    lo, hi = lo[cross], hi[cross]
    return tuple(
        zip(zip(lo.tolist(), hi.tolist()), block[lo, hi].tolist())
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
        per_harmonic=tuple(harmonic_pq(u, i)),
        cross_terms=cross_frequency_terms(m),
    )
