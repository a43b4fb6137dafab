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
non-zero wherever ``|u||i|`` does.  The cross-frequency terms, which
the CLI renders, are a subset of ``M``'s planes: ``PowerReport`` keeps
``M`` and the mask of its planes off every order's own plane.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Frozen, format_terms, pow2_exponent, read_only
from .errors import LayoutError, PowerAnalysisError
from .phasor import BasisLayout, GeometricPhasor, order_planes

class GeometricPower(Frozen):
    """Product of a voltage and a current phasor (scalar + bivector).

    The bivector is kept as its non-zero planes: row ``n`` of the
    read-only ``(n_planes, 2)`` int array ``blade_indices`` is ``(a, b)``
    with ``a < b``, the rows strictly ascending by ``(a, b)``, and
    ``va[n]`` is the coefficient of the plane ``s_a s_b``.  ``str()``
    prints the sum, e.g. ``10000 - 5000 s12 - 5000 s25 - 5000 s16 +
    5000 s56``: the scalar first, then the planes in ascending blade mask,
    i.e. by ``(b, a)``.  Both arrays are stored by ``algebra.read_only``.
    """

    __slots__ = ("scalar", "blade_indices", "va", "layout")

    def __init__(self, scalar: float, blade_indices, va, layout: BasisLayout):
        dim = layout.dimension
        idx = read_only(blade_indices, np.intp)
        va = read_only(va, np.float64)
        inside = ((idx >= 0) & (idx < dim)).all()
        if va.ndim != 1 or idx.shape != (len(va), 2) or not inside:
            raise LayoutError(f"{idx.shape} blade indices for {va.shape} "
                              f"values do not fit layout dimension {dim}")
        a, b = idx.T
        if (a >= b).any() or (np.diff(a * dim + b) <= 0).any():
            raise PowerAnalysisError(
                "planes must be (a, b) with a < b, strictly ascending"
            )
        self._set(scalar=float(scalar), blade_indices=idx, va=va, layout=layout)

    def __str__(self) -> str:
        a, b = self.blade_indices.T
        by_mask = np.lexsort((a, b))  # sorted by (b, a)
        planes = zip(self.blade_indices[by_mask].tolist(), self.va[by_mask].tolist())
        return format_terms([((), self.scalar), *planes])


def geometric_power(u: GeometricPhasor, i: GeometricPhasor) -> GeometricPower:
    """Apparent power multivector M = u i of two phasors on one layout."""
    u._check_compatible(i)
    # u ^ i has planes only among the slots where u or i is non-zero, so
    # its planes are formed there, over the upper triangle of slot pairs
    # at once; the slots are sorted and the pairs come in row-major order,
    # so the planes ascend
    support = np.flatnonzero((u.coeffs != 0) | (i.coeffs != 0))
    a, b = u.coeffs[support], i.coeffs[support]
    lo, hi = np.triu_indices(len(support), 1)
    va = a[lo] * b[hi] - b[lo] * a[hi]
    kept = va != 0
    lo, hi, va = lo[kept], hi[kept], va[kept]
    planes = np.column_stack([support[lo], support[hi]])
    # frozen, these fresh arrays go into the power uncopied
    planes.flags.writeable = va.flags.writeable = False
    return GeometricPower(u.dot(i), planes, va, u.layout)


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
    return mpower.scalar / s


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


class PowerReport(Frozen):
    """Summary of a geometric power computation: totals, per-order P/Q
    (the ``(orders, p, q)`` arrays of ``harmonic_pq``), the power ``m``
    and the cross-frequency terms as the boolean mask ``cross`` over
    ``m``'s planes: ``m.blade_indices[cross]`` and ``m.va[cross]`` are
    the planes off every order's own plane (``phasor.order_planes``).

    ``pf`` is None when the apparent power is zero.
    """

    __slots__ = ("p_w", "apparent_va", "pf", "per_harmonic", "m", "cross")

    def __init__(self, p_w: float, apparent_va: float, pf: float | None,
                 per_harmonic: tuple[np.ndarray, np.ndarray, np.ndarray],
                 m: GeometricPower, cross: np.ndarray):
        self._set(p_w=p_w, apparent_va=apparent_va, pf=pf,
                  per_harmonic=per_harmonic, m=m, cross=cross)


def power_report(u: GeometricPhasor, i: GeometricPhasor) -> PowerReport:
    """Full report for a voltage/current pair: totals, per-order P/Q and
    cross-frequency terms."""
    m = geometric_power(u, i)
    s = apparent(m)
    pf = m.scalar / s if s > 0.0 else None
    return PowerReport(
        p_w=m.scalar,
        apparent_va=s,
        pf=pf,
        per_harmonic=harmonic_pq(u, i),
        m=m,
        cross=~order_planes(m.blade_indices),
    )
