"""Splitting a load current into physically meaningful parts.

Two orthogonal splits of the same current:

* ``i = i_a + i_N``: the minimum-norm current carrying the full active
  power, plus everything else.
* ``i = i_p + i_q + i_G``: conductance-driven, susceptance-driven and
  voltage-free-frequency parts, computed from a per-order admittance table
  (estimated from the signals themselves for measured data).

The scattered current ``i_s = i_p - i_a`` links the two splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import prune
from .circuit import HarmonicAdmittance
from .errors import PowerAnalysisError
from .phasor import GeometricPhasor

CSV_COLUMNS = ("i_p", "i_a", "i_s", "i_q", "i_N", "i")


@dataclass(frozen=True)
class CurrentComponents:
    """All decomposition products of one voltage/current pair."""

    i_a: GeometricPhasor
    i_N: GeometricPhasor
    i_p: GeometricPhasor
    i_q: GeometricPhasor
    i_s: GeometricPhasor
    i_G: GeometricPhasor
    total: GeometricPhasor

    def norms(self) -> dict[str, float]:
        """Component rms values keyed by the CSV column names."""
        return {
            "i_p": self.i_p.norm(),
            "i_a": self.i_a.norm(),
            "i_s": self.i_s.norm(),
            "i_q": self.i_q.norm(),
            "i_N": self.i_N.norm(),
            "i": self.total.norm(),
        }

    def table_rows(self) -> list[list]:
        """One row per basis index with the CSV_COLUMNS coefficients,
        closed by a row of norms."""
        comps = (self.i_p, self.i_a, self.i_s, self.i_q, self.i_N, self.total)
        columns = np.column_stack([c.coeffs for c in comps]).tolist()
        rows: list[list] = [[index] + row for index, row in enumerate(columns)]
        rows.append(["norm"] + [c.norm() for c in comps])
        return rows


def fryze_split(
    u: GeometricPhasor, i: GeometricPhasor
) -> tuple[GeometricPhasor, GeometricPhasor]:
    """Active/non-active split: i_a = (P/||u||^2) u and i_N = i - i_a.

    i_a is the smallest current that still delivers the pair's active
    power; it is collinear with the voltage, so i_N is orthogonal to it.
    """
    u._check_compatible(i)
    n2 = u.dot(u)
    if n2 == 0.0:
        raise PowerAnalysisError("cannot split against a zero voltage")
    i_a = (u.dot(i) / n2) * u
    return i_a, i - i_a


def parallel_quadrature(
    u: GeometricPhasor, y: list[HarmonicAdmittance]
) -> tuple[GeometricPhasor, GeometricPhasor]:
    """Admittance-driven split over the voltage's own slots:
    i_p = sum G_k u_k and i_q = sum B_k plane_k u_k."""
    layout = u.layout
    by_order = {float(adm.order): adm for adm in y}
    g = np.zeros(layout.dimension)  # conductance per slot
    b = np.zeros(len(layout.orders()))  # susceptance per order
    if u.dc != 0.0:
        adm = by_order.get(0.0)
        if adm is None:
            raise PowerAnalysisError("missing admittance for the DC slot")
        if adm.susceptance != 0.0:
            raise PowerAnalysisError("DC admittance cannot have susceptance")
        g[0] = adm.conductance
    for order in u.occupied_orders():
        adm = by_order.get(float(order))
        if adm is None:
            raise PowerAnalysisError(f"missing admittance for order {order}")
        lo, hi = layout.slot_pair(order)
        if adm.plane not in (0, layout.plane_mask(order)):
            raise PowerAnalysisError(
                f"admittance for order {order} references a foreign plane"
            )
        g[[lo, hi]] = adm.conductance
        b[lo // 2] = adm.susceptance
    # B_k plane_k (a s_odd + c s_even) = B_k c s_odd - B_k a s_even; the
    # element B_k plane_k carries the construction cut like any multivector
    b = prune(b)
    odd, even = u.pairs.T
    iq = np.zeros(layout.dimension)
    iq[1::2] = b * even
    iq[2::2] = -(b * odd)
    return u._like(g * u.coeffs), u._like(iq)


def scattered(i_p: GeometricPhasor, i_a: GeometricPhasor) -> GeometricPhasor:
    """i_s = i_p - i_a; vanishes when every order sees the same
    conductance."""
    return i_p - i_a


def generated_current(u: GeometricPhasor, i: GeometricPhasor) -> GeometricPhasor:
    """Part of the current at frequencies the voltage does not contain.

    A plane counts as present in the voltage if either of its two slot
    coefficients is non-zero; the DC slot counts when u.dc is non-zero.
    """
    u._check_compatible(i)
    free = ~u.occupied()[:, None]
    coeffs = np.concatenate(
        ([i.dc if u.dc == 0.0 else 0.0], np.where(free, i.pairs, 0.0).ravel())
    )
    return u._like(coeffs)


def compensation_susceptances(
    y: list[HarmonicAdmittance],
) -> list[tuple[float, float]]:
    """Susceptance each order's passive compensator must add so that the
    quadrature current vanishes (the negated load susceptance)."""
    return [(adm.order, -adm.susceptance + 0.0) for adm in y]


def estimate_admittances(
    u: GeometricPhasor, i: GeometricPhasor
) -> list[HarmonicAdmittance]:
    """Per-order admittance Y_k = i_k u_k^{-1} seen from measured signals.

    Only orders the voltage occupies get an entry; current on other planes
    belongs to generated_current.  G comes from the in-plane dot product,
    B from the (negated) in-plane wedge, each over ||u_k||^2.
    """
    u._check_compatible(i)
    out = []
    if u.dc != 0.0:
        out.append(HarmonicAdmittance(0.0, i.dc / u.dc, 0.0, 0))
    layout = u.layout
    orders = layout.orders()
    occupied = np.flatnonzero(u.occupied())
    (au, bu), (ai, bi) = u.pairs[occupied].T, i.pairs[occupied].T
    n2 = au * au + bu * bu
    g = ((au * ai + bu * bi) / n2).tolist()
    b = (-(au * bi - bu * ai) / n2).tolist()
    for k, gk, bk in zip(occupied.tolist(), g, b):
        order = orders[k]
        out.append(HarmonicAdmittance(order, gk, bk, layout.plane_mask(order)))
    return out


def decompose_currents(
    u: GeometricPhasor,
    i: GeometricPhasor,
    y: list[HarmonicAdmittance] | None = None,
) -> CurrentComponents:
    """Run every split at once.

    ``y`` defaults to admittances estimated from the pair itself, which is
    the right table for measured data; pass the circuit's own table when
    one exists.
    """
    i_a, i_n = fryze_split(u, i)
    if y is None:
        y = estimate_admittances(u, i)
    i_p, i_q = parallel_quadrature(u, y)
    return CurrentComponents(
        i_a=i_a,
        i_N=i_n,
        i_p=i_p,
        i_q=i_q,
        i_s=scattered(i_p, i_a),
        i_G=generated_current(u, i),
        total=i,
    )
