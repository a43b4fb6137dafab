"""Splitting a load current into physically meaningful parts.

Two orthogonal splits of the same current:

* ``i = i_a + i_N``: the minimum-norm current carrying the full active
  power, plus everything else.
* ``i = i_p + i_q + i_G``: conductance-driven, susceptance-driven and
  voltage-free-frequency parts, computed from an ``Admittances`` table of
  (G, B) arrays over DC and the orders (estimated from the signals
  themselves for measured data).

The scattered current ``i_s = i_p - i_a`` links the two splits.

Values are stored exactly.  The relative zero rule of ``algebra`` applies
twice: DC or an order takes part only where the voltage has it
(``GeometricPhasor.present``), and ``i_N`` and ``i_s`` slots that are
zero against ``||i||`` and ``||i_p||`` are stored as 0, so a current
proportional to the voltage has no non-active or scattered part.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Frozen, negligible, pow2_exponent
from .circuit import Admittances, parallel_quadrature
from .errors import PowerAnalysisError
from .phasor import GeometricPhasor, entry_slots

CSV_COLUMNS = ("i_p", "i_a", "i_s", "i_q", "i_N", "i")


class CurrentComponents(Frozen):
    """All decomposition products of one voltage/current pair."""

    __slots__ = ("i_a", "i_N", "i_p", "i_q", "i_s", "i_G", "total")

    def __init__(self, i_a: GeometricPhasor, i_N: GeometricPhasor,
                 i_p: GeometricPhasor, i_q: GeometricPhasor, i_s: GeometricPhasor,
                 i_G: GeometricPhasor, total: GeometricPhasor):
        self._set(i_a=i_a, i_N=i_N, i_p=i_p, i_q=i_q, i_s=i_s, i_G=i_G, total=total)

    def norms(self) -> dict[str, float]:
        """Component rms values keyed by the CSV column names: the norm
        row of ``table_rows``."""
        return dict(zip(CSV_COLUMNS, self.table_rows()[-1].tolist()))

    def table_rows(self) -> np.ndarray:
        """``(dim + 1, 6)`` array: one row per basis index with the
        CSV_COLUMNS coefficients, closed by a row of their norms."""
        comps = (self.i_p, self.i_a, self.i_s, self.i_q, self.i_N, self.total)
        return np.vstack(
            [np.column_stack([c.coeffs for c in comps]), [c.norm() for c in comps]]
        )


def fryze_split(
    u: GeometricPhasor, i: GeometricPhasor
) -> tuple[GeometricPhasor, GeometricPhasor]:
    """Active/non-active split: i_a = (P/||u||^2) u and i_N = i - i_a.

    i_a is the smallest current that still delivers the pair's active
    power; it is collinear with the voltage, so i_N is orthogonal to it.
    Entries of i_N that are zero against ||i|| are stored as 0.
    """
    u._check_compatible(i)
    e = pow2_exponent(u.coeffs)
    scaled = u._like(np.ldexp(u.coeffs, -e))  # keeps ||u||^2 in range
    n2 = scaled.dot(scaled)
    if n2 == 0.0:
        raise PowerAnalysisError("cannot split against a zero voltage")
    # the ratio is P/||u||^2 times 2**e; P/||u||^2 itself overflows for a
    # tiny u against a large i, so it is applied to the scaled u
    i_a = (scaled.dot(i) / n2) * scaled
    return i_a, _difference(i, i_a)


def _difference(a: GeometricPhasor, b: GeometricPhasor) -> GeometricPhasor:
    """a - b, with entries that are zero against ||a|| (roundoff of the
    subtraction) stored as 0."""
    d = (a - b).coeffs
    return a._like(np.where(negligible(d, a.norm()), 0.0, d))


def scattered(i_p: GeometricPhasor, i_a: GeometricPhasor) -> GeometricPhasor:
    """i_s = i_p - i_a; vanishes when every order sees the same
    conductance (entries zero against ||i_p|| are stored as 0)."""
    return _difference(i_p, i_a)


def generated_current(u: GeometricPhasor, i: GeometricPhasor) -> GeometricPhasor:
    """Part of the current at frequencies the voltage does not contain.

    An order counts as present in the voltage if either of its two slots
    is, and DC if its slot is (``GeometricPhasor.present``)."""
    u._check_compatible(i)
    return u._like(np.where(entry_slots(~u.present()), i.coeffs, 0.0))


def estimate_admittances(u: GeometricPhasor, i: GeometricPhasor) -> Admittances:
    """Per-order admittance Y_k = i_k u_k^{-1} seen from measured signals.

    Only the voltage's present entries are filled; current on other
    planes belongs to generated_current.  G comes from the in-plane
    dot product, B from the (negated) in-plane wedge, each over ||u_k||^2.
    Raises ``PowerAnalysisError`` naming the first entry (DC, then the
    orders in layout order) whose admittance exceeds the float range.
    """
    u._check_compatible(i)
    present = u.present()
    (au, bu), (ai, bi) = u.pairs[present[1:]].T, i.pairs[present[1:]].T
    # u_k / 2**e, exact per order, keeps ||u_k||^2 in range
    e = np.frexp(np.maximum(abs(au), abs(bu)))[1]
    au, bu = np.ldexp(au, -e), np.ldexp(bu, -e)
    n2 = au * au + bu * bu
    g_dc = i.dc / u.dc if present[0] else 0.0
    if not math.isfinite(g_dc):
        raise PowerAnalysisError("conductance at DC exceeds the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        g_k = np.ldexp((au * ai + bu * bi) / n2, -e)
        b_k = np.ldexp(-(au * bi - bu * ai) / n2, -e)
    failed = ~(np.isfinite(g_k) & np.isfinite(b_k))
    if failed.any():
        order = float(u.layout.orders()[present[1:]][np.argmax(failed)])
        raise PowerAnalysisError(f"admittance at order {order} exceeds the float range")
    return Admittances.on(u, g_dc, g_k, b_k)


def decompose_currents(
    u: GeometricPhasor,
    i: GeometricPhasor,
    y: Admittances | None = None,
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
