"""Frequency-domain solver for a series RLC load, one harmonic at a time.

At order k the series branch has reactance ``X_k = k*L*w - 1/(k*C*w)``
(inductive positive, capacitive negative) and the impedance is the
scalar-plus-bivector element ``R + X_k * s_odd s_even`` on the order's
plane.  Ohm's law is a left multiplication: ``i_k = Y_k u_k`` with the
admittance ``G_k + B_k * s_odd s_even`` the spinor inverse of the
impedance (``invert``).  A load is one ``Admittances`` table of (G, B)
arrays over the entries of ``phasor`` (DC, whose B is 0, then the
layout's orders); the plane is always the order's own, and every order is
computed at once.  ``parallel_quadrature`` is the one place where a table
meets a voltage: it gives the product's G and B parts, and
``solve_current(u, admittances_for(net, u))`` is their sum.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Frozen
from .errors import CircuitError, LayoutError, PowerAnalysisError
from .phasor import BasisLayout, GeometricPhasor, entry_slots


class SeriesRLC(Frozen):
    """Series resistor/inductor/capacitor branch.

    ``c`` is None when there is no capacitor (short circuit), because a
    zero capacitance would mean an open circuit instead.
    """

    __slots__ = ("r", "l", "c")

    def __init__(self, r: float = 0.0, l: float = 0.0, c: float | None = None):
        if not (math.isfinite(r) and r >= 0):
            raise CircuitError(f"resistance must be >= 0 ohm, got {r}")
        if not (math.isfinite(l) and l >= 0):
            raise CircuitError(f"inductance must be >= 0 H, got {l}")
        if c is not None and not (math.isfinite(c) and c > 0):
            raise CircuitError(f"capacitance must be > 0 F, got {c}")
        if r == 0 and l == 0 and c is None:
            raise CircuitError("circuit needs at least one of r, l, c")
        self._set(r=r, l=l, c=c)


class Admittances(Frozen):
    """A load's admittance table: the element G + B * (the order's plane)
    for DC and each order of ``layout``, as read-only arrays indexed like
    ``GeometricPhasor.present()``.  ``present`` marks the entries the table
    holds; the others are 0, and so is the DC susceptance (DC has no plane).
    """

    __slots__ = ("layout", "conductance", "susceptance", "present")

    def __init__(self, layout: BasisLayout, conductance, susceptance, present):
        size = 1 + layout.orders().size
        arrays = {"conductance": conductance, "susceptance": susceptance,
                  "present": present}
        for name, given in arrays.items():
            a = np.array(given, bool if name == "present" else float)
            if a.shape != (size,):
                raise LayoutError(
                    f"{name} shape {a.shape} does not match the layout's {size}"
                )
            a.flags.writeable = False
            arrays[name] = a
        if arrays["susceptance"][0] != 0.0:
            raise LayoutError("DC has no plane: its susceptance must be 0")
        self._set(layout=layout, **arrays)

    @classmethod
    def on(cls, u: GeometricPhasor, g_dc, g_k, b_k) -> Admittances:
        """Table over the voltage's present entries: its DC (``g_dc``, 0
        when it has none) and its orders (``g_k``, ``b_k``)."""
        present = u.present()
        g, b = np.zeros((2, len(present)))
        g[0], g[1:][present[1:]], b[1:][present[1:]] = g_dc, g_k, b_k
        return cls(u.layout, g, b, present)


def invert(r, x) -> tuple[np.ndarray, np.ndarray]:
    """Spinor inverse G + B plane of R + X plane, elementwise over arrays:
    G = R/(R^2+X^2) and B = -X/(R^2+X^2), with R and X scaled by a power
    of two so that R^2+X^2 neither overflows nor underflows.  Where
    R = X = 0, G and B are NaN; where the inverse exceeds the float range,
    one of them is infinite.  Neither case warns."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.frexp(np.maximum(abs(r), abs(x)))[1]
        r, x = np.ldexp(r, -e), np.ldexp(x, -e)
        n2 = r * r + x * x
        return np.ldexp(r / n2, -e), np.ldexp(-x / n2, -e)


def admittances_for(net: SeriesRLC, u: GeometricPhasor) -> Admittances:
    """Admittance table of the branch over the voltage's present entries;
    DC requires a resistive path.  Raises ``CircuitError`` naming the first
    order, in layout order, whose admittance has no float value."""
    present = u.present()
    g_dc = 0.0
    if present[0]:
        if net.c is not None:
            raise CircuitError("series capacitor blocks DC excitation")
        if net.r == 0.0:
            raise CircuitError("DC excitation with zero resistance is unbounded")
        g_dc = 1.0 / net.r
    orders = u.layout.orders()[present[1:]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kw = orders * u.omega
        x = net.l * kw
        if net.c is not None:
            x = x - 1.0 / (net.c * kw)
    g_k, b_k = invert(net.r, x)
    beyond = ~np.isfinite(x)
    failed = beyond | ~(np.isfinite(g_k) & np.isfinite(b_k))
    if failed.any():
        k = int(np.argmax(failed))
        order = float(orders[k])
        if beyond[k]:
            raise CircuitError(f"reactance at order {order:g} exceeds the float range")
        if np.isnan(g_k[k]):  # 0/0: R = X = 0
            raise CircuitError(f"zero impedance at order {order} is not invertible")
        raise CircuitError(f"impedance at order {order} is too small to invert")
    return Admittances.on(u, g_dc, g_k, b_k)


def parallel_quadrature(
    u: GeometricPhasor, y: Admittances
) -> tuple[GeometricPhasor, GeometricPhasor]:
    """Admittance-driven split over the voltage's own slots:
    i_p = sum G_k u_k and i_q = sum B_k plane_k u_k.  Entries the voltage
    does not have are not read."""
    if y.layout != u.layout:
        raise LayoutError("admittance table and voltage use different layouts")
    want = u.present()
    missing = np.flatnonzero(want & ~y.present)
    if len(missing):
        k = missing[0]
        what = f"order {float(u.layout.orders()[k - 1])}" if k else "the DC slot"
        raise PowerAnalysisError(f"missing admittance for {what}")
    g, b = np.where(want, (y.conductance, y.susceptance), 0.0)
    # B_k plane_k (a s_odd + c s_even) = B_k c s_odd - B_k a s_even
    odd, even = u.pairs.T * b[1:]
    i_q = u._like_pairs(0.0, np.column_stack((even, -odd)))
    return u._like(entry_slots(g) * u.coeffs), i_q


def solve_current(u: GeometricPhasor, y: Admittances) -> GeometricPhasor:
    """Current i = sum Y_k u_k under voltage ``u`` through the admittance
    table ``y``: the sum i_p + i_q of ``parallel_quadrature``."""
    with np.errstate(over="ignore", invalid="ignore"):
        i_p, i_q = parallel_quadrature(u, y)
        i = i_p + i_q
    if not math.isfinite(np.max(np.abs(i.coeffs))):
        raise CircuitError("current exceeds the float range")
    return i


def compensation_susceptances(y: Admittances) -> tuple[np.ndarray, np.ndarray]:
    """``(orders, siemens)`` over the entries the table holds, DC as order
    0: the susceptance each order's passive compensator must add so that
    the quadrature current vanishes, the negated load susceptance."""
    orders = np.append(0.0, y.layout.orders())[y.present]
    return orders, -y.susceptance[y.present] + 0.0
