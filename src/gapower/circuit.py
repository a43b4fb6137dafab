"""Frequency-domain solver for a series RLC load, one harmonic at a time.

At order k the series branch has reactance ``X_k = k*L*w - 1/(k*C*w)``
(inductive positive, capacitive negative) and the impedance is the
scalar-plus-bivector element ``R + X_k * s_odd s_even`` on the order's
plane.  Ohm's law is a left multiplication: ``i_k = Y_k u_k`` with the
admittance ``G_k + B_k * s_odd s_even`` the spinor inverse of the
impedance (``invert``).  A load is one ``Admittances`` table of per-order
(G, B) arrays on the layout; the plane is always the order's own, and
every order is computed at once.  ``parallel_quadrature`` is the one
place where a table meets a voltage: it gives the product's G and B parts,
and ``solve_current(u, admittances_for(net, u))`` is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CircuitError, LayoutError, PowerAnalysisError
from .phasor import BasisLayout, GeometricPhasor


@dataclass(frozen=True)
class SeriesRLC:
    """Series resistor/inductor/capacitor branch.

    ``c`` is None when there is no capacitor (short circuit), because a
    zero capacitance would mean an open circuit instead.
    """

    r: float = 0.0
    l: float = 0.0
    c: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise CircuitError(f"resistance must be >= 0 ohm, got {self.r}")
        if not (math.isfinite(self.l) and self.l >= 0):
            raise CircuitError(f"inductance must be >= 0 H, got {self.l}")
        if self.c is not None and not (math.isfinite(self.c) and self.c > 0):
            raise CircuitError(f"capacitance must be > 0 F, got {self.c}")
        if self.r == 0 and self.l == 0 and self.c is None:
            raise CircuitError("circuit needs at least one of r, l, c")


@dataclass(frozen=True, eq=False)
class Admittances:
    """A load's admittance table: the element G + B * (the order's plane)
    for DC and each order of ``layout``.

    ``conductance`` has the DC entry followed by one entry per
    ``layout.orders()``; ``susceptance`` has one entry per order, because
    DC has no plane.  ``present`` marks, in the order of ``conductance``,
    the entries the table holds; the others are 0.  The arrays are
    read-only copies.
    """

    layout: BasisLayout
    conductance: np.ndarray
    susceptance: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        n = self.layout.orders().size
        for name, dtype, size in (
            ("conductance", np.float64, 1 + n),
            ("susceptance", np.float64, n),
            ("present", bool, 1 + n),
        ):
            a = np.array(getattr(self, name), dtype=dtype)
            if a.shape != (size,):
                raise LayoutError(
                    f"{name} shape {a.shape} does not match the layout's {size}"
                )
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def on(cls, u: GeometricPhasor, g_dc, g_k, b_k) -> Admittances:
        """Table over the voltage's DC (``g_dc``, 0 when it has none) and
        its occupied orders (``g_k``, ``b_k`` in layout order)."""
        present = _entries(u)
        g, b = np.zeros(len(present)), np.zeros(len(present) - 1)
        g[0] = g_dc
        g[1:][present[1:]], b[present[1:]] = g_k, b_k
        return cls(u.layout, g, b, present)


def _entries(u: GeometricPhasor) -> np.ndarray:
    """Mask over a table's entries (DC, then ``layout.orders()``) of those
    the voltage needs: its DC and its occupied orders."""
    return np.concatenate(([u.has_dc()], u.occupied()))


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
    """Admittance table of the branch over the voltage's DC and occupied
    orders.  A DC entry requires a resistive path.  Raises
    ``CircuitError`` naming the first order, in layout order, whose
    admittance has no float value."""
    g_dc = 0.0
    if u.has_dc():
        if net.c is not None:
            raise CircuitError("series capacitor blocks DC excitation")
        if net.r == 0.0:
            raise CircuitError("DC excitation with zero resistance is unbounded")
        g_dc = 1.0 / net.r
    orders = u.layout.orders()[u.occupied()]
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
    does not need are not read."""
    if y.layout != u.layout:
        raise LayoutError("admittance table and voltage use different layouts")
    want = _entries(u)
    missing = np.flatnonzero(want & ~y.present)
    if len(missing):
        if missing[0] == 0:
            raise PowerAnalysisError("missing admittance for the DC slot")
        order = float(u.layout.orders()[missing[0] - 1])
        raise PowerAnalysisError(f"missing admittance for order {order}")
    g = np.where(want, y.conductance, 0.0)
    b = np.where(want[1:], y.susceptance, 0.0)
    # B_k plane_k (a s_odd + c s_even) = B_k c s_odd - B_k a s_even
    odd, even = u.pairs.T
    iq = np.zeros(u.layout.dimension)
    iq[1::2] = b * even
    iq[2::2] = -(b * odd)
    # the DC conductance once, then each order's on both of its slots
    return u._like(np.repeat(g, 2)[1:] * u.coeffs), u._like(iq)


def solve_current(u: GeometricPhasor, y: Admittances) -> GeometricPhasor:
    """Current i = sum Y_k u_k under voltage ``u`` through the admittance
    table ``y``: the sum i_p + i_q of ``parallel_quadrature``."""
    with np.errstate(over="ignore", invalid="ignore"):
        i_p, i_q = parallel_quadrature(u, y)
        i = i_p + i_q
    if not math.isfinite(np.max(np.abs(i.coeffs))):
        raise CircuitError("current exceeds the float range")
    return i
