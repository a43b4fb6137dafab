"""Frequency-domain solver for a series RLC load, one harmonic at a time.

At order k the series branch has reactance ``X_k = k*L*w - 1/(k*C*w)``
(inductive positive, capacitive negative) and the impedance is the
scalar-plus-bivector element ``R + X_k * s_odd s_even`` on the order's
plane.  Ohm's law is a left multiplication: ``i_k = Y_k u_k`` with the
admittance ``G_k + B_k * s_odd s_even`` the spinor inverse of the
impedance.  Both are stored as per-order pairs, (R, X) and (G, B); the
plane is always the order's own.  ``parallel_quadrature`` is the one
place where a table meets a voltage: it gives the product's G and B parts,
and ``solve_current(u, admittances_for(net, u))`` is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import pow2_exponent
from .errors import CircuitError, PowerAnalysisError
from .phasor import GeometricPhasor


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


@dataclass(frozen=True)
class HarmonicImpedance:
    """Impedance of one order: the element R + X * (the order's plane)."""

    order: float
    resistance: float
    reactance: float


@dataclass(frozen=True)
class HarmonicAdmittance:
    """Admittance of one order: the element G + B * (the order's plane).

    DC is represented with ``order=0``; its susceptance is always zero.
    """

    order: float
    conductance: float
    susceptance: float


def impedance_at(net: SeriesRLC, k: float, omega: float) -> HarmonicImpedance:
    """Series-branch impedance at order ``k`` (a harmonic or an
    interharmonic) and fundamental angular frequency ``omega``."""
    kw = k * omega
    if kw <= 0:
        if net.c is not None:
            raise CircuitError("series capacitor blocks DC excitation")
        raise CircuitError(f"order*omega must be > 0, got {kw}")
    x = net.l * kw
    if net.c is not None:
        ckw = net.c * kw
        x = x - 1.0 / ckw if ckw > 0.0 else -math.inf
    if not math.isfinite(x):
        raise CircuitError(f"reactance at order {k:g} exceeds the float range")
    return HarmonicImpedance(float(k), net.r, x)


def admittance_at(z: HarmonicImpedance) -> HarmonicAdmittance:
    """Spinor inverse of a harmonic impedance: G = R/(R^2+X^2),
    B = -X/(R^2+X^2), with R and X scaled by a power of two so that
    R^2+X^2 neither overflows nor underflows."""
    e = pow2_exponent((z.resistance, z.reactance))
    r, x = math.ldexp(z.resistance, -e), math.ldexp(z.reactance, -e)
    n2 = r * r + x * x
    if n2 == 0.0:
        raise CircuitError(f"zero impedance at order {z.order} is not invertible")
    try:
        g, b = math.ldexp(r / n2, -e), math.ldexp(-x / n2, -e)
    except OverflowError:
        raise CircuitError(
            f"impedance at order {z.order} is too small to invert"
        ) from None
    return HarmonicAdmittance(z.order, g, b)


def admittances_for(net: SeriesRLC, u: GeometricPhasor) -> list[HarmonicAdmittance]:
    """Admittance table covering every slot the voltage occupies.

    Includes a DC entry (order 0, zero susceptance) when the voltage has a
    DC component, which requires a resistive path.
    """
    out = []
    if u.has_dc():
        if net.c is not None:
            raise CircuitError("series capacitor blocks DC excitation")
        if net.r == 0.0:
            raise CircuitError("DC excitation with zero resistance is unbounded")
        out.append(HarmonicAdmittance(0.0, 1.0 / net.r, 0.0))
    for order in u.occupied_orders():
        out.append(admittance_at(impedance_at(net, order, u.omega)))
    return out


def parallel_quadrature(
    u: GeometricPhasor, y: list[HarmonicAdmittance]
) -> tuple[GeometricPhasor, GeometricPhasor]:
    """Admittance-driven split over the voltage's own slots:
    i_p = sum G_k u_k and i_q = sum B_k plane_k u_k."""
    layout = u.layout
    by_order = {float(adm.order): adm for adm in y}
    g = np.zeros(layout.dimension)  # conductance per slot
    b = np.zeros(len(layout.orders()))  # susceptance per order
    if u.has_dc():
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
        g[[lo, hi]] = adm.conductance
        b[lo // 2] = adm.susceptance
    # B_k plane_k (a s_odd + c s_even) = B_k c s_odd - B_k a s_even
    odd, even = u.pairs.T
    iq = np.zeros(layout.dimension)
    iq[1::2] = b * even
    iq[2::2] = -(b * odd)
    return u._like(g * u.coeffs), u._like(iq)


def solve_current(u: GeometricPhasor, y: list[HarmonicAdmittance]) -> GeometricPhasor:
    """Current i = sum Y_k u_k under voltage ``u`` through the admittance
    table ``y``: the sum i_p + i_q of ``parallel_quadrature``."""
    with np.errstate(over="ignore", invalid="ignore"):
        i_p, i_q = parallel_quadrature(u, y)
        i = i_p + i_q
    if not math.isfinite(np.max(np.abs(i.coeffs))):
        raise CircuitError("current exceeds the float range")
    return i
