"""Frequency-domain solver for a series RLC load, one harmonic at a time.

At order k the series branch has reactance ``X_k = k*L*w - 1/(k*C*w)``
(inductive positive, capacitive negative) and the impedance is the
scalar-plus-bivector element ``R + X_k * s_odd s_even`` on the order's
plane.  Ohm's law is a left multiplication: ``i_k = Y_k u_k`` with the
admittance ``G_k + B_k * s_odd s_even`` the spinor inverse of the
impedance.  Both are stored as per-order pairs, (R, X) and (G, B); the
plane is always the order's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CircuitError
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
        x -= 1.0 / (net.c * kw)
    return HarmonicImpedance(float(k), net.r, x)


def admittance_at(z: HarmonicImpedance) -> HarmonicAdmittance:
    """Spinor inverse of a harmonic impedance: G = R/(R^2+X^2),
    B = -X/(R^2+X^2)."""
    n2 = z.resistance**2 + z.reactance**2
    if n2 == 0.0:
        raise CircuitError(f"zero impedance at order {z.order} is not invertible")
    return HarmonicAdmittance(z.order, z.resistance / n2, -z.reactance / n2)


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


def solve_current(u: GeometricPhasor, net: SeriesRLC) -> GeometricPhasor:
    """Steady-state current drawn by ``net`` under voltage ``u``,
    solved per occupied slot as i_k = Y_k u_k."""
    layout = u.layout
    g = np.zeros(len(layout.orders()))
    b = np.zeros_like(g)
    dc = 0.0
    for y in admittances_for(net, u):
        if y.order == 0.0:
            dc = y.conductance * u.dc
        else:
            k = layout.slot_pair(y.order)[0] // 2
            g[k], b[k] = y.conductance, y.susceptance
    # (G + B plane)(a s_odd + c s_even) = (G a + B c) s_odd + (G c - B a) s_even
    odd, even = u.pairs.T
    coeffs = np.empty(layout.dimension)
    coeffs[0] = dc
    coeffs[1::2] = g * odd + b * even
    coeffs[2::2] = g * even - b * odd
    return u._like(coeffs)

