#!/usr/bin/env python3
"""Walk through the two-harmonic series-RLC example with both capacitor
values and print everything the toolkit computes for it.

The source is u(t) = 100*sqrt(2)*(sin t + sin 3t) V.  With C = 2/3 F the
branch admittance has the same conductance at both harmonics, so the
scattered current vanishes; with C = 2/7 F it does not, and a scattered
component (plus a cross-frequency power term) appears.
"""

from __future__ import annotations

import argparse
import math

from gapower import (
    BasisLayout,
    HarmonicComponent,
    SeriesRLC,
    SpectralSignal,
    admittances_for,
    apparent,
    compensation_susceptances,
    decompose_currents,
    geometric_power,
    harmonic_pq,
    power_factor,
    solve_current,
    to_phasor,
)

F0_HZ = 1.0 / (2.0 * math.pi)  # fundamental with w = 1 rad/s


def run(c_farad: float) -> None:
    source = SpectralSignal(
        F0_HZ,
        harmonics=(HarmonicComponent(1, 100.0), HarmonicComponent(3, 100.0)),
    )
    net = SeriesRLC(r=1.0, l=0.5, c=c_farad)
    u = to_phasor(source, BasisLayout.for_signals(source))
    ys = admittances_for(net, u)
    i = solve_current(u, ys)
    m = geometric_power(u, i)

    print(f"C = {c_farad:.6g} F")
    print(f"  current        i = {i}")
    print(f"  power          M = {m}")
    print(f"  apparent     |M| = {apparent(m):.6g} VA")
    print(f"  power factor     = {power_factor(m):.6g}")
    for pq in harmonic_pq(u, i):
        print(f"  order {pq.order:g}: P = {pq.p:.6g} W, Q = {pq.q:.6g} VAr")

    cc = decompose_currents(u, i, ys)
    for name, value in cc.norms().items():
        print(f"  |{name}| = {value:.6g} A")
    for order, b in zip(*compensation_susceptances(ys)):
        print(f"  compensation at order {order:g}: {b:.6g} S")
    print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capacitance",
        type=float,
        nargs="*",
        default=[2.0 / 3.0, 2.0 / 7.0],
        help="capacitor values to sweep (farads)",
    )
    args = parser.parse_args()
    for c in args.capacitance:
        run(c)
