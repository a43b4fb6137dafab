#!/usr/bin/env python3
"""Synthesize a sampled voltage/current recording as an analyzer input.

The default spectrum is the bundled 50 Hz benchmark load (a distorted
mains voltage driving a nonlinear load, five odd harmonics each), sampled
at 15625 Hz for 10 periods - the CSV it writes feeds straight into
``gapower analyze --fundamental 50 --orders 9``.
"""

from __future__ import annotations

import argparse

from gapower import SpectralSignal, sample_signal

# (order, rms, phase_rad) of each line
VOLTAGE_ROWS = (
    (1, 233.92, -1.57),
    (3, 0.46, -2.61),
    (5, 4.74, 1.28),
    (7, 4.02, -0.07),
    (9, 0.42, -2.60),
)
CURRENT_ROWS = (
    (1, 2.33, -0.72),
    (3, 0.93, 1.85),
    (5, 0.45, -1.69),
    (7, 0.49, 1.70),
    (9, 0.16, -1.44),
)


def signal(rows, f0: float) -> SpectralSignal:
    orders, rms, phase = zip(*rows)
    return SpectralSignal(f0, orders=orders, rms=rms, phase_rad=phase)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="CSV file to write")
    parser.add_argument("--fundamental", type=float, default=50.0)
    parser.add_argument("--sample-rate", type=float, default=15625.0)
    parser.add_argument("--periods", type=int, default=10)
    args = parser.parse_args()

    n = round(args.periods * args.sample_rate / args.fundamental)
    u = sample_signal(signal(VOLTAGE_ROWS, args.fundamental), args.sample_rate, n)
    i = sample_signal(signal(CURRENT_ROWS, args.fundamental), args.sample_rate, n)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# fs_hz = {args.sample_rate:g}\n")
        for a, b in zip(u.samples, i.samples):
            fh.write(f"{a:.12g},{b:.12g}\n")
    print(f"wrote {n} samples ({n / args.sample_rate:g} s) to {args.out}")


if __name__ == "__main__":
    main()
