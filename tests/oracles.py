"""Independent reference implementations the tests compare against.

Everything here is deliberately naive and shares no code with the package:
blade products are done by explicit index-list concatenation and
bubble-sort sign counting, circuit and power quantities by classical
complex phasor arithmetic, the recording CSV by plain string
splitting, DFT bins by a full-length FFT, and printed numbers one value
at a time.
"""

from __future__ import annotations

import cmath
import json

import numpy as np


def blade_product_brute(idx_a: tuple[int, ...], idx_b: tuple[int, ...]):
    """(sign, sorted index tuple) of a product of two orthonormal blades."""
    seq = list(idx_a) + list(idx_b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    factors = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            i += 2  # equal neighbours square to +1
        else:
            factors.append(seq[i])
            i += 1
    return sign, tuple(factors)


def mv_product_brute(a: dict[tuple[int, ...], float], b) -> dict:
    """Geometric product on index-tuple term maps."""
    out: dict[tuple[int, ...], float] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, idx = blade_product_brute(ia, ib)
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0.0}


def reverse_brute(a: dict[tuple[int, ...], float]) -> dict:
    """Reversion by re-sorting each blade's reversed factor list."""
    out = {}
    for idx, c in a.items():
        sign, sorted_idx = blade_product_brute(tuple(reversed(idx)), ())
        assert sorted_idx == idx
        out[idx] = sign * c
    return out


# -- classical phasor arithmetic ---------------------------------------
# A component sqrt(2)*X*sin(k w t + p) is the complex rms phasor
# X*e^{jp}; its geometric slot pair is (odd, even) = (Im, Re).


def phasor_complex(rms: float, phase: float) -> complex:
    return rms * cmath.exp(1j * phase)


def pair_from_complex(z: complex) -> tuple[float, float]:
    return z.imag, z.real


def impedance_complex(r: float, l: float, c, k: float, omega: float) -> complex:
    x = k * l * omega
    if c is not None:
        x -= 1.0 / (k * c * omega)
    return complex(r, x)


def branch_current_complex(
    u_rms: float, u_phase: float, r: float, l: float, c, k: float, omega: float
) -> complex:
    return phasor_complex(u_rms, u_phase) / impedance_complex(r, l, c, k, omega)


def pq_complex(
    u_rms: float, u_phase: float, i_rms: float, i_phase: float
) -> tuple[float, float]:
    """Classical per-harmonic (P, Q) = U I* with Q positive for lagging
    current."""
    s = phasor_complex(u_rms, u_phase) * phasor_complex(i_rms, i_phase).conjugate()
    return s.real, s.imag


# -- recording CSV --------------------------------------------------------


def parse_rows_brute(text: str) -> tuple[float, list[float], list[float]]:
    """(rate, u, i) of a recording: the first non-blank line is the
    ``# fs_hz=<rate>`` header, later blank and ``#`` lines are skipped and
    every other line is ``u,i``."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    rate = float(lines[0].split("=", 1)[1])
    u, i = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        a, b = line.split(",")
        u.append(float(a.strip()))
        i.append(float(b.strip()))
    return rate, u, i


# -- DFT bins -------------------------------------------------------------


def dft_bins_brute(x, bins) -> np.ndarray:
    """Bins ``bins`` of the real DFT of the whole window ``x``."""
    return np.fft.rfft(np.asarray(x, dtype=float))[list(bins)]


# -- printed numbers ------------------------------------------------------


def fmt6_brute(x: float) -> str:
    """Table and CSV text of one number: ``%.6g``, with "-0" printed as
    "0"."""
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


def json6_brute(x: float) -> str:
    """JSON text of one number: ``json.dumps`` of the float its 6-digit
    text parses back to, with -0.0 as 0.0."""
    v = float(fmt6_brute(x))
    return json.dumps(0.0 if v == 0 else v)
