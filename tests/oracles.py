"""Independent reference implementations the tests compare against.

Everything here is deliberately naive and shares no code with the package:
blade products are done by explicit index-list concatenation and
bubble-sort sign counting, circuit and power quantities by classical
complex phasor arithmetic, THD by a plain loop, the recording CSV by
plain string splitting, DFT bins by a full-length FFT, sample means on
the whole arrays, the block fold on all columns at once, printed numbers
and blade sums one value at a time, and text tables and CSV one row at a
time.
"""

from __future__ import annotations

import cmath
import json
import math

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


def wedge_planes_brute(u: list[float], i: list[float]):
    """The non-zero planes of the wedge ``u ^ i`` of two coefficient
    lists, one slot pair at a time in row-major order: ``([(a, b), ...],
    [u[a] i[b] - i[a] u[b], ...])`` over every ``a < b``."""
    planes, va = [], []
    for a in range(len(u)):
        for b in range(a + 1, len(u)):
            c = u[a] * i[b] - i[a] * u[b]
            if c != 0.0:
                planes.append((a, b))
                va.append(c)
    return planes, va


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


def thd_brute(harmonic_rms: list[float]) -> float:
    """THD of harmonic rms values listed from the fundamental up: the
    squares above the fundamental added one at a time in a Python loop."""
    rest = 0.0
    for v in harmonic_rms[1:]:
        rest = rest + v * v
    return math.sqrt(rest) / harmonic_rms[0]


# -- presence of entries ---------------------------------------------------


def present_brute(coeffs: list[float], zero_rel: float) -> list[bool]:
    """For DC and then each (odd, even) slot pair in turn: whether one of
    its coefficients exceeds ``zero_rel`` times the Euclidean norm of all
    of them, the norm taken by ``math.hypot``."""
    limit = zero_rel * math.hypot(*coeffs)
    present = [abs(coeffs[0]) > limit]
    for k in range(1, len(coeffs), 2):
        present.append(abs(coeffs[k]) > limit or abs(coeffs[k + 1]) > limit)
    return present


# -- recording CSV --------------------------------------------------------


def parse_rows_brute(text: str) -> tuple[float, list[float], list[float]]:
    """(rate, u, i) of a recording: the first non-blank line is the
    ``# fs_hz=<rate>`` header; after it every line is cut at its first
    ``#``, lines left blank are skipped and every other line is ``u,i``."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    rate = float(lines[0].split("=", 1)[1])
    u, i = [], []
    for line in lines[1:]:
        line = line.split("#", 1)[0]
        if not line:
            continue
        a, b = line.split(",")
        u.append(float(a.strip()))
        i.append(float(b.strip()))
    return rate, u, i


# -- DFT bins -------------------------------------------------------------


def dft_bins_brute(x, bins) -> np.ndarray:
    """Bins ``bins`` of the real DFT of the whole window ``x``."""
    return np.fft.rfft(np.asarray(x, dtype=float))[list(bins)]


# -- sample means and the block fold ---------------------------------------


def mean_square_brute(x) -> float:
    """Mean of the squares of the whole array ``x``, squared in one go."""
    x = np.asarray(x, dtype=float)
    return float(np.mean(x * x))


def mean_product_brute(u, i) -> float:
    """Mean of the products of the whole arrays ``u`` and ``i``."""
    return float(np.mean(np.asarray(u, dtype=float) * np.asarray(i, dtype=float)))


def fold_brute(x, g: int) -> np.ndarray:
    """The ``g`` equal blocks of ``x`` added level by level over all
    columns at once: each level adds its first half to its second, and
    an odd block out is added to the level's first row."""
    blocks = np.asarray(x, dtype=float).reshape(g, -1)
    while blocks.shape[0] > 1:
        half = blocks.shape[0] // 2
        level = blocks[:half] + blocks[half : 2 * half]
        if blocks.shape[0] > 2 * half:
            level[0] = level[0] + blocks[2 * half]
        blocks = level
    return blocks[0].copy()


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


def terms_text_brute(terms: dict[tuple[int, ...], float]) -> str:
    """A term map as ``str()`` prints it: by ascending blade mask
    ``sum(1 << k)``, each term its ``%g`` magnitude and blade label
    (``s12``, or ``s(1,10)`` once an index passes 9), joined by its sign;
    an empty map prints ``0``."""
    text = ""
    for idx in sorted(terms, key=lambda idx: sum(1 << k for k in idx)):
        c = terms[idx]
        body = f"{abs(c):g}"
        if idx and max(idx) <= 9:
            body += " s" + "".join(str(k) for k in idx)
        elif idx:
            body += " s(" + ",".join(str(k) for k in idx) + ")"
        sign = "-" if c < 0 else "+"
        if not text:
            text = body if sign == "+" else "-" + body
        else:
            text += f" {sign} {body}"
    return text or "0"


# -- text layouts ---------------------------------------------------------


def table_brute(title: str, header: list[str], columns: list[list[str]]) -> str:
    """An aligned text table: the title, then per row two spaces and the
    cells padded to their column's widest cell and joined by two spaces,
    with trailing spaces cut."""
    rows = [header] + [[col[m] for col in columns] for m in range(len(columns[0]))]
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [title]
    for r in rows:
        line = "  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths))
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def csv_brute(header: list[str], rows: list[list[str]]) -> str:
    """CSV text: the header and each row, cells joined by commas."""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


# -- analyze, end to end --------------------------------------------------


def ulp6(x: float) -> float:
    """A unit in the 6th significant digit of ``x`` (0 for 0)."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 5) if x else 0.0


def close6(got: float, ref: float, scale: float, total: float) -> bool:
    """Whether ``got``, printed at 6 significant digits, matches ``ref``:
    within half a unit in the 6th digit of ``ref``, plus float slack of
    1e-9 of the quantity's own scale and 1e-12 of the whole result's scale
    (the rule of the benchmark's output gate)."""
    return abs(got - ref) <= 0.51 * ulp6(ref) + 1e-9 * scale + 1e-12 * total


def analyze_brute(u, i, fs_hz: float, f0_hz: float, orders: int,
                  interharmonic: float) -> dict:
    """What ``analyze --format json`` reports for a coherent recording,
    from the complex rms phasors of the full-window ``np.fft.rfft``.

    A line, or DC, of at most 1e-12 of its window's rms is dropped.  Per
    entry k (DC as order 0, then orders 1..``orders``, then the
    interharmonic) the admittance is Y_k = I_k / U_k where the voltage has
    the entry: i_p holds G_k U_k and i_q holds j B_k U_k, and the
    compensator adds -B_k.  Returns ``p_w``, ``apparent_va``, ``pf``,
    ``per_order`` rows ``(order, p, q, |U||I|)`` by frequency over the
    orders either side has, ``norms`` of ``i_a``, ``i_N``, ``i_p``,
    ``i_q`` and ``i``, and ``compensation`` rows ``(order, siemens,
    scale)``, where ``(||i|| + |Y| ||u||) / |U|`` scales the error that
    errors of the size of ``||u||`` and ``||i||`` in U and I cause in Y."""
    n = len(u)
    m = round(n * f0_hz / fs_hz)
    line_orders = [float(k) for k in range(1, orders + 1)] + [interharmonic]

    def lines(x) -> dict[float, complex]:
        x = np.asarray(x, dtype=float)
        z = np.fft.rfft(x)
        floor = 1e-12 * math.sqrt(np.mean(x * x))
        out = {0.0: complex(z[0].real / n)}
        for k in line_orders:
            out[k] = complex(z[round(k * m)]) * math.sqrt(2.0) / n
        return {k: (c if abs(c) > floor else 0j) for k, c in out.items()}

    def norm(v) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in v.values()))

    U, I = lines(u), lines(i)
    p = sum((U[k] * I[k].conjugate()).real for k in U)
    s = norm(U) * norm(I)
    lam = p / norm(U) ** 2
    per_order = []
    for k in sorted(line_orders):
        if U[k] or I[k]:
            w = U[k] * I[k].conjugate()
            per_order.append((k, w.real, w.imag, abs(U[k]) * abs(I[k])))
    held = [k for k in U if U[k]]
    y = {k: I[k] / U[k] for k in held}
    return {
        "p_w": p,
        "apparent_va": s,
        "pf": p / s,
        "per_order": per_order,
        "norms": {
            "i_a": abs(lam) * norm(U),
            "i_N": norm({k: I[k] - lam * U[k] for k in U}),
            "i_p": norm({k: y[k].real * abs(U[k]) for k in held}),
            "i_q": norm({k: y[k].imag * abs(U[k]) for k in held}),
            "i": norm(I),
        },
        "compensation": [
            (k, -y[k].imag, (norm(I) + abs(y[k]) * norm(U)) / abs(U[k]))
            for k in held
        ],
    }


# -- solve, end to end ----------------------------------------------------


def solve_brute(r: float, l: float, c, f0_hz: float, dc: float,
                lines: dict[int, tuple[float, float]]) -> dict:
    """What ``solve --format json`` reports for a series RLC branch under
    a source of DC level ``dc`` and harmonic ``lines`` ``{order: (rms,
    phase)}``, from complex rms phasors: U_k = rms e^{j phase}, Y_k =
    1 / Z_k with ``impedance_complex`` and I_k = Y_k U_k; DC, order 0,
    sees Y_0 = 1/R.

    i_a is (P / ||U||^2) U, i_p holds G_k U_k, i_q holds j B_k U_k, and
    the compensator adds -B_k.  Returns ``p_w``, ``apparent_va`` and
    ``pf`` with their ``scale``, ``per_order`` rows ``(order, p, q,
    scale)`` by order, ``norms`` of i_p, i_a, i_s, i_q, i_N and i with
    their ``norm_scale``, and ``compensation`` rows ``(order, siemens,
    scale)``, DC first.  A scale is the quantity's size times the largest
    (R + |X_L| + |X_C|) / |Z_k| it depends on: the factor by which a
    rounding of the reactance's two terms grows in Y_k."""
    omega = 2.0 * math.pi * f0_hz
    U, Y, grow = {}, {}, {}
    if dc:
        U[0], Y[0], grow[0] = complex(dc), complex(1.0 / r), 1.0
    for k, (rms, phase) in sorted(lines.items()):
        z = impedance_complex(r, l, c, k, omega)
        terms = r + k * l * omega + (0.0 if c is None else 1.0 / (k * c * omega))
        U[k], Y[k], grow[k] = phasor_complex(rms, phase), 1.0 / z, terms / abs(z)
    I = {k: Y[k] * U[k] for k in U}

    def norm(v) -> float:
        return math.sqrt(sum(abs(x) ** 2 for x in v))

    p = sum((U[k] * I[k].conjugate()).real for k in U)
    s = norm(U.values()) * norm(I.values())
    lam = p / norm(U.values()) ** 2
    worst = max(grow.values())
    per_order = []
    for k in sorted(lines):
        w = U[k] * I[k].conjugate()
        per_order.append((k, w.real, w.imag, abs(w) * grow[k]))
    return {
        "p_w": p,
        "apparent_va": s,
        "pf": p / s,
        "scale": s * worst,
        "per_order": per_order,
        "norms": {
            "i_p": norm(Y[k].real * U[k] for k in U),
            "i_a": abs(lam) * norm(U.values()),
            "i_s": norm((Y[k].real - lam) * U[k] for k in U),
            "i_q": norm(Y[k].imag * U[k] for k in U),
            "i_N": norm(I[k] - lam * U[k] for k in U),
            "i": norm(I.values()),
        },
        "norm_scale": norm(I.values()) * worst,
        "compensation": [(k, -Y[k].imag, abs(Y[k]) * grow[k]) for k in U],
    }


# -- decompose, end to end ------------------------------------------------


def decompose_brute(u_dc: float, u_lines: dict[float, tuple[float, float]],
                    i_dc: float, i_lines: dict[float, tuple[float, float]]) -> dict:
    """What ``decompose --format json`` reports for a voltage and a
    current of DC level ``u_dc`` / ``i_dc`` and lines ``{order: (rms,
    phase)}``, from complex rms phasors U_k = rms e^{j phase} (DC real).

    The basis is DC, then per harmonic 1..n (n the highest integer order
    of either side) and per interharmonic, ascending, a pair of slots
    holding the imaginary and then the real part.  i_a is (P / ||U||^2) U
    and i_N = I - i_a; where the voltage has an entry, Y_k = I_k / U_k,
    i_p holds G_k U_k, i_q holds j B_k U_k and the compensator adds -B_k;
    i_s = i_p - i_a.  Returns ``norms`` of i_p, i_a, i_s, i_q, i_N and i,
    ``rows``, per slot those components' coefficients, ``compensation``
    rows ``(order, siemens, |Y_k|)``, DC first, and ``scale``, ||i||."""
    U = {0.0: complex(u_dc), **{k: phasor_complex(*v) for k, v in u_lines.items()}}
    I = {0.0: complex(i_dc), **{k: phasor_complex(*v) for k, v in i_lines.items()}}
    harmonics = [k for k in {*U, *I} if k.is_integer()]
    entries = [float(k) for k in range(int(max(harmonics)) + 1)]
    entries += sorted(k for k in {*U, *I} if not k.is_integer())
    U = {k: U.get(k, 0j) for k in entries}
    I = {k: I.get(k, 0j) for k in entries}

    def norm(v) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in v.values()))

    lam = sum((U[k] * I[k].conjugate()).real for k in entries) / norm(U) ** 2
    Y = {k: I[k] / U[k] for k in entries if U[k]}
    parts = {
        "i_p": {k: Y[k].real * U[k] if k in Y else 0j for k in entries},
        "i_a": {k: lam * U[k] for k in entries},
        "i_q": {k: 1j * Y[k].imag * U[k] if k in Y else 0j for k in entries},
        "i_N": {k: I[k] - lam * U[k] for k in entries},
        "i": I,
    }
    parts["i_s"] = {k: parts["i_p"][k] - parts["i_a"][k] for k in entries}
    names = ("i_p", "i_a", "i_s", "i_q", "i_N", "i")
    rows = [[parts[n][0.0].real for n in names]]
    for k in entries[1:]:
        rows.append([parts[n][k].imag for n in names])
        rows.append([parts[n][k].real for n in names])
    return {
        "norms": {n: norm(parts[n]) for n in names},
        "rows": rows,
        "compensation": [(k, -Y[k].imag, abs(Y[k])) for k in entries if k in Y],
        "scale": norm(I),
    }
