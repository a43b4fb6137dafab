"""Output gate: classical complex-phasor reference values and the check of
a CLI output against them.

Nothing here imports ``gapower``.  An analyzed recording is reduced with
``np.fft.rfft`` to complex rms phasors per order, and a solved circuit
with ``I_k = U_k / Z_k``; every number the CLI prints is then compared at
the 6 significant digits it is printed with.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Extraction drops a line whose amplitude is below this share of the
# window's rms; the reference applies the same documented rule.
FLOOR_REL = 1e-12


def _tolerance(ref: float, scale: float, total: float) -> float:
    """Half a unit in the 6th significant digit of ``ref`` (the rounding
    the CLI applies), plus float slack relative to the quantity's own
    scale and to the whole result's scale."""
    ulp6 = 10.0 ** (math.floor(math.log10(abs(ref))) - 5) if ref else 0.0
    return 0.51 * ulp6 + 1e-9 * scale + 1e-12 * total


def _mismatch(what: str, got: float, ref: float, scale: float, total: float):
    if abs(got - ref) <= _tolerance(ref, scale, total):
        return None
    return f"{what}: output {got!r}, reference {ref!r}"


# -- reference values --------------------------------------------------

def _lines(z: np.ndarray, n: int, m: int, orders: int, floor: float):
    """Complex rms phasors of orders 1..orders kept above the floor, and
    the DC level.  All share one 90-degree rotation, which U I* cancels."""
    lines = {}
    for k in range(1, orders + 1):
        c = z[k * m] * math.sqrt(2.0) / n
        if abs(c) >= floor and c != 0:
            lines[k] = complex(c)
    dc = float(z[0].real) / n
    return lines, (dc if abs(dc) >= floor else 0.0)


def analyze(u: np.ndarray, i: np.ndarray, fs_hz: float, f0_hz: float,
            orders: int) -> dict:
    """P, apparent power and per-order P/Q of a coherent recording."""
    n = u.size
    m = round(n * f0_hz / fs_hz)
    u_lines, u_dc = _lines(np.fft.rfft(u), n, m, orders,
                           FLOOR_REL * math.sqrt(np.mean(u * u)))
    i_lines, i_dc = _lines(np.fft.rfft(i), n, m, orders,
                           FLOOR_REL * math.sqrt(np.mean(i * i)))
    per_order = []
    for k in sorted(set(u_lines) | set(i_lines)):
        uk, ik = u_lines.get(k, 0j), i_lines.get(k, 0j)
        s = uk * ik.conjugate()
        per_order.append([k, s.real, s.imag, abs(uk) * abs(ik)])
    u_norm = math.sqrt(u_dc**2 + sum(abs(c) ** 2 for c in u_lines.values()))
    i_norm = math.sqrt(i_dc**2 + sum(abs(c) ** 2 for c in i_lines.values()))
    return {
        "p_w": u_dc * i_dc + sum(row[1] for row in per_order),
        "apparent_va": u_norm * i_norm,
        "per_order": per_order,
    }


def solve(circuit: dict, rows, f0_hz: float, top_order: int) -> dict:
    """Per-slot branch current I_k = U_k / Z_k of a series RLC.

    Slot layout: index 2k-1 carries Im(I_k), index 2k carries Re(I_k).
    """
    w = 2.0 * math.pi * f0_hz
    r, l, c = circuit["r_ohm"], circuit["l_henry"], circuit["c_farad"]
    slots = [0.0] * (2 * top_order + 1)
    scales = [0.0] * len(slots)
    for k, rms, phase in rows:
        z = complex(r, k * w * l - 1.0 / (k * w * c))
        ik = rms * complex(math.cos(phase), math.sin(phase)) / z
        slots[2 * k - 1], slots[2 * k] = ik.imag, ik.real
        scales[2 * k - 1] = scales[2 * k] = abs(ik)
    return {
        "i": slots,
        "i_scale": scales,
        "i_norm": math.sqrt(sum(v * v for v in slots)),
    }


# -- the gate ----------------------------------------------------------

def _table_sections(text: str) -> dict[str, list[list[str]]]:
    """Titled tables of the CLI's table format: title, header, rows."""
    out = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        out[lines[0]] = [ln.split() for ln in lines[1:]]
    return out


def _power_from_table(text: str):
    sections = _table_sections(text)
    summary = sections["Power summary"]
    totals = dict(zip(summary[0], summary[1]))
    rows = sections["Per-harmonic P/Q"]
    if rows[0] != ["order", "p_w", "q_var"]:
        raise ValueError(f"unexpected P/Q header {rows[0]}")
    per_order = [[float(c) for c in row] for row in rows[1:]]
    return float(totals["p_w"]), float(totals["apparent_va"]), per_order


def _power_from_json(text: str):
    power = json.loads(text)["power"]
    per_order = [[h["order"], h["p_w"], h["q_var"]] for h in power["per_harmonic"]]
    return power["p_w"], power["apparent_va"], per_order


def _check_analyze(expected: dict, fmt: str, text: str) -> str | None:
    parse = _power_from_json if fmt == "json" else _power_from_table
    p_w, apparent_va, per_order = parse(text)
    total = expected["apparent_va"]
    ref_orders = [row[0] for row in expected["per_order"]]
    got_orders = [row[0] for row in per_order]
    if got_orders != ref_orders:
        return f"orders: output {got_orders}, reference {ref_orders}"
    checks = [
        ("p_w", p_w, expected["p_w"], total),
        ("apparent_va", apparent_va, expected["apparent_va"], total),
    ]
    for (k, p, q), (_, ref_p, ref_q, scale) in zip(per_order, expected["per_order"]):
        checks.append((f"order {k} p_w", p, ref_p, scale))
        checks.append((f"order {k} q_var", q, ref_q, scale))
    for what, got, ref, scale in checks:
        bad = _mismatch(what, got, ref, scale, total)
        if bad:
            return bad
    return None


def _check_solve(expected: dict, text: str) -> str | None:
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index("i")
    body, norm = rows[1:-1], rows[-1]
    slots, scales = expected["i"], expected["i_scale"]
    if [r[0] for r in body] != [str(k) for k in range(len(slots))] or norm[0] != "norm":
        return f"rows: expected indices 0..{len(slots) - 1} and a norm row"
    total = expected["i_norm"]
    for row, ref, scale in zip(body, slots, scales):
        bad = _mismatch(f"slot {row[0]} i", float(row[col]), ref, scale, total)
        if bad:
            return bad
    return _mismatch("norm i", float(norm[col]), total, total, total)


def check(command: str, fmt: str, expected: dict, text: str) -> str | None:
    """None when ``text`` matches the reference, else what is wrong."""
    try:
        if command == "analyze":
            return _check_analyze(expected, fmt, text)
        return _check_solve(expected, text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unparseable output: {exc!r}"
