"""Command-line front end.

Three subcommands cover the pipeline: ``solve`` (circuit JSON + source
spectrum JSON), ``analyze`` (sampled CSV recording) and ``decompose``
(voltage + current spectrum JSON).  Output goes to stdout or ``--out`` as
a table, JSON document or the decomposition CSV; only what the chosen
format prints is computed.

Every number is printed with 6 significant digits, so identical inputs
give identical bytes.  Numbers are rendered from arrays: a long float
array by a numpy kernel that writes the bytes of ``%.6g``, a short one
by one ``%`` template.  A JSON number is its ``%.6g`` text, respelled
only where a mask cannot rule out a form JSON writes differently (see
the number-formatting comments).  ``_rows`` lays out every block of rows
from constant pieces and text columns.  A table is laid out whole, as
its column widths need every row; the decomposition CSV and every JSON
array of records (such as the cross-frequency terms) are formatted, laid
out and joined ``_RECORDS_PER_CHUNK`` rows at a time.  ``json.dumps``
only writes keys, strings and the few irregular values.

A command returns its outputs as ``(path, chunks)`` pairs (None is
stdout), the chunks a lazy iterator for ``writelines``: the JSON report,
the decomposition CSV and ``--timeseries`` (``_ROWS_PER_CALL`` rows at a
time) are formatted chunk by chunk as they are written, so none of them
is ever held whole, as text or encoded.  Everything but the
formatting, opening every output file too, runs before the first write;
if a write fails, the files this call created are removed.

The first ``main`` call in a process moves every object alive at that
point, mostly the ~21,000 that numpy, argparse, json and this package
create at import, into the collector's permanent generation with one
``gc.freeze()``.  They live until exit anyway; frozen, the interpreter's
shutdown collections, and any later full collection, skip them instead
of walking them.  This happens once per process, behind an O(1)
guard: a freeze per call would keep each call's own garbage, the
parser's reference cycles, alive for good, and reading
``gc.get_freeze_count()`` walks the permanent generation.  Importing the
module freezes nothing.  An in-process caller should know that the
objects it holds at its first ``main()`` are never examined by the
collector again.

Exit codes: 0 success, 1 computation error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from .algebra import Frozen
from .circuit import (
    SeriesRLC,
    admittances_for,
    compensation_susceptances,
    solve_current,
)
from .decompose import (
    CSV_COLUMNS,
    CurrentComponents,
    decompose_currents,
    estimate_admittances,
)
from .errors import LayoutError, PowerAnalysisError, SchemaError, WaveformError
from .phasor import (
    BasisLayout,
    SpectralSignal,
    from_phasor,
    reconstruct,
    to_phasor,
)
from .power import PowerReport, power_report
from .waveform import active_power, dft_extract, load_csv, rms, thd

FORMATS = ("table", "json", "csv")


# -- number formatting ------------------------------------------------
# One rule for every number, applied to whole arrays: ``%.6g`` of the
# value plus 0.0, which turns -0.0 (the only source of "-0") into 0.0.
# JSON prints the repr of the float that text parses back to.  That repr
# is the text itself except in four forms, each told by the text: an
# integral fixed value ("100") gains ".0"; exponents e+06 to e+15 are
# spelled out (1.23457e+08 is 123457000.0); from e-308 down lie the
# subnormals, whose precision falls below 6 digits, so repr may be
# shorter (4.94066e-324 is 5e-324); and nan, inf and -inf take json's
# spellings.  Only values a mask cannot rule out are checked: a finite
# 1e-300 <= |x| < 99999 that lies more than 1e-5*|x| from every integer
# prints either fixed with a "." (6 digits cannot round it to an
# integer) or with an exponent from e-05 to e-300, and both are repr.

# Arrays of ``_KERNEL_CUT`` values or more are formatted by a numpy kernel
# that writes the bytes of ``%.6g`` itself, ``_PASS`` values at a time.
# The 6 digits are rint(|x| 10^(5-e)), e the decimal exponent floor(log10
# |x|); the scaled value errs by under 1e-9, so only a value within 1e-6
# of a rounding tie is left undecided.  One step corrects e: 6 digits that
# round up to 1000000 are 100000 at e + 1.  That step also covers log10's
# own rounding, which can put e one off only within 1e-12 of a power of
# 10, where the digits round to 100000 at either e.  Each value's text
# and the separator after it fill a 16-byte slot (two little-endian uint64
# words) that has NUL bytes as holes, and one select drops them.  The
# values the kernel leaves to ``%``: those undecided ones, zeros, nan, inf
# and |x| outside [1e-290, 1e290]; their texts are spliced into their
# slots.  A shorter array goes through ``%`` whole: the kernel's fixed
# numpy cost exceeds what it saves there.  The kernel's tables are built
# on its first call.

_ROWS_PER_CALL = 1 << 16  # rows per written chunk of the --timeseries CSV
# Records per formatted chunk of a JSON record block, and rows per chunk of
# the decomposition CSV.  On analyze --orders 100 --format json (20,100
# cross terms; 2-vCPU guest, Python 3.11, numpy 2.4) 2**10 peaked 1.3 MB
# lower than 2**12 but cost the warm call 2.7 ms, as every chunk pays the
# kernel's fixed numpy cost again; 2**13 peaked 1.8 MB higher at the same
# time, and 2**14 4.7 MB higher.
_RECORDS_PER_CHUNK = 1 << 12
_KERNEL_CUT = 512  # fewer values than this are formatted by one ``%`` call
_PASS = 1 << 14  # values per kernel pass: of 2**12..2**15, the lowest peak RSS
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_REPR_EXPONENTS = frozenset(
    ["e+%02d" % k for k in range(6, 16)] + ["e-%d" % k for k in range(308, 325)]
)
_U = np.uint64


@cache
def _digit_words():
    """Over k = 0..999, as uint64 words: the 3 ASCII digits of k, the first
    in the low byte, and the mask of its bytes up to the last non-zero
    digit; each as the high 3 of 6 digits and, shifted, as the low 3."""
    k = np.arange(1000, dtype=_U)
    ten, zero = _U(10), _U(ord("0"))
    digits = (
        (k // _U(100) + zero)
        | (k // ten % ten + zero) << _U(8)
        | (k % ten + zero) << _U(16)
    )
    kept = (
        (k != _U(0)) * _U(0xFF)
        | (k % _U(100) != _U(0)) * _U(0xFF00)
        | (k % ten != _U(0)) * _U(0xFF0000)
    )
    # a non-zero low half keeps every high digit
    low_kept = (k != _U(0)) * _U(0xFFFFFF) | kept << _U(24)
    return np.stack([digits, digits << _U(24)]), np.stack([kept, low_kept])


@cache
def _exponent_words():
    """Per decimal exponent e = -300..300, at index e + 300: 10^(5-e),
    which scales |x| to 6 digits before the point; the bits of the digits
    before the point (8 per digit) and their byte mask; the "0.0..." that
    leads a fixed text below 1, and the mask that puts all 6 digits after
    it; and the exponent text ("e+06")."""
    e = np.arange(-300, 301)
    digits = _digit_words()[0][0]
    fixed, below_one = (e >= 0) & (e <= 5), (e >= -4) & (e < 0)
    point = np.where(fixed, e + 1, np.where(below_one, 6, 1)).astype(_U) * _U(8)
    whole = np.where(below_one, _U(0), (_U(1) << point) - _U(1))
    lead = np.zeros(len(e), dtype=_U)
    lead[below_one] = [int.from_bytes(b"0.000"[:n], "little") for n in (5, 4, 3, 2)]
    exponent = ~(fixed | below_one) * (
        _U(ord("e"))
        | np.where(e < 0, _U(ord("-")), _U(ord("+"))) << _U(8)
        | digits[abs(e)] >> np.where(abs(e) < 100, _U(8), _U(0)) << _U(16)
    )
    return 10.0 ** (5 - e), point, whole, lead, below_one * ~_U(0), exponent


def _slots(x, seps):
    """The 16-byte slots, one row per value, of the 2-D float array ``x``:
    each value's ``%.6g`` text and then its column's word of ``seps``, NUL
    bytes as holes; and a flat mask of the values the kernel leaves to
    ``%``."""
    digits, kept = _digit_words()
    scale, points, whole, lead, tail, exponent = _exponent_words()
    ax = np.abs(x)
    odd = ~((ax >= 1e-290) & (ax <= 1e290))
    ax[odd] = 1.0
    e = (np.log10(ax) + 300.0).astype(np.intp)  # the index of the exponent
    s = ax * scale[e]
    r = np.rint(s)
    odd |= np.abs(s - r) > 0.5 - 1e-6
    carry = r >= 1e6
    if carry.any():
        e += carry
        r[carry] = 1e5
    d = r.astype(np.intp)
    hi = d // 1000
    lo = d - 1000 * hi
    full = digits[0][hi] | digits[1][lo]
    cut = full & (kept[0][hi] | kept[1][lo])  # trailing zeros as NUL
    point = points[e]
    fraction = cut >> point
    # the point goes in where a fraction follows: every digit byte is above "."
    head = (
        full & whole[e]
        | (fraction << _U(8) | np.minimum(fraction, _U(ord(".")))) << point
        | lead[e]
    )
    words = np.empty(x.shape + (2,), dtype="<u8")
    words[..., 0] = (x < 0) * _U(ord("-")) | head << _U(8)
    words[..., 1] = cut & tail[e] | exponent[e] | seps
    return words.view(np.uint8).reshape(-1), odd.ravel()


def _g6_rows(a, row: str) -> str:
    """``row % r`` for every row ``r`` of the 2-D float array ``a``,
    concatenated; ``row`` is one ``%.6g`` per column, each followed by a
    separator of at most 2 ASCII characters other than "%" and NUL."""
    a = np.asarray(a, dtype=np.float64) + 0.0
    if a.size < _KERNEL_CUT:
        return row * len(a) % tuple(a.ravel().tolist())
    seps = [s.encode().rjust(8, b"\0") for s in row.split("%.6g")[1:]]
    words = np.frombuffer(b"".join(seps), dtype="<u8")
    step = max(1, _PASS // a.shape[1])
    texts = []
    for k in range(0, len(a), step):
        x = a[k:k + step]
        slots, odd = _slots(x, words)
        if odd.any():
            v = x.ravel()[odd].tolist()
            text = ("%14.6g" * len(v) % tuple(v)).replace(" ", "\0").encode()
            slots.reshape(-1, 16)[odd, :14] = np.frombuffer(text, np.uint8).reshape(-1, 14)
        texts.append(slots.compress(slots != 0).tobytes())
    return b"".join(texts).decode()


def _g6(values) -> list[str]:
    """6-significant-digit text of every element of a float array."""
    return _g6_rows(np.reshape(values, (-1, 1)), "%.6g\n").split("\n")[:-1]


def _json6(values) -> list[str]:
    """JSON number text of every element of a float array."""
    a = np.ravel(values)
    texts = _g6(a)
    # |x| capped at the cut, an integer, where nan and inf land too; every
    # finite |x| >= 50000 lies within 1e-5*|x| of an integer anyway
    x = np.fmin(np.abs(a), 99999.0)
    unsure = (x < 1e-300) | (abs(x - np.rint(x)) <= 1e-5 * x)
    for k in np.flatnonzero(unsure).tolist():
        t = texts[k]
        if "." not in t or t[-4:] in _REPR_EXPONENTS or t[-5:] in _REPR_EXPONENTS:
            texts[k] = _json_misfit(t)
    return texts


def _json_misfit(text: str) -> str:
    """JSON text of a ``%.6g`` text in one of the forms JSON spells
    differently."""
    if "e" in text:
        return repr(float(text))
    return _JSON_NONFINITE.get(text) or text + ".0"


def _ints(values) -> list[str]:
    """Decimal text of every entry of a 1-D array of non-negative ints,
    looked up in one table over the range of its values."""
    lo = int(values.min())
    text = list(map(str, range(lo, int(values.max()) + 1)))
    return list(map(text.__getitem__, (values - lo).tolist()))


def _orders(orders, six) -> list[str]:
    """Integer orders print as integers, the others through ``six``."""
    return [
        str(int(o)) if float(o).is_integer() else t
        for o, t in zip(orders, six(orders))
    ]


def _rows(pieces: list[str], columns: list[list[str]]) -> list[str]:
    """The cells of the rows ``pieces[0] col0[m] pieces[1] ... col_{k-1}[m]
    pieces[k]``, m = 0, 1, ..., as one flat list to join: the one way a
    block of rows is laid out."""
    k, n = len(columns), len(columns[0])
    cells = [pieces[0]] * ((2 * k + 1) * n)
    for j, col in enumerate(columns):
        cells[2 * j + 1::2 * k + 1] = col
        cells[2 * j + 2::2 * k + 1] = [pieces[j + 1]] * n
    return cells


def _table(title: str, header: list[str], columns: list[list[str]]) -> str:
    """An aligned text table of the given text columns.  A row that ends
    in empty cells loses its trailing spaces."""
    columns = [[h, *col] for h, col in zip(header, columns)]
    widths = [max(map(len, col)) for col in columns[:-1]]  # the last is unpadded
    padded = [[c.ljust(w) for c in col] for col, w in zip(columns, widths)]
    text = "".join(_rows(["  "] * len(columns) + ["\n"], [*padded, columns[-1]]))
    return "\n".join([title, *map(str.rstrip, text.split("\n"))])


def _spaced(tables: list[str]) -> list[str]:
    """Text chunks of ``tables`` with a blank line between each two."""
    return [c for t in tables for c in ("\n", t)][1:]


# A value slot of a JSON record template.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)


class _Records(Frozen):
    """A JSON array of objects shaped like ``proto``.  The ``_SLOT``
    values of ``proto`` take, in order, the entries of ``columns``: one
    ``(values, text)`` pair per slot, ``values`` an array with one entry
    per record and ``text`` the function that gives the JSON text of every
    entry of a slice of it."""

    __slots__ = ("proto", "columns")

    def __init__(self, proto: dict, columns: tuple[tuple, ...]):
        self._set(proto=proto, columns=columns)


def _record_block(block: _Records, pad: str):
    """Text chunks of the JSON text of ``block``, ``_RECORDS_PER_CHUNK``
    records each: its rows, whose k+1 pieces are the proto's text cut at
    its k slots, indented and closed by a comma but for the last."""
    n, step = len(block.columns[0][0]), _RECORDS_PER_CHUNK
    if not n:
        yield "[]"
        return
    inner = pad + "  "
    first, *middle, last = "".join(_json(block.proto, inner)).split(_SLOT_TEXT)
    pieces = [inner + first, *middle, last + ",\n"]
    yield "[\n"
    for k in range(0, n, step):
        cells = _rows(pieces, [text(values[k:k + step]) for values, text in block.columns])
        if k + step >= n:
            cells[-1] = f"{last}\n{pad}]"
        yield "".join(cells)


def _json(obj, pad: str = ""):
    """Text chunks of ``obj`` laid out as ``json.dumps(obj, indent=2)``
    lays it out, with every float at 6 significant digits, as a lazy
    iterator: a ``_Records`` block is formatted a chunk at a time."""
    if isinstance(obj, _Records):
        yield from _record_block(obj, pad)
    elif isinstance(obj, float):
        yield from _json6([obj])
    elif not obj or not isinstance(obj, (dict, list)):
        yield json.dumps(obj)
    else:
        inner, ends = pad + "  ", "{}" if isinstance(obj, dict) else "[]"
        items = (
            [(f"{json.dumps(k)}: ", v) for k, v in obj.items()]
            if isinstance(obj, dict) else [("", v) for v in obj]
        )
        yield ends[0]
        sep = "\n"
        for key, value in items:
            yield sep + inner + key
            yield from _json(value, inner)
            sep = ",\n"
        yield f"\n{pad}{ends[1]}"


def _json_document(doc):
    """Text chunks of the JSON document ``doc`` and its closing newline."""
    yield from _json(doc)
    yield "\n"


# -- input documents ---------------------------------------------------

def _read_document(path: str, parse):
    """``parse`` applied to the JSON document at ``path``; every
    ``SchemaError`` names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _circuit_from_dict(data) -> SeriesRLC:
    if not isinstance(data, dict):
        raise SchemaError("circuit document must be a JSON object")
    known = {"r_ohm", "l_henry", "c_farad"}
    for key in data:
        if key not in known:
            raise SchemaError(f"unknown circuit field {key!r}")

    def number(key):
        value = data.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{key} must be a number")
        return float(value)

    r, l = number("r_ohm"), number("l_henry")
    # only the capacitor may be null: no capacitor is a short circuit
    c = None if data.get("c_farad") is None else number("c_farad")
    try:
        return SeriesRLC(r=r, l=l, c=c)
    except PowerAnalysisError as exc:
        raise SchemaError(str(exc)) from exc


# -- report fragments --------------------------------------------------

def _spectrum_json(sig: SpectralSignal) -> dict:
    def lines(mask) -> _Records:
        return _Records(
            {"order": _SLOT, "rms": _SLOT, "phase_rad": _SLOT},
            (
                (sig.orders[mask], partial(_orders, six=_json6)),
                (sig.rms[mask], _json6),
                (sig.phase_rad[mask], _json6),
            ),
        )

    return {
        "fundamental_hz": sig.fundamental_hz,
        "dc": sig.dc,
        "harmonics": lines(sig.harmonic),
        "interharmonics": lines(~sig.harmonic),
    }


def _power_json(report: PowerReport) -> dict:
    m, cross = report.m, report.cross
    planes = m.blade_indices[cross]
    return {
        "p_w": report.p_w,
        "apparent_va": report.apparent_va,
        "pf": report.pf,
        "per_harmonic": _Records(
            {"order": _SLOT, "p_w": _SLOT, "q_var": _SLOT},
            tuple((column, _json6) for column in report.per_harmonic),
        ),
        "cross_terms": _Records(
            {"blade_indices": [_SLOT, _SLOT], "va": _SLOT},
            ((planes[:, 0], _ints), (planes[:, 1], _ints), (m.va[cross], _json6)),
        ),
    }


def _currents_json(cc: CurrentComponents, ys) -> dict:
    table = cc.table_rows()[:-1]
    orders, siemens = compensation_susceptances(ys)
    return {
        "norms": cc.norms(),
        "rows": _Records(
            {"index": _SLOT, **dict.fromkeys(CSV_COLUMNS, _SLOT)},
            (
                (np.arange(len(table)), _ints),
                *((column, _json6) for column in table.T),
            ),
        ),
        "compensation_susceptances": _Records(
            {"order": _SLOT, "siemens": _SLOT},
            ((orders, partial(_orders, six=_json6)), (siemens, _json6)),
        ),
    }


def _decomposition_columns(table, start: int = 0, stop: int | None = None):
    """Text columns of rows ``start:stop`` of ``table``, a
    ``CurrentComponents.table_rows()``: the basis index, then each of
    CSV_COLUMNS.  The table's last row holds the norms, indexed "norm"."""
    rows = table[start:stop]
    index = _ints(np.arange(start, start + len(rows)))
    if start + len(rows) == len(table):
        index[-1] = "norm"
    return [index, *map(_g6, rows.T)]


def _decomposition_csv(cc: CurrentComponents):
    """The decomposition CSV as a lazy iterator of text chunks of
    ``_RECORDS_PER_CHUNK`` rows; only formatting is left to the
    iteration."""
    table = cc.table_rows()
    header = ["index", *CSV_COLUMNS]
    pieces = [""] + [","] * (len(header) - 1) + ["\n"]

    def chunks():
        yield ",".join(header) + "\n"
        for k in range(0, len(table), _RECORDS_PER_CHUNK):
            columns = _decomposition_columns(table, k, k + _RECORDS_PER_CHUNK)
            yield "".join(_rows(pieces, columns))

    return chunks()


def _decomposition_table(cc: CurrentComponents) -> str:
    return _table(
        "Current decomposition (A)",
        ["index", *CSV_COLUMNS],
        _decomposition_columns(cc.table_rows()),
    )


def _power_tables(report: PowerReport) -> list[str]:
    orders, p, q = report.per_harmonic
    pf = "n/a" if report.pf is None else _g6([report.pf])[0]
    parts = [
        _table(
            "Power summary",
            ["p_w", "apparent_va", "pf"],
            [[cell] for cell in _g6([report.p_w, report.apparent_va])] + [[pf]],
        ),
        _table(
            "Per-harmonic P/Q",
            ["order", "p_w", "q_var"],
            [_orders(orders, _g6), _g6(p), _g6(q)],
        ),
    ]
    m, cross = report.m, report.cross
    if cross.any():
        indices = list(map(_ints, m.blade_indices[cross].T))
        blades = "".join(_rows(["s", " s", "\n"], indices)).split("\n")[:-1]
        va = _g6(m.va[cross])
        parts.append(_table("Cross-frequency terms", ["blade", "va"], [blades, va]))
    return parts


def _compensation_table(ys) -> str:
    orders, siemens = compensation_susceptances(ys)
    return _table(
        "Compensation susceptances (S)",
        ["order", "siemens"],
        [_orders(orders, _g6), _g6(siemens)],
    )


def _spectrum_table(u_sig: SpectralSignal, i_sig: SpectralSignal) -> str:
    # a set, not np.union1d: numpy's set routines import numpy.ma on first
    # use, which costs a cold CLI call about 20 ms
    orders = np.array(sorted(set(u_sig.orders.tolist()) | set(i_sig.orders.tolist())))

    def side(sig: SpectralSignal) -> list[list[str]]:
        """rms and phase columns; a missing order has rms 0 and no phase."""
        rows = np.searchsorted(orders, sig.orders)
        rms, phase = np.zeros(len(orders)), np.zeros(len(orders))
        have = np.zeros(len(orders), dtype=bool)
        rms[rows], phase[rows], have[rows] = sig.rms, sig.phase_rad, True
        return [_g6(rms), np.where(have, _g6(phase), "").tolist()]

    columns = [_orders(orders, _g6), *side(u_sig), *side(i_sig)]
    if u_sig.dc or i_sig.dc:
        u_dc, i_dc = _g6([u_sig.dc, i_sig.dc])
        for col, cell in zip(columns, ["dc", u_dc, "", i_dc, ""]):
            col.insert(0, cell)
    return _table(
        "Spectra", ["order", "u_rms", "u_phase", "i_rms", "i_phase"], columns
    )


# -- subcommands -------------------------------------------------------

def cmd_solve(args) -> list[tuple]:
    source = _read_document(args.source, SpectralSignal.from_dict)
    net = _read_document(args.circuit, _circuit_from_dict)
    layout = BasisLayout.for_signals(source)
    u = to_phasor(source, layout)
    ys = admittances_for(net, u)
    i = solve_current(u, ys)
    cc = decompose_currents(u, i, ys)
    if args.format == "csv":
        return [(args.out, _decomposition_csv(cc))]
    report = power_report(u, i)
    i_sig = from_phasor(i)
    if args.format == "json":
        doc = {
            "circuit": {"r_ohm": net.r, "l_henry": net.l, "c_farad": net.c},
            "source": _spectrum_json(source),
            "current_spectrum": _spectrum_json(i_sig),
            "power": _power_json(report),
            "currents": _currents_json(cc, ys),
        }
        return [(args.out, _json_document(doc))]
    tables = [
        _spectrum_table(source, i_sig),
        *_power_tables(report),
        _decomposition_table(cc),
        _compensation_table(ys),
    ]
    return [(args.out, _spaced(tables))]


def cmd_analyze(args) -> list[tuple]:
    u_w, i_w = load_csv(args.input)
    u_sig = dft_extract(u_w, args.fundamental, args.orders, args.interharmonics)
    i_sig = dft_extract(i_w, args.fundamental, args.orders, args.interharmonics)
    layout = BasisLayout.for_signals(u_sig, i_sig)
    u = to_phasor(u_sig, layout)
    i = to_phasor(i_sig, layout)
    ys = estimate_admittances(u, i)
    cc = decompose_currents(u, i, ys)
    thd_u, thd_i = thd(u_sig), thd(i_sig)  # exit 2 without a fundamental
    ts = [(args.timeseries, _timeseries_csv(u_w, i_w, cc))] if args.timeseries else []
    if args.format == "csv":
        return ts + [(args.out, _decomposition_csv(cc))]
    report = power_report(u, i)
    waveform = {
        "rms_u": rms(u_w),
        "rms_i": rms(i_w),
        "thd_u": thd_u,
        "thd_i": thd_i,
        "active_power_w": active_power(u_w, i_w),
    }
    if args.format == "json":
        doc = {
            "input": {
                "path": args.input,
                "samples": u_w.n,
                "sample_rate_hz": u_w.sample_rate_hz,
                "duration_s": u_w.duration_s,
            },
            "waveform": waveform,
            "voltage_spectrum": _spectrum_json(u_sig),
            "current_spectrum": _spectrum_json(i_sig),
            "power": _power_json(report),
            "currents": _currents_json(cc, ys),
        }
        return ts + [(args.out, _json_document(doc))]
    tables = [
        _table(
            "Waveform",
            list(waveform),
            [[cell] for cell in _g6(list(waveform.values()))],
        ),
        _spectrum_table(u_sig, i_sig),
        *_power_tables(report),
        _decomposition_table(cc),
        _compensation_table(ys),
    ]
    return ts + [(args.out, _spaced(tables))]


def cmd_decompose(args) -> list[tuple]:
    u_sig = _read_document(args.voltage, SpectralSignal.from_dict)
    i_sig = _read_document(args.current, SpectralSignal.from_dict)
    if not math.isclose(
        u_sig.fundamental_hz, i_sig.fundamental_hz, rel_tol=1e-9, abs_tol=0.0
    ):
        raise SchemaError(
            "fundamental mismatch: voltage at "
            f"{u_sig.fundamental_hz} Hz, current at {i_sig.fundamental_hz} Hz"
        )
    layout = BasisLayout.for_signals(u_sig, i_sig)
    u = to_phasor(u_sig, layout)
    i = to_phasor(i_sig, layout)
    ys = estimate_admittances(u, i)
    cc = decompose_currents(u, i, ys)
    if args.format == "csv":
        return [(args.out, _decomposition_csv(cc))]
    if args.format == "json":
        doc = {
            "voltage_spectrum": _spectrum_json(u_sig),
            "current_spectrum": _spectrum_json(i_sig),
            "currents": _currents_json(cc, ys),
        }
        return [(args.out, _json_document(doc))]
    tables = [_decomposition_table(cc), _compensation_table(ys)]
    return [(args.out, _spaced(tables))]


def _timeseries_csv(u_w, i_w, cc: CurrentComponents):
    """The t,u,i,p,i_a,i_N CSV as a lazy iterator of text chunks of
    ``_ROWS_PER_CALL`` rows; only formatting is left to the iteration.
    Every step is elementwise, so a chunk has the bits of the whole."""
    i_a, i_n = from_phasor(cc.i_a), from_phasor(cc.i_N)
    row = ",".join(["%.6g"] * 6) + "\n"

    def chunks():
        yield "t_s,u,i,p,i_a,i_N\n"
        for k in range(0, u_w.n, _ROWS_PER_CALL):
            t = np.arange(k, min(k + _ROWS_PER_CALL, u_w.n)) / u_w.sample_rate_hz
            u, i = u_w.samples[k:k + len(t)], i_w.samples[k:k + len(t)]
            columns = [t, u, i, u * i, reconstruct(i_a, t), reconstruct(i_n, t)]
            yield _g6_rows(np.column_stack(columns), row)

    return chunks()


def _write_all(outputs) -> None:
    """Open every output path, appending (an existing file keeps its bytes),
    then write each output.  If any step fails, remove the files this call
    created and raise: a file that existed is left as the failure left it."""
    created = []
    try:
        for path, _ in outputs:
            if path:
                new = not os.path.exists(path)
                open(path, "a").close()
                created += [path] * new
        for path, chunks in outputs:
            _write_text(chunks, path)
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _write_text(chunks, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# -- argument parsing --------------------------------------------------

def _orders_list(raw: str) -> tuple[float, ...]:
    try:
        orders = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {raw!r}")
    try:
        return BasisLayout(0, orders).interharmonic_orders
    except LayoutError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapower",
        description="Geometric-algebra power analysis for periodic signals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="table", help="output format"
    )
    common.add_argument("--out", default=None, help="write output to this file")

    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[common], help="solve a series RLC circuit for a source"
    )
    p_solve.add_argument("--circuit", required=True, help="circuit JSON file")
    p_solve.add_argument("--source", required=True, help="voltage spectrum JSON file")
    p_solve.set_defaults(run=cmd_solve)

    p_an = sub.add_parser(
        "analyze", parents=[common], help="analyze a sampled u,i recording"
    )
    p_an.add_argument("--input", required=True, help="CSV file (# fs_hz header)")
    p_an.add_argument(
        "--fundamental", required=True, type=float, help="fundamental frequency, Hz"
    )
    p_an.add_argument(
        "--orders", required=True, type=int, help="highest harmonic order to extract"
    )
    p_an.add_argument(
        "--interharmonics",
        type=_orders_list,
        default=(),
        help="comma-separated fractional orders to extract as well",
    )
    p_an.add_argument(
        "--timeseries",
        default=None,
        help="also write a t,u,i,p,i_a,i_N CSV to this file",
    )
    p_an.set_defaults(run=cmd_analyze)

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="decompose a current against a voltage"
    )
    p_dec.add_argument("--voltage", required=True, help="voltage spectrum JSON file")
    p_dec.add_argument("--current", required=True, help="current spectrum JSON file")
    p_dec.set_defaults(run=cmd_decompose)
    return parser


@cache
def _freeze_imports() -> None:
    gc.freeze()


def main(argv=None) -> int:
    _freeze_imports()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _write_all(args.run(args))
    except (SchemaError, WaveformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PowerAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
