"""Command-line front end.

Three subcommands cover the pipeline: ``solve`` (circuit JSON + source
spectrum JSON), ``analyze`` (sampled CSV recording) and ``decompose``
(voltage + current spectrum JSON).  Output goes to stdout or ``--out`` as
a table, JSON document or the decomposition CSV; only what the chosen
format prints is computed.

Every number is printed with 6 significant digits, so identical inputs
give identical bytes.  An output is a run of blocks of rows (a table's
body, a CSV, a JSON record array such as the cross-frequency terms),
each formatted ``_CHUNK`` rows at a time (``_chunks``) and laid out by one
routine (``_layout``) from constant texts and columns of numbers (see
the comments on number formatting and layout); ``json.dumps`` only
writes keys, strings and the few irregular values.  A command returns
its outputs as ``(path, chunks)`` pairs (None is stdout), the chunks a
lazy iterator of ASCII ``bytes`` that formats as it is written, so no
output is ever held whole.  A file is opened in binary mode and takes
the iterator as it is (``writelines``); stdout takes text, so each chunk
is decoded as it is written there, and a caller may put any text stream
in its place.  Everything but the
formatting, opening every output file too, runs before the first write;
if a write fails, the files this call created are removed.

The first ``main`` call in a process moves every object alive at that
point, mostly the ~21,000 that numpy, argparse, json and this package
create at import, into the collector's permanent generation with one
``gc.freeze()``, then builds the parser every later call reuses
(``_parser``; a freeze after the build cost the first call 1-3 % on a
2-vCPU guest, Python 3.11).  The frozen objects live until exit anyway;
shutdown's collections and any later full one skip them.  This happens
once per process, behind an O(1) guard: a freeze per call would keep
each call's own garbage alive for good, and reading
``gc.get_freeze_count()`` walks the permanent generation.  Importing the
module builds and freezes nothing.  An in-process caller should know
that the collector never again examines what it holds at its first
``main()``; one that needs its own parser calls ``build_parser()``.

Exit codes: 0 success, 1 computation error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import cache
from itertools import accumulate, chain, islice, repeat

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
    json_number,
    reconstruct,
    to_phasor,
)
from .power import PowerReport, power_report
from .waveform import active_power, dft_extract, load_csv, rms, thd

FORMATS = ("table", "json", "csv")


# -- number formatting and layout ---------------------------------------
# One rule for every number, applied to whole arrays: ``%.6g`` of the
# value plus 0.0, which turns -0.0 (the only source of "-0") into 0.0; an
# integral entry of an integer or order column from 10**6 up, where
# ``%.6g`` switches to an exponent, prints as ``%d``.  JSON prints the
# repr of the float a ``%.6g`` text parses back to.  That repr is the
# text itself except in four forms, each told by the text: an integral
# fixed value ("100") gains ".0"; exponents e+06 to e+15 are spelled out
# (1.23457e+08 is 123457000.0); from e-308 down lie the subnormals, whose
# precision falls below 6 digits, so repr may be shorter (4.94066e-324 is
# 5e-324); and nan, inf and -inf take json's spellings.  Only values a
# mask cannot rule out are checked: a finite 1e-300 <= |x| < 99999 that
# lies more than 1e-5*|x| from every integer prints either fixed with a
# "." (6 digits cannot round it to an integer) or with an exponent from
# e-05 to e-300, and both are repr.

# A chunk of ``_KERNEL_CUT`` numbers or more is formatted by a numpy
# kernel that writes the bytes of ``%.6g`` itself.  The 6 digits are
# rint(|x| 10^(5-e)), e the decimal exponent floor(log10 |x|); the scaled
# value errs by under 1e-9, so only a value within 1e-6 of a rounding tie
# is left undecided.  One step corrects e: 6 digits that round up to
# 1000000 are 100000 at e + 1.  That step also covers log10's own
# rounding, which can put e one off only within 1e-12 of a power of 10,
# where the digits round to 100000 at either e.  Each value's text fills
# a 16-byte slot (two little-endian uint64 words) that has NUL bytes as
# holes.  The values the kernel leaves to ``%``: those undecided ones,
# zeros, nan, inf and |x| outside [1e-290, 1e290]; their texts are
# spliced into their slots.  A smaller chunk goes through ``%`` whole:
# there the kernel's fixed numpy cost exceeds what it saves (2-vCPU guest,
# Python 3.11, numpy 2.4: % 22 against 35 us at 100 values, a tie at 201,
# 74 against 40 us at 400).  The kernel's tables are built on its first call.

# A block of rows is laid out ``_CHUNK`` rows at a time: each part of a
# row, a constant or a column's slots, fills a fixed run of bytes of one
# ``(rows, width)`` uint8 array, whose NUL holes one pass drops.  The
# constants fill every row at once, as one template row; only the
# columns are copied in one by one.  On a
# 2-vCPU guest (Python 3.11, numpy 2.4), 2**11 rows per chunk cost a
# 10**6-row --timeseries 13 % and the analyze --orders 100 table 1.5 ms;
# 2**13 peaked 1.4 MB higher on its JSON, 2**12 0.7 MB above 2**11.

_CHUNK = 1 << 12
_KERNEL_CUT = 256
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


def _slots(x):
    """The 16-byte slots of the float array ``x``, as an ``x.shape +
    (16,)`` uint8 array: each value's ``%.6g`` text, NUL bytes as holes;
    and the mask of the values the kernel leaves to ``%``: all of a short one."""
    if len(x) < _KERNEL_CUT:
        return np.zeros(x.shape + (16,), np.uint8), slice(None)
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
    words[..., 1] = cut & tail[e] | exponent[e]
    return words.view(np.uint8).reshape(x.shape + (16,)), odd


def _numbers(x, whole: bool, json: bool):
    """The texts of the array ``x`` as ``(len(x), width)`` uint8 rows, NUL
    bytes as holes: of an integer array ``%d``; of a float array
    ``%.6g``, ``%d`` for an integral entry if ``whole``, and with ``json``
    the JSON number of either."""
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return _integers(x)
    x = np.asarray(x, dtype=np.float64) + 0.0
    ints = whole and np.isfinite(x) & (np.rint(x) == x)
    if whole and ints.all():
        return _integers(x.astype(np.intp))
    slots, odd = _slots(x)
    v = x[odd].tolist()
    slots[odd] = _ascii("%16.6g" * len(v) % tuple(v), 16)
    if whole:
        big = ints & (np.abs(x) >= 1e6)
        v = x[big].tolist()
        slots[big] = _ascii("%16d" * len(v) % tuple(v), 16)
    if not json:
        return slots
    # |x| capped at the cut, an integer, where nan and inf land too; every
    # finite |x| >= 50000 lies within 1e-5*|x| of an integer anyway
    a = np.fmin(np.abs(x), 99999.0)
    unsure = ((a < 1e-300) | (abs(a - np.rint(a)) <= 1e-5 * a)) & np.logical_not(ints)
    v = x[unsure].tolist()
    texts = [_json_text(t) for t in ("%.6g " * len(v) % tuple(v)).split()]
    width = max(16, max(map(len, texts), default=0))
    if width > 16:  # a spelled-out exponent
        slots = np.pad(slots, ((0, 0), (width - 16, 0)))
    slots[unsure] = _ascii("".join(t.rjust(width) for t in texts), width)
    return slots


def _integers(d):
    """The ``%d`` texts of the integer array ``d``, as ``_numbers`` gives
    them."""
    if len(d) >= _KERNEL_CUT and 0 <= d.min() and d.max() < 10**6:
        # the kernel's bytes from its digit table alone, at under half its cost
        digits = _digit_words()[0]
        zeros = 5 - np.searchsorted(10 ** np.arange(1, 6), d, side="right")
        text = (digits[0][d // 1000] | digits[1][d % 1000]) >> (8 * zeros).astype(_U)
        return text.view(np.uint8).reshape(-1, 8)
    v = d.tolist()
    return _ascii("%16d" * len(v) % tuple(v), 16)


def _ascii(text: str, width: int):
    """``text`` as rows of ``width`` bytes, its spaces as NUL bytes."""
    ascii = bytearray(text.replace(" ", "\0"), "ascii")
    return np.frombuffer(ascii, np.uint8).reshape(-1, width)


def _json_text(text: str) -> str:
    """The JSON number of a ``%.6g`` text."""
    fits = "." in text and not {text[-4:], text[-5:]} & _REPR_EXPONENTS
    return text if fits else _JSON_NONFINITE.get(text) or repr(float(text))


class _Column(Frozen):
    """A column of numbers, one per row of a block: ``values``, whose
    integral entries print as integers if ``whole`` or ``values`` is an
    integer array (all below 10**15); where ``shown`` is False an entry
    prints the bytes ``instead``."""

    __slots__ = ("values", "whole", "shown", "instead")

    def __init__(self, values, whole: bool = False, shown=None, instead: bytes = b""):
        self._set(values=values, whole=whole, shown=shown, instead=instead)


def _fields(cells, json: bool, start: int, stop: int) -> list:
    """Rows ``start:stop`` of each cell of a block as ``(rows, width)`` uint8
    arrays, NUL bytes as holes.  A cell is a list of parts: bytes, the same
    in every row, or a column of numbers (floats, integers or a ``_Column``)."""
    def text(part):
        if isinstance(part, bytes):
            return part
        c = part if isinstance(part, _Column) else _Column(part)
        slots = _numbers(c.values[start:stop], c.whole, json)
        if c.shown is not None:
            instead = c.instead.rjust(slots.shape[1], b"\0")
            slots[~c.shown[start:stop]] = np.frombuffer(instead, np.uint8)
        return slots

    return [_join(list(map(text, cell)), stop - start) for cell in cells]


def _lengths(field):
    """The non-NUL bytes in each row of a ``(rows, width)`` uint8 array."""
    return np.einsum("ij->i", (field != 0).view(np.uint8), dtype=np.intp)


def _join(parts, m: int):
    """The ``(m, width)`` uint8 array of ``parts`` side by side, each bytes,
    the same in every row, or an ``(m, w)`` uint8 array: every row is set
    to the row of the constant bytes at once, then each array is copied
    into its place."""
    if len(parts) == 1 and not isinstance(parts[0], bytes):
        return parts[0]
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    template = b"".join(p if isinstance(p, bytes) else bytes(w) for p, w in zip(parts, widths))
    rows = np.empty((m, len(template)), np.uint8)
    rows[:] = np.frombuffer(template, np.uint8)
    for part, end in zip(parts, accumulate(widths)):
        if not isinstance(part, bytes):
            rows[:, end - part.shape[1]:end] = part
    return rows


def _layout(fields, widths=None) -> bytes:
    """The bytes of the rows of a chunk's cell ``fields``: each row its
    cells' texts side by side.  With ``widths`` (a table) two spaces lead
    each row and part its cells, every cell but the last is padded with
    spaces to its width, and a row loses its trailing spaces."""
    if widths is None:
        rows = _join(fields, len(fields[0]))
    else:
        parts = [b"  "]
        for field, width in zip(fields[:-1], widths):
            fill = width - _lengths(field)
            parts += [field, (np.arange(width) < fill[:, None]) * np.uint8(32), b"  "]
        last = fields[-1]
        rows = _join([*parts, last, b"\n"], len(last))
        # a row whose last cell is empty or ends in a space loses every
        # byte after its last one that is neither a space nor a hole
        tail = rows[:, -3 - last.shape[1]:-1]
        bare = tail[np.arange(len(tail)), -1 - np.argmax(tail[:, ::-1] != 0, 1)] == 32
        body = rows[bare, :-1]
        rows[bare, :-1] = body * np.logical_or.accumulate(body[:, ::-1] > 32, 1)[:, ::-1]
    return rows.tobytes().translate(None, b"\0")


def _chunks(cells, json: bool = False, start: int = 0):
    """The cell fields of the block ``cells`` from row ``start``, ``_CHUNK``
    rows at a time; the first column gives the number of rows."""
    column = next(p for cell in cells for p in cell if not isinstance(p, bytes))
    n = len(getattr(column, "values", column))
    for k in range(start, n, _CHUNK):
        yield _fields(cells, json, k, min(k + _CHUNK, n))


def _table(title: str, header: list[str], cells):
    """Byte chunks of an aligned table: ``title``, a plain-text row of the
    ``header`` names and the rows of the block ``cells``.  A column is as
    wide as its widest text, which a first pass over the chunks finds; it
    keeps the first chunk, so a table is held a chunk at a time."""
    first = [*islice(_chunks(cells), 1)]
    chunks = lambda: chain(first, _chunks(cells, False, _CHUNK))
    widths = np.max([[*map(len, header)],
                     *([_lengths(f).max() for f in fields] for fields in chunks())], axis=0)
    head = "  ".join(["", *map(str.ljust, header, widths)]).rstrip()
    yield f"{title}\n{head}\n".encode()
    yield from map(_layout, chunks(), repeat(widths))


def _spaced(tables):
    """Byte chunks of ``tables`` with a blank line between each two."""
    return islice(chain.from_iterable(chain([b"\n"], table) for table in tables), 1, None)


def _csv(columns) -> list:
    """A CSV row's cell: ``columns`` with commas between, a newline after."""
    return [p for column in columns for p in (column, b",")][:-1] + [b"\n"]


# A value slot of a JSON record template.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT).encode()


class _Records(Frozen):
    """A JSON array of objects shaped like ``proto``.  The ``_SLOT``
    values of ``proto`` take, in order, the entries of ``columns``: one
    column (see ``_fields``) per slot, with one entry per record."""

    __slots__ = ("proto", "columns")

    def __init__(self, proto: dict, columns: tuple):
        self._set(proto=proto, columns=columns)


def _record_block(block: _Records, pad: bytes):
    """Byte chunks of the JSON text of ``block``: its rows, whose k+1
    pieces are the proto's text cut at its k slots, indented and closed
    by a comma but for the last."""
    inner = pad + b"  "
    first, *middle, last = b"".join(_json(block.proto, inner)).split(_SLOT_TEXT)
    cell = [inner + first, *chain(*zip(block.columns, [*middle, last + b",\n"]))]
    text = b"[\n"
    for chunk in map(_layout, _chunks([cell], json=True)):
        # a chunk behind, so that the last loses its comma; the chunk held
        # also keeps malloc from returning and re-faulting the heap's top
        yield text
        text = chunk
    yield from [b"[]"] if text == b"[\n" else [text[:-2], b"\n" + pad + b"]"]


def _json(obj, pad: bytes = b""):
    """Byte chunks of ``obj`` laid out as ``json.dumps(obj, indent=2)``
    lays it out, with every float at 6 significant digits, as a lazy
    iterator: a ``_Records`` block is formatted a chunk at a time."""
    if isinstance(obj, _Records):
        yield from _record_block(obj, pad)
    elif isinstance(obj, float):
        yield _layout([_numbers([obj], False, True)])
    elif not obj or not isinstance(obj, (dict, list)):
        yield json.dumps(obj).encode()
    else:
        inner = pad + b"  "
        start, end = (b"{", b"}") if isinstance(obj, dict) else (b"[", b"]")
        items = (
            [(f"{json.dumps(k)}: ".encode(), v) for k, v in obj.items()]
            if isinstance(obj, dict) else [(b"", v) for v in obj]
        )
        yield start
        sep = b"\n"
        for key, value in items:
            yield sep + inner + key
            yield from _json(value, inner)
            sep = b",\n"
        yield b"\n" + pad + end


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
        except RecursionError:
            raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None
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
    r, l = (json_number(data.get(key, 0.0), key) for key in ("r_ohm", "l_henry"))
    # only the capacitor may be null: no capacitor is a short circuit
    c = None if data.get("c_farad") is None else json_number(data["c_farad"], "c_farad")
    try:
        return SeriesRLC(r=r, l=l, c=c)
    except PowerAnalysisError as exc:
        raise SchemaError(str(exc)) from exc


# -- report fragments --------------------------------------------------

def _spectrum_json(sig: SpectralSignal) -> dict:
    def lines(mask) -> _Records:
        return _Records(
            {"order": _SLOT, "rms": _SLOT, "phase_rad": _SLOT},
            (_Column(sig.orders[mask], whole=True), sig.rms[mask], sig.phase_rad[mask]),
        )

    return {
        "fundamental_hz": sig.fundamental_hz,
        "dc": sig.dc,
        "harmonics": lines(sig.harmonic),
        "interharmonics": lines(~sig.harmonic),
    }


def _power_json(report: PowerReport) -> dict:
    m, cross = report.m, report.cross
    return {
        "p_w": report.p_w,
        "apparent_va": report.apparent_va,
        "pf": report.pf,
        "per_harmonic": _Records(
            {"order": _SLOT, "p_w": _SLOT, "q_var": _SLOT}, report.per_harmonic
        ),
        "cross_terms": _Records(
            {"blade_indices": [_SLOT, _SLOT], "va": _SLOT},
            (*m.blade_indices[cross].T, m.va[cross]),
        ),
    }


def _currents_json(cc: CurrentComponents, ys) -> dict:
    table = cc.table_rows()[:-1]
    orders, siemens = compensation_susceptances(ys)
    return {
        "norms": cc.norms(),
        "rows": _Records(
            {"index": _SLOT, **dict.fromkeys(CSV_COLUMNS, _SLOT)},
            (np.arange(len(table)), *table.T),
        ),
        "compensation_susceptances": _Records(
            {"order": _SLOT, "siemens": _SLOT},
            (_Column(orders, whole=True), siemens),
        ),
    }


def _decomposition_cells(cc: CurrentComponents) -> list:
    """The basis index and CSV_COLUMNS cells of a ``CurrentComponents``;
    the last row holds the norms, indexed "norm"."""
    table = cc.table_rows()
    index = np.arange(len(table))
    norm = _Column(index, shown=index < len(table) - 1, instead=b"norm")
    return [[norm], *([c] for c in table.T)]


def _decomposition_csv(cc: CurrentComponents):
    """The decomposition CSV as a lazy iterator of byte chunks."""
    yield (",".join(["index", *CSV_COLUMNS]) + "\n").encode()
    yield from map(_layout, _chunks([_csv([c for c, in _decomposition_cells(cc)])]))


def _currents_tables(cc: CurrentComponents, ys) -> list:
    """The tables of the current decomposition and its compensation."""
    orders, siemens = compensation_susceptances(ys)
    cells = _decomposition_cells(cc)
    return [
        _table("Current decomposition (A)", ["index", *CSV_COLUMNS], cells),
        _table(
            "Compensation susceptances (S)",
            ["order", "siemens"],
            [[_Column(orders, whole=True)], [siemens]],
        ),
    ]


def _power_tables(report: PowerReport) -> list:
    orders, p, q = report.per_harmonic
    pf = b"n/a" if report.pf is None else np.array([report.pf])
    parts = [
        _table(
            "Power summary",
            ["p_w", "apparent_va", "pf"],
            [[np.array([report.p_w])], [np.array([report.apparent_va])], [pf]],
        ),
        _table(
            "Per-harmonic P/Q",
            ["order", "p_w", "q_var"],
            [[_Column(orders, whole=True)], [p], [q]],
        ),
    ]
    m, cross = report.m, report.cross
    if cross.any():
        a, b = m.blade_indices[cross].T
        blade, va = [b"s", a, b" s", b], [m.va[cross]]
        parts.append(_table("Cross-frequency terms", ["blade", "va"], [blade, va]))
    return parts


def _spectrum_table(u_sig: SpectralSignal, i_sig: SpectralSignal):
    # a set, not np.union1d, whose first use imports numpy.ma (about 20 ms
    # of a cold call); order 0, which no line has, is the row of DC levels
    lines = set(u_sig.orders.tolist()) | set(i_sig.orders.tolist())
    orders = np.array(sorted(lines | {0.0} if u_sig.dc or i_sig.dc else lines))

    def side(sig: SpectralSignal) -> list:
        """rms and phase cells; a missing order (rms 0) and DC have no phase."""
        rows = np.searchsorted(orders, sig.orders)
        rms, phase = np.where(orders > 0, 0.0, sig.dc), np.full(len(orders), np.nan)
        rms[rows], phase[rows] = sig.rms, sig.phase_rad
        return [[rms], [_Column(phase, shown=~np.isnan(phase))]]

    cells = [[_Column(orders, whole=True, shown=orders > 0, instead=b"dc")],
             *side(u_sig), *side(i_sig)]
    return _table("Spectra", ["order", "u_rms", "u_phase", "i_rms", "i_phase"], cells)


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
        return [(args.out, chain(_json(doc), [b"\n"]))]
    tables = [
        _spectrum_table(source, i_sig),
        *_power_tables(report),
        *_currents_tables(cc, ys),
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
        return ts + [(args.out, chain(_json(doc), [b"\n"]))]
    tables = [
        _table("Waveform", list(waveform), [[np.array([v])] for v in waveform.values()]),
        _spectrum_table(u_sig, i_sig),
        *_power_tables(report),
        *_currents_tables(cc, ys),
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
        return [(args.out, chain(_json(doc), [b"\n"]))]
    return [(args.out, _spaced(_currents_tables(cc, ys)))]


def _timeseries_csv(u_w, i_w, cc: CurrentComponents):
    """The t,u,i,p,i_a,i_N CSV as a lazy iterator of byte chunks of
    ``_CHUNK`` rows; only formatting is left to the iteration.
    Every step is elementwise, so a chunk has the bits of the whole."""
    i_a, i_n = from_phasor(cc.i_a), from_phasor(cc.i_N)

    def chunks():
        yield b"t_s,u,i,p,i_a,i_N\n"
        for k in range(0, u_w.n, _CHUNK):
            t = np.arange(k, min(k + _CHUNK, u_w.n)) / u_w.sample_rate_hz
            u, i = u_w.samples[k:k + len(t)], i_w.samples[k:k + len(t)]
            columns = [t, u, i, u * i, reconstruct(i_a, t), reconstruct(i_n, t)]
            yield _layout(_fields([_csv(columns)], False, 0, len(t)))

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
                open(path, "ab").close()
                created += [path] * new
        for path, chunks in outputs:
            _write_text(chunks, path)
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _write_text(chunks, out: str | None) -> None:
    """Write the byte ``chunks`` to the file ``out`` as they come, or to
    stdout, which takes text."""
    if out:
        with open(out, "wb") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())


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
def _parser() -> argparse.ArgumentParser:
    gc.freeze()
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
