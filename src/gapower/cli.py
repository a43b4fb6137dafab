"""Command-line front end.

Three subcommands cover the pipeline: ``solve`` (circuit JSON + source
spectrum JSON), ``analyze`` (sampled CSV recording) and ``decompose``
(voltage + current spectrum JSON).  Output goes to stdout or ``--out`` as
a table, JSON document or the decomposition CSV; only what the chosen
format prints is computed.

Every number is printed with 6 significant digits, so identical inputs
give identical bytes.  Numbers are rendered from arrays: one ``%``
template formats a whole float array, and a table or the CSV rows go
through one template built from the header.  A JSON number is its
``%.6g`` text, respelled only where a mask cannot rule out a form JSON
writes differently (see the number-formatting comment).  A JSON array of
records, such as the cross-frequency terms, is joined once from the
record's constant text and the value texts.  ``json.dumps`` only writes
keys, strings and the few irregular values.

Output is a list of text chunks for ``writelines``, never one whole
document; ``--timeseries`` is formatted ``_ROWS_PER_CALL`` rows at a
time.  Everything that can fail runs before the first write.

Exit codes: 0 success, 1 computation error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import SeriesRLC, admittances_for, solve_current
from .decompose import (
    CSV_COLUMNS,
    CurrentComponents,
    compensation_susceptances,
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

_ROWS_PER_CALL = 1 << 16  # rows per ``%`` call and per written chunk
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_REPR_EXPONENTS = frozenset(
    ["e+%02d" % k for k in range(6, 16)] + ["e-%d" % k for k in range(308, 325)]
)


def _g6_rows(a, row: str) -> str:
    """``row % r`` for every row ``r`` of the 2-D float array ``a``,
    concatenated; ``row`` holds one ``%.6g`` per column."""
    a = np.asarray(a, dtype=np.float64) + 0.0
    blocks = np.split(a, range(_ROWS_PER_CALL, len(a), _ROWS_PER_CALL))
    return "".join(row * len(b) % tuple(b.ravel().tolist()) for b in blocks)


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


def _ints(values: list[int]) -> list[str]:
    """Decimal text of every entry of a list of non-negative ints, looked
    up in one table over ``range(max + 1)``."""
    text = list(map(str, range(max(values, default=-1) + 1)))
    return list(map(text.__getitem__, values))


def _orders(orders, six) -> list[str]:
    """Integer orders print as integers, the others through ``six``."""
    return [
        str(int(o)) if float(o).is_integer() else t
        for o, t in zip(orders, six(orders))
    ]


def _cells(columns: list[list]) -> tuple:
    """The entries of equal-length columns in row-major order."""
    k = len(columns)
    cells = [""] * (k * len(columns[0]))
    for j, col in enumerate(columns):
        cells[j::k] = col
    return tuple(cells)


def _table(title: str, header: list[str], columns: list[list[str]]) -> str:
    """An aligned text table of the given text columns."""
    columns = [[h, *col] for h, col in zip(header, columns)]
    widths = [max(map(len, col)) for col in columns]
    row = "  " + "  ".join("%%-%ds" % w for w in widths)
    text = "\n".join([row] * len(columns[0])) % _cells(columns)
    return "\n".join([title, *map(str.rstrip, text.split("\n"))]) + "\n"


def _spaced(tables: list[str]) -> list[str]:
    """Text chunks of ``tables`` with a blank line between each two."""
    return [c for t in tables for c in ("\n", t)][1:]


def _csv(header: list[str], columns: list[list[str]]) -> list[str]:
    """CSV text chunks of the given text columns under a header line."""
    row = ",".join(["%s"] * len(header)) + "\n"
    return [",".join(header) + "\n", row * len(columns[0]) % _cells(columns)]


# A value slot of a JSON record template.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)


@dataclass(frozen=True)
class _Records:
    """A JSON array of objects shaped like ``proto``.  The ``_SLOT``
    values of ``proto`` take, in order, the entries of ``columns``: one
    list of JSON text per slot, one entry per record."""

    proto: dict
    columns: tuple[list[str], ...]


def _record_block(block: _Records, pad: str) -> str:
    """The JSON text of ``block``, joined once from its cells: record m
    is piece 0, cell 0 of m, piece 1, ..., piece k, where the k+1 pieces
    are the proto's text cut at its k slots."""
    n, k = len(block.columns[0]), len(block.columns)
    if not n:
        return "[]"
    inner = pad + "  "
    pieces = "".join(_json(block.proto, inner)).split(_SLOT_TEXT)
    cells = [f"{pieces[k]},\n{inner}{pieces[0]}"] * (2 * k * n + 1)
    cells[0], cells[-1] = f"[\n{inner}{pieces[0]}", f"{pieces[k]}\n{pad}]"
    for j, col in enumerate(block.columns):
        cells[2 * j + 1::2 * k] = col
        if j + 1 < k:
            cells[2 * j + 2::2 * k] = [pieces[j + 1]] * n
    return "".join(cells)


def _json(obj, pad: str = "") -> list[str]:
    """Text chunks of ``obj`` laid out as ``json.dumps(obj, indent=2)``
    lays it out, with every float at 6 significant digits; a
    ``_Records`` block is one chunk."""
    if isinstance(obj, _Records):
        return [_record_block(obj, pad)]
    if isinstance(obj, float):
        return _json6([obj])
    if not obj or not isinstance(obj, (dict, list)):
        return [json.dumps(obj)]
    inner, ends = pad + "  ", "{}" if isinstance(obj, dict) else "[]"
    items = (
        [(f"{json.dumps(k)}: ", v) for k, v in obj.items()]
        if isinstance(obj, dict) else [("", v) for v in obj]
    )
    chunks, sep = [ends[0]], "\n"
    for key, value in items:
        chunks += [sep + inner + key, *_json(value, inner)]
        sep = ",\n"
    chunks.append(f"\n{pad}{ends[1]}")
    return chunks


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
                _orders(sig.orders[mask], _json6),
                _json6(sig.rms[mask]),
                _json6(sig.phase_rad[mask]),
            ),
        )

    return {
        "fundamental_hz": sig.fundamental_hz,
        "dc": sig.dc,
        "harmonics": lines(sig.harmonic),
        "interharmonics": lines(~sig.harmonic),
    }


def _power_json(report: PowerReport) -> dict:
    terms = report.cross_terms
    return {
        "p_w": report.p_w,
        "apparent_va": report.apparent_va,
        "pf": report.pf,
        "per_harmonic": _Records(
            {"order": _SLOT, "p_w": _SLOT, "q_var": _SLOT},
            tuple(map(_json6, report.per_harmonic)),
        ),
        "cross_terms": _Records(
            {"blade_indices": [_SLOT, _SLOT], "va": _SLOT},
            (
                *map(_ints, terms.blade_indices.T.tolist()),
                _json6(terms.va),
            ),
        ),
    }


def _currents_json(cc: CurrentComponents, ys) -> dict:
    table = cc.table_rows()
    orders, siemens = compensation_susceptances(ys)
    return {
        "norms": dict(zip(CSV_COLUMNS, table[-1].tolist())),
        "rows": _Records(
            {"index": _SLOT, **dict.fromkeys(CSV_COLUMNS, _SLOT)},
            (
                _ints(list(range(len(table) - 1))),
                *map(_json6, table[:-1].T),
            ),
        ),
        "compensation_susceptances": _Records(
            {"order": _SLOT, "siemens": _SLOT},
            (_orders(orders, _json6), _json6(siemens)),
        ),
    }


def _decomposition_columns(cc: CurrentComponents) -> list[list[str]]:
    """The basis index, then each of CSV_COLUMNS; the last row holds the
    norms."""
    table = cc.table_rows()
    index = [str(k) for k in range(len(table) - 1)] + ["norm"]
    return [index, *map(_g6, table.T)]


def _decomposition_csv(cc: CurrentComponents) -> list[str]:
    return _csv(["index", *CSV_COLUMNS], _decomposition_columns(cc))


def _decomposition_table(cc: CurrentComponents) -> str:
    return _table(
        "Current decomposition (A)",
        ["index", *CSV_COLUMNS],
        _decomposition_columns(cc),
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
    terms = report.cross_terms
    if len(terms):
        pairs = tuple(terms.blade_indices.ravel().tolist())
        blades = ("s%d s%d\n" * len(terms) % pairs).split("\n")[:-1]
        parts.append(
            _table("Cross-frequency terms", ["blade", "va"], [blades, _g6(terms.va)])
        )
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

def cmd_solve(args) -> list[str]:
    source = _read_document(args.source, SpectralSignal.from_dict)
    net = _read_document(args.circuit, _circuit_from_dict)
    layout = BasisLayout.for_signals(source)
    u = to_phasor(source, layout)
    ys = admittances_for(net, u)
    i = solve_current(u, ys)
    cc = decompose_currents(u, i, ys)
    if args.format == "csv":
        return _decomposition_csv(cc)
    report = power_report(u, i)
    i_sig = from_phasor(i)
    if args.format == "json":
        return _json(
            {
                "circuit": {"r_ohm": net.r, "l_henry": net.l, "c_farad": net.c},
                "source": _spectrum_json(source),
                "current_spectrum": _spectrum_json(i_sig),
                "power": _power_json(report),
                "currents": _currents_json(cc, ys),
            }
        ) + ["\n"]
    return _spaced(
        [
            _spectrum_table(source, i_sig),
            *_power_tables(report),
            _decomposition_table(cc),
            _compensation_table(ys),
        ]
    )


def cmd_analyze(args) -> list[str]:
    u_w, i_w = load_csv(args.input)
    u_sig = dft_extract(u_w, args.fundamental, args.orders, args.interharmonics)
    i_sig = dft_extract(i_w, args.fundamental, args.orders, args.interharmonics)
    layout = BasisLayout.for_signals(u_sig, i_sig)
    u = to_phasor(u_sig, layout)
    i = to_phasor(i_sig, layout)
    ys = estimate_admittances(u, i)
    cc = decompose_currents(u, i, ys)
    thd_u, thd_i = thd(u_sig), thd(i_sig)  # exit 2 without a fundamental
    if args.timeseries:
        _write_text(_timeseries_csv(u_w, i_w, cc), args.timeseries)
    if args.format == "csv":
        return _decomposition_csv(cc)
    report = power_report(u, i)
    waveform = {
        "rms_u": rms(u_w),
        "rms_i": rms(i_w),
        "thd_u": thd_u,
        "thd_i": thd_i,
        "active_power_w": active_power(u_w, i_w),
    }
    if args.format == "json":
        return _json(
            {
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
        ) + ["\n"]
    return _spaced(
        [
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
    )


def cmd_decompose(args) -> list[str]:
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
        return _decomposition_csv(cc)
    if args.format == "json":
        return _json(
            {
                "voltage_spectrum": _spectrum_json(u_sig),
                "current_spectrum": _spectrum_json(i_sig),
                "currents": _currents_json(cc, ys),
            }
        ) + ["\n"]
    return _spaced([_decomposition_table(cc), _compensation_table(ys)])


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _write_text(args.run(args), args.out)
    except (SchemaError, WaveformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PowerAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
