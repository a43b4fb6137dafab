"""Command-line front end.

Three subcommands cover the pipeline: ``solve`` (circuit JSON + source
spectrum JSON), ``analyze`` (sampled CSV recording) and ``decompose``
(voltage + current spectrum JSON).  Output goes to stdout or ``--out`` as
a table, JSON document or the decomposition CSV; every number is printed
with 6 significant digits so identical inputs give identical bytes.

Exit codes: 0 success, 1 computation error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable

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
from .power import power_report
from .waveform import active_power, dft_extract, load_csv, rms, thd

FORMATS = ("table", "json", "csv")


# -- number formatting ------------------------------------------------

def _fmt6(x: float) -> str:
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


def _round_doc(obj):
    """Recursively clamp floats to 6 significant digits for JSON output."""
    if isinstance(obj, float):
        v = float(_fmt6(obj))
        return 0.0 if v == 0 else v
    if isinstance(obj, dict):
        return {k: _round_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_doc(v) for v in obj]
    return obj


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _fmt6(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _table(title: str, header: list[str], rows: list[list]) -> str:
    cells = [header] + [[_cell(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    out = [title]
    for r in cells:
        out.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


# -- input documents ---------------------------------------------------

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _signal_from_file(path: str) -> SpectralSignal:
    try:
        return SpectralSignal.from_dict(_load_json(path))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _circuit_from_dict(data) -> SeriesRLC:
    if not isinstance(data, dict):
        raise SchemaError("circuit document must be a JSON object")
    known = {"r_ohm", "l_henry", "c_farad"}
    for key in data:
        if key not in known:
            raise SchemaError(f"unknown circuit field {key!r}")

    def number(key, default):
        value = data.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{key} must be a number")
        return float(value)

    r = number("r_ohm", 0.0)
    l = number("l_henry", 0.0)
    c = number("c_farad", None)
    try:
        return SeriesRLC(r=r, l=l, c=c)
    except PowerAnalysisError as exc:
        raise SchemaError(str(exc)) from exc


# -- report fragments --------------------------------------------------

def _order_key(order: float):
    return int(order) if float(order).is_integer() else order


def _currents_doc(cc: CurrentComponents, ys) -> dict:
    rows = []
    for row in cc.table_rows():
        if row[0] == "norm":
            continue
        rows.append(
            {"index": row[0], **{c: v for c, v in zip(CSV_COLUMNS, row[1:])}}
        )
    return {
        "norms": cc.norms(),
        "rows": rows,
        "compensation_susceptances": [
            {"order": _order_key(order), "siemens": b}
            for order, b in compensation_susceptances(ys)
        ],
    }


def _decomposition_csv(cc: CurrentComponents) -> str:
    return _csv_text(["index", *CSV_COLUMNS], cc.table_rows())


def _decomposition_table(cc: CurrentComponents) -> str:
    return _table(
        "Current decomposition (A)", ["index", *CSV_COLUMNS], cc.table_rows()
    )


def _power_tables(report) -> str:
    doc = report.to_dict()
    parts = [
        _table(
            "Power summary",
            ["p_w", "apparent_va", "pf"],
            [[doc["p_w"], doc["apparent_va"],
              "n/a" if doc["pf"] is None else doc["pf"]]],
        ),
        _table(
            "Per-harmonic P/Q",
            ["order", "p_w", "q_var"],
            [[_order_key(h["order"]), h["p_w"], h["q_var"]]
             for h in doc["per_harmonic"]],
        ),
    ]
    if doc["cross_terms"]:
        parts.append(
            _table(
                "Cross-frequency terms",
                ["blade", "va"],
                [["s%d s%d" % tuple(t["blade_indices"]), t["va"]]
                 for t in doc["cross_terms"]],
            )
        )
    return "\n".join(parts)


def _compensation_table(ys) -> str:
    return _table(
        "Compensation susceptances (S)",
        ["order", "siemens"],
        [[_order_key(o), b] for o, b in compensation_susceptances(ys)],
    )


def _spectrum_table(u_sig: SpectralSignal, i_sig: SpectralSignal) -> str:
    orders = sorted(
        {c.order for c in u_sig.components()} | {c.order for c in i_sig.components()}
    )
    by_order_u = {c.order: c for c in u_sig.components()}
    by_order_i = {c.order: c for c in i_sig.components()}
    rows = []
    if u_sig.dc or i_sig.dc:
        rows.append(["dc", u_sig.dc, "", i_sig.dc, ""])
    for o in orders:
        cu = by_order_u.get(o)
        ci = by_order_i.get(o)
        rows.append(
            [
                _order_key(o),
                cu.rms if cu else 0.0,
                cu.phase_rad if cu else "",
                ci.rms if ci else 0.0,
                ci.phase_rad if ci else "",
            ]
        )
    return _table(
        "Spectra", ["order", "u_rms", "u_phase", "i_rms", "i_phase"], rows
    )


def _emit(
    doc: dict, cc: CurrentComponents, tables: Callable[[], str], fmt: str
) -> str:
    """Render ``fmt``; ``tables`` builds the table text and is called only
    when that is the format asked for."""
    if fmt == "json":
        return json.dumps(_round_doc(doc), indent=2) + "\n"
    if fmt == "csv":
        return _decomposition_csv(cc)
    return tables()


# -- subcommands -------------------------------------------------------

def cmd_solve(args) -> str:
    source = _signal_from_file(args.source)
    net = _circuit_from_dict(_load_json(args.circuit))
    layout = BasisLayout.for_signals(source)
    u = to_phasor(source, layout)
    i = solve_current(u, net)
    ys = admittances_for(net, u)
    report = power_report(u, i)
    cc = decompose_currents(u, i, ys)
    doc = {
        "circuit": {"r_ohm": net.r, "l_henry": net.l, "c_farad": net.c},
        "source": source.to_dict(),
        "current_spectrum": from_phasor(i).to_dict(),
        "power": report.to_dict(),
        "currents": _currents_doc(cc, ys),
    }

    def tables() -> str:
        return "\n".join(
            [
                _spectrum_table(source, from_phasor(i)),
                _power_tables(report),
                _decomposition_table(cc),
                _compensation_table(ys),
            ]
        )

    return _emit(doc, cc, tables, args.format)


def cmd_analyze(args) -> str:
    u_w, i_w = load_csv(args.input)
    u_sig = dft_extract(u_w, args.fundamental, args.orders, args.interharmonics)
    i_sig = dft_extract(i_w, args.fundamental, args.orders, args.interharmonics)
    layout = BasisLayout.for_signals(u_sig, i_sig)
    u = to_phasor(u_sig, layout)
    i = to_phasor(i_sig, layout)
    report = power_report(u, i)
    ys = estimate_admittances(u, i)
    cc = decompose_currents(u, i, ys)
    doc = {
        "input": {
            "path": args.input,
            "samples": u_w.n,
            "sample_rate_hz": u_w.sample_rate_hz,
            "duration_s": u_w.duration_s,
        },
        "waveform": {
            "rms_u": rms(u_w),
            "rms_i": rms(i_w),
            "thd_u": thd(u_sig),
            "thd_i": thd(i_sig),
            "active_power_w": active_power(u_w, i_w),
        },
        "voltage_spectrum": u_sig.to_dict(),
        "current_spectrum": i_sig.to_dict(),
        "power": report.to_dict(),
        "currents": _currents_doc(cc, ys),
    }
    if args.timeseries:
        _write_text(_timeseries_csv(u_w, i_w, cc), args.timeseries)
    wf = doc["waveform"]

    def tables() -> str:
        return "\n".join(
            [
                _table(
                    "Waveform",
                    ["rms_u", "rms_i", "thd_u", "thd_i", "active_power_w"],
                    [[wf["rms_u"], wf["rms_i"], wf["thd_u"], wf["thd_i"],
                      wf["active_power_w"]]],
                ),
                _spectrum_table(u_sig, i_sig),
                _power_tables(report),
                _decomposition_table(cc),
                _compensation_table(ys),
            ]
        )

    return _emit(doc, cc, tables, args.format)


def cmd_decompose(args) -> str:
    u_sig = _signal_from_file(args.voltage)
    i_sig = _signal_from_file(args.current)
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
    doc = {
        "voltage_spectrum": u_sig.to_dict(),
        "current_spectrum": i_sig.to_dict(),
        "currents": _currents_doc(cc, ys),
    }

    def tables() -> str:
        return "\n".join([_decomposition_table(cc), _compensation_table(ys)])

    return _emit(doc, cc, tables, args.format)


def _timeseries_csv(u_w, i_w, cc: CurrentComponents) -> str:
    t = np.arange(u_w.n) / u_w.sample_rate_hz
    ia_t = reconstruct(from_phasor(cc.i_a), t)
    in_t = reconstruct(from_phasor(cc.i_N), t)
    rows = [
        [tv, uv, iv, uv * iv, av, nv]
        for tv, uv, iv, av, nv in zip(
            t, u_w.samples, i_w.samples, ia_t, in_t
        )
    ]
    return _csv_text(["t_s", "u", "i", "p", "i_a", "i_N"], rows)


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        text = args.run(args)
    except (SchemaError, WaveformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PowerAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_text(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
