"""Per-layer tracing from outside the program.

``install`` wraps the public functions of the pipeline under every module
name their callers resolve them by (``gapower.cli`` imports most of them;
``power_report`` calls ``geometric_power`` inside ``gapower.power``;
``Multivector.__mul__`` calls ``geometric_product`` inside
``gapower.algebra``), so spans nest the way the calls do.  A function that
no longer exists is skipped and later reported as an absent span (all
zeros), so refactors that delete or move functions do not break the run.

Spans are kept in memory in ``Recorder.spans``; the parent
turns them into per-layer metrics with ``summarize``.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> (module defining the function, attribute name)
SPANS = {
    "waveform.load_csv": ("gapower.waveform", "load_csv"),
    "waveform.dft_extract": ("gapower.waveform", "dft_extract"),
    "phasor.to_phasor": ("gapower.phasor", "to_phasor"),
    "phasor.from_phasor": ("gapower.phasor", "from_phasor"),
    "algebra.geometric_product": ("gapower.algebra", "geometric_product"),
    "power.geometric_power": ("gapower.power", "geometric_power"),
    "power.power_report": ("gapower.power", "power_report"),
    "decompose.estimate_admittances": ("gapower.decompose", "estimate_admittances"),
    "decompose.decompose_currents": ("gapower.decompose", "decompose_currents"),
    "circuit.admittances_for": ("gapower.circuit", "admittances_for"),
    "circuit.solve_current": ("gapower.circuit", "solve_current"),
    "cli.main": ("gapower.cli", "main"),
}

# Modules searched for bindings of the functions above.
CALLER_MODULES = (
    "gapower.cli", "gapower.power", "gapower.algebra", "gapower.circuit",
    "gapower.decompose", "gapower.phasor", "gapower.waveform",
)


def _terms(x) -> int:
    return len(x.mv.terms)


def _blade_pairs(args, out):
    return {"blade_pairs": len(args[0].terms) * len(args[1].terms)}


def _rows(args, out):
    return {"rows": out[0].n}


def _orders(args, out):
    asked = args[2] + len(args[3] if len(args) > 3 else ())
    return {"orders_asked": asked,
            "orders_kept": len(out.harmonics) + len(out.interharmonics)}


def _dim(args, out):
    return {"dim": out.layout.dimension}


def _m_terms(args, out):
    return {"m_terms": _terms(out)}


def _report(args, out):
    return {"nnz": _terms(args[0]) + _terms(args[1]),
            "cross_terms": len(out.cross_terms)}


# Size counters taken from a call's arguments and result.  They are read
# after the span's clock stops; one that no longer fits the program's
# types is dropped rather than failing the run.
COUNTERS = {
    "algebra.geometric_product": _blade_pairs,
    "waveform.load_csv": _rows,
    "waveform.dft_extract": _orders,
    "phasor.to_phasor": _dim,
    "power.geometric_power": _m_terms,
    "power.power_report": _report,
}


class Recorder:
    """In-memory span log of one invocation."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, start, end, error, counts]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, time.perf_counter(), 0.0, False, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[3] = time.perf_counter()
                span[4] = True
                raise
            finally:
                self._stack.pop()
            span[3] = time.perf_counter()
            if count is not None:
                try:
                    span[5] = count(args, out)
                except (AttributeError, IndexError, TypeError):
                    pass
            return out

        return traced


def install() -> tuple[Recorder, list[str]]:
    """Wrap every traced function under each module binding it; return
    the recorder and the span names that were found."""
    rec = Recorder()
    modules = [importlib.import_module(m) for m in CALLER_MODULES]
    found = []
    for name, (module, attr) in SPANS.items():
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            continue
        found.append(name)
        traced = rec.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    return rec, found


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one invocation: for each span name its total
    time ``.s``, self time ``.self_s``, ``.calls`` and ``.errors``, plus
    the summed size counters.  No traced function calls itself, so a
    name's spans never overlap."""
    out: dict[str, float] = {}
    for name in SPANS:
        for suffix in (".s", ".self_s", ".calls", ".errors"):
            out[name + suffix] = 0
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    counts: dict[str, float] = {}
    for index, (name, _, start, end, error, sizes) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".errors"] += int(error)
        out[name + ".s"] += end - start
        out[name + ".self_s"] += end - start - child_time[index]
        for key, value in sizes.items():
            counts[key] = counts.get(key, 0) + value
    out["waveform.load_csv.rows"] = counts.get("rows", 0)
    asked = counts.get("orders_asked", 0)
    out["waveform.dft_extract.orders_kept_ratio"] = (
        counts.get("orders_kept", 0) / asked if asked else 0.0
    )
    out["phasor.dim"] = max(
        (f.get("dim", 0) for *_, f in spans), default=0
    )
    out["phasor.nnz"] = counts.get("nnz", 0)
    out["algebra.blade_pairs"] = counts.get("blade_pairs", 0)
    out["power.m_terms"] = counts.get("m_terms", 0)
    out["power.cross_terms"] = counts.get("cross_terms", 0)
    out["cli.self.s"] = out.pop("cli.main.self_s")
    return out

