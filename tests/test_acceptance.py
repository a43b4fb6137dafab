"""Acceptance gate.

Each criterion is one test that prints a single ``PASS``/``FAIL`` line
(run with ``-s`` to see the lines for passing tests too) and then asserts.

Criterion 3 is split in two: the pipeline/norms/runtime checks, and the
per-order reactive-power column.  The column's expected values come from
the complex-phasor oracle (``tests/oracles.py::pq_complex``) applied to
the same two-decimal rows the pipeline samples, so the check compares the
signed ``Q_k`` with a value that follows from its own inputs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import (
    BENCH_CURRENT_ROWS,
    BENCH_F0_HZ,
    BENCH_FS_HZ,
    BENCH_SAMPLES,
    BENCH_VOLTAGE_ROWS,
    OMEGA1_F0_HZ,
    index_terms,
    power_terms,
    rows_to_signal,
)
from gapower.circuit import SeriesRLC, admittances_for, solve_current
from gapower.decompose import decompose_currents, fryze_split
from gapower.phasor import (
    BasisLayout,
    GeometricPhasor,
    SpectralSignal,
    to_phasor,
)
from gapower.power import apparent, geometric_power, harmonic_pq
from gapower.waveform import dft_extract, sample_signal

from oracles import mv_product_brute, reverse_brute

SEED = 20260815


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def lines_by_order(sig: SpectralSignal) -> dict[float, tuple[float, float]]:
    """order -> (rms, phase_rad) of each line of ``sig``."""
    return dict(zip(
        sig.orders.tolist(), zip(sig.rms.tolist(), sig.phase_rad.tolist())
    ))


def terms_close(x: dict, y: dict, tol: float = 1e-9) -> bool:
    """Index-tuple term maps equal term by term."""
    return all(close(x.get(k, 0.0), y.get(k, 0.0), tol) for k in x.keys() | y.keys())


def report(criterion: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\n{status} {criterion}{extra}")
    assert not failures, "; ".join(failures)


def example_source() -> GeometricPhasor:
    sig = SpectralSignal(
        OMEGA1_F0_HZ,
        orders=[1, 3],
        rms=[100.0, 100.0],
    )
    return to_phasor(sig, BasisLayout(n=3))


def check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_exact_two_harmonic_solve():
    u = example_source()
    net = SeriesRLC(r=1.0, l=0.5, c=2.0 / 3.0)
    i = solve_current(u, admittances_for(net, u))
    m = geometric_power(u, i)
    s = apparent(m)

    failures: list[str] = []
    want_i = {(1,): 50.0, (2,): 50.0, (5,): -50.0, (6,): 50.0}
    want_m = {
        (): 10000.0,
        (1, 2): -5000.0,
        (5, 6): 5000.0,
        (1, 6): -5000.0,
        (2, 5): -5000.0,
    }
    check(failures, terms_close(index_terms(i), want_i, 1e-6), f"current {i}")
    check(failures, terms_close(power_terms(m), want_m, 1e-6), f"power {m}")
    check(failures, close(s, 10000.0 * math.sqrt(2.0), 1e-6), f"apparent {s}")
    check(failures, f"{s:.6g}" == "14142.1", f"apparent renders as {s:.6g}")

    best = min(
        _timed(lambda: apparent(
            geometric_power(u, solve_current(u, admittances_for(net, u)))
        ))
        for _ in range(5)
    )
    check(failures, best < 1e-3, f"runtime {best * 1e3:.3f} ms")
    report(
        "criterion 1: exact two-harmonic solve",
        failures,
        f"runtime {best * 1e3:.3f} ms",
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- criterion 2 ------------------------------------------------------------

def test_criterion_2_unequal_conductance_variant():
    u = example_source()
    net = SeriesRLC(r=1.0, l=0.5, c=2.0 / 7.0)
    i = solve_current(u, admittances_for(net, u))
    m = geometric_power(u, i)

    failures: list[str] = []
    want_m = {
        (): 10000.0,
        (1, 2): -3000.0,
        (5, 6): 3000.0,
        (1, 6): -3000.0,
        (2, 5): -3000.0,
        (2, 6): 8000.0,
    }
    check(failures, terms_close(power_terms(m), want_m, 1e-6), f"power {m}")
    check(
        failures,
        close(apparent(m), 10000.0 * math.sqrt(2.0), 1e-6),
        "apparent changed",
    )

    cc = decompose_currents(u, i, admittances_for(net, u))
    for name, want in (
        ("i_a", 70.71),
        ("i_s", 56.56),
        ("i_p", 90.55),
        ("i_q", 42.42),
        ("i", 100.00),
    ):
        got = cc.norms()[name]
        check(failures, abs(got - want) <= 0.01, f"|{name}| = {got:.4f} not {want}")
    report("criterion 2: unequal-conductance variant", failures)


# -- criterion 3 ------------------------------------------------------------

def _bench_pipeline():
    u_sig = rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ)
    i_sig = rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ)
    u_w = sample_signal(u_sig, BENCH_FS_HZ, BENCH_SAMPLES)
    i_w = sample_signal(i_sig, BENCH_FS_HZ, BENCH_SAMPLES)
    layout = BasisLayout(n=9)
    u = to_phasor(dft_extract(u_w, BENCH_F0_HZ, n=9), layout)
    i = to_phasor(dft_extract(i_w, BENCH_F0_HZ, n=9), layout)
    m = geometric_power(u, i)
    cc = decompose_currents(u, i)
    return u, i, m, cc


def test_criterion_3_benchmark_recording():
    t0 = time.perf_counter()
    u, i, m, cc = _bench_pipeline()
    elapsed = time.perf_counter() - t0

    failures: list[str] = []
    check(
        failures,
        abs(m.scalar - 359.21) <= 0.01 * 359.21,
        f"M_a = {m.scalar:.4f} not within 1% of 359.21",
    )
    norms = cc.norms()
    for name, want in (
        ("i_p", 1.629),
        ("i_a", 1.535),
        ("i_s", 0.548),
        ("i_q", 2.035),
        ("i_N", 2.108),
        ("i", 2.607),
    ):
        got = norms[name]
        check(
            failures,
            abs(got - want) <= 0.02 * want,
            f"|{name}| = {got:.4f} not within 2% of {want}",
        )
    check(failures, elapsed < 1.0, f"runtime {elapsed:.3f} s")
    report(
        "criterion 3: benchmark recording pipeline",
        failures,
        f"M_a {m.scalar:.2f} W, runtime {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_reactive_power_column():
    """Signed Q_k of orders 1-9 against the complex-phasor oracle.

    Each expected value is ``pq_complex`` on the same rows the pipeline
    samples, and the comparison is signed, so a flipped sign fails on
    every order.  The stated 0.05 VAr bound is kept; the 1e-6 relative
    bound of the extraction round trip (criterion 6) is added because
    0.05 VAr alone is 80 % of |Q_9| and would leave the small orders
    unchecked.

    The dataset's published column, |Q_k| = {1: 408.50, 3: 0.425,
    5: 0.346, 7: 1.955, 9: 0.062} VAr, is not the expected value because
    it does not follow from the two-decimal rows: moving every rms and
    phase by half a unit in its last place (+/-0.005) spans
    |Q_1| in [404.98, 413.94], wider than any 0.05 VAr bound, and
    |Q_3| in [0.4065, 0.4221], which excludes 0.425.  The rows as given
    yield Q_1 = -409.47 VAr.
    """
    from oracles import pq_complex

    u, i, _, _ = _bench_pipeline()
    orders, _, q = harmonic_pq(u, i)
    per_q = dict(zip(orders.tolist(), q.tolist()))
    expected = {
        k: pq_complex(u_rms, u_ph, i_rms, i_ph)[1]
        for (k, u_rms, u_ph), (_, i_rms, i_ph) in zip(
            BENCH_VOLTAGE_ROWS, BENCH_CURRENT_ROWS, strict=True
        )
    }

    failures: list[str] = []
    for order in (1, 3, 5, 7, 9):
        want = expected[order]
        got = per_q[float(order)]
        check(
            failures,
            abs(got - want) <= 0.05 and abs(got - want) <= 1e-6 * abs(want),
            f"Q_{order} = {got:.6f} not within 0.05 VAr and 1e-6 of {want:.6f}",
        )
    report("criterion 3 (reactive column): signed Q_k against oracle", failures)


# -- criterion 4 ------------------------------------------------------------

def test_criterion_4_property_suite_random_instances():
    rng = np.random.default_rng(SEED)
    failures: list[str] = []
    checked = 0

    for trial in range(10_000):
        n = int(rng.integers(1, 6))
        layout = BasisLayout(n=n)
        dim = layout.dimension  # 3..11, within the <= 12 bound

        def rand_vector() -> GeometricPhasor:
            k = int(rng.integers(1, min(dim, 6) + 1))
            slots = rng.choice(dim, size=k, replace=False)
            coeffs = np.zeros(dim)
            coeffs[slots] = rng.uniform(-10, 10, size=k)
            return GeometricPhasor(coeffs, layout, 50.0)

        def rand_mv() -> dict:
            # k distinct blades, each an ascending index tuple of its mask
            k = int(rng.integers(1, 5))
            masks = rng.choice(2**dim, size=k, replace=False)
            return {
                tuple(b for b in range(dim) if int(mk) >> b & 1):
                    float(rng.uniform(-2, 2))
                for mk in masks
            }

        u = rand_vector()
        if u.norm() < 1e-3:
            continue
        i = rand_vector()

        s = apparent(geometric_power(u, i))
        if not close(s, u.norm() * i.norm()):
            failures.append(f"trial {trial}: |M| != |u||i|")
        i_a, i_n = fryze_split(u, i)
        if not close(i.norm() ** 2, i_a.norm() ** 2 + i_n.norm() ** 2):
            failures.append(f"trial {trial}: fryze split not orthogonal")
        cc = decompose_currents(u, i)
        lhs = i.norm() ** 2
        rhs = cc.i_p.norm() ** 2 + cc.i_q.norm() ** 2 + cc.i_G.norm() ** 2
        if not close(lhs, rhs):
            failures.append(f"trial {trial}: parallel/quadrature split broken")

        a, b, c = rand_mv(), rand_mv(), rand_mv()
        mul = mv_product_brute
        ab = mul(a, b)
        if not terms_close(mul(a, mul(b, c)), mul(ab, c)):
            failures.append(f"trial {trial}: associativity")
        if not terms_close(reverse_brute(ab), mul(reverse_brute(b), reverse_brute(a))):
            failures.append(f"trial {trial}: reverse anti-automorphism")
        checked += 1
        if failures:
            break

    report(
        "criterion 4: invariant suite on random instances",
        failures,
        f"{checked} instances",
    )


# -- criterion 5 ------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    from oracles import branch_current_complex, pair_from_complex, pq_complex

    rng = np.random.default_rng(SEED + 1)
    failures: list[str] = []

    def rand_signal(f0: float) -> SpectralSignal:
        orders = sorted(
            int(o) for o in rng.choice(np.arange(1, 10), size=3, replace=False)
        )
        rms, phase = zip(*(
            (float(rng.uniform(0.1, 200)), float(rng.uniform(-np.pi, np.pi)))
            for _ in orders
        ))
        return SpectralSignal(f0, orders=orders, rms=rms, phase_rad=phase)

    for trial in range(1_000):
        f0 = float(rng.uniform(1.0, 400.0))
        u_sig, i_sig = rand_signal(f0), rand_signal(f0)
        layout = BasisLayout.for_signals(u_sig, i_sig)
        u, i = to_phasor(u_sig, layout), to_phasor(i_sig, layout)

        by_u, by_i = lines_by_order(u_sig), lines_by_order(i_sig)
        for order, p, q in zip(*(a.tolist() for a in harmonic_pq(u, i))):
            cu = by_u.get(order)
            ci = by_i.get(order)
            if cu is None or ci is None:
                want_p, want_q = 0.0, 0.0
            else:
                want_p, want_q = pq_complex(*cu, *ci)
            if not (close(p, want_p) and close(abs(q), abs(want_q))):
                failures.append(f"trial {trial}: PQ mismatch at order {order}")

        net = SeriesRLC(
            r=float(rng.uniform(0.5, 10.0)),
            l=float(rng.uniform(0.0, 1.0)),
            c=float(rng.uniform(0.05, 5.0)) if rng.uniform() < 0.7 else None,
        )
        i_net = solve_current(u, admittances_for(net, u))
        for order, (rms, phase) in by_u.items():
            z = branch_current_complex(
                rms, phase, net.r, net.l, net.c, order, u_sig.omega
            )
            want_odd, want_even = pair_from_complex(z)
            got_odd, got_even = i_net.pairs[layout.orders() == order][0]
            if not (close(got_odd, want_odd) and close(got_even, want_even)):
                failures.append(f"trial {trial}: Ohm mismatch at order {order}")
        if failures:
            break

    report("criterion 5: complex-phasor oracle equivalence", failures)


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_extraction_round_trip():
    rng = np.random.default_rng(SEED + 2)
    failures: list[str] = []

    for trial in range(300):
        f0 = float(rng.uniform(1.0, 400.0))
        n_orders = int(rng.integers(1, 7))
        orders = sorted(
            int(o) for o in rng.choice(np.arange(1, 16), size=n_orders, replace=False)
        )
        dc = float(rng.uniform(-5, 5))
        rms, phase = zip(*(
            (float(rng.uniform(0.01, 100)), float(rng.uniform(-np.pi, np.pi)))
            for _ in orders
        ))
        src = SpectralSignal(f0, dc=dc, orders=orders, rms=rms, phase_rad=phase)
        periods = int(rng.choice([2, 3, 4]))
        per_period = int(rng.choice([64, 100, 128]))
        w = sample_signal(src, per_period * f0, periods * per_period)
        out = dft_extract(w, f0, n=15)

        if not close(out.dc, src.dc, 1e-6):
            failures.append(f"trial {trial}: dc")
        got = lines_by_order(out)
        if sorted(got) != [float(k) for k in orders]:
            failures.append(f"trial {trial}: orders {sorted(got)}")
        else:
            for order, (rms, phase) in lines_by_order(src).items():
                g_rms, g_phase = got[order]
                rms_ok = close(g_rms, rms, 1e-6)
                ph_ok = abs(math.remainder(g_phase - phase, math.tau)) < 1e-6
                if not (rms_ok and ph_ok):
                    failures.append(f"trial {trial}: order {order}")
        if failures:
            break

    report("criterion 6: spectral round trip", failures)
