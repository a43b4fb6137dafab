"""Sampled-waveform ingest: CSV parsing, DFT extraction, THD, sample power."""

from __future__ import annotations

import cmath
import io
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    BENCH_CURRENT_ROWS,
    BENCH_F0_HZ,
    BENCH_FS_HZ,
    BENCH_SAMPLES,
    BENCH_VOLTAGE_ROWS,
    rows_to_signal,
)
from gapower import waveform
from gapower.errors import WaveformError
from gapower.phasor import (
    BasisLayout,
    SpectralSignal,
    to_phasor,
)
from gapower.power import apparent, geometric_power
from gapower.waveform import (
    _COMPRESSED_SUFFIXES,
    SampledWaveform,
    active_power,
    dft_extract,
    load_csv,
    rms,
    sample_signal,
    thd,
)
from oracles import dft_bins_brute, parse_rows_brute, pq_complex


def bench_waveforms() -> tuple[SampledWaveform, SampledWaveform]:
    u = sample_signal(
        rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ), BENCH_FS_HZ, BENCH_SAMPLES
    )
    i = sample_signal(
        rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ), BENCH_FS_HZ, BENCH_SAMPLES
    )
    return u, i


def phase_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, math.tau))


# -- SampledWaveform ----------------------------------------------------------

def test_waveform_basics():
    w = SampledWaveform([0.0, 1.0, 0.0, -1.0], 4.0)
    assert w.n == 4
    assert w.duration_s == pytest.approx(1.0)
    with pytest.raises(ValueError):
        w.samples[0] = 9.0  # stored array is frozen


@pytest.mark.parametrize(
    "samples,rate",
    [
        ([], 1.0),
        ([[1.0, 2.0]], 1.0),
        ([1.0, float("nan")], 1.0),
        ([1.0], 0.0),
        ([1.0], -5.0),
    ],
)
def test_waveform_rejects(samples, rate):
    with pytest.raises(WaveformError):
        SampledWaveform(samples, rate)


# -- load_csv ----------------------------------------------------------------

class _Unseekable(io.StringIO):
    """A text stream that cannot seek, like a pipe."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


def csv_sources(text: str, directory) -> dict:
    """``text`` as an in-memory stream and as a stream that cannot seek
    (both read by the row loop), and as a file (parsed by numpy in one
    pass, with the row loop as fallback).  The streams split lines at
    ``\\n``, ``\\r\\n`` and ``\\r`` but hand them over with their raw
    endings, unlike a file opened in text mode."""
    path = directory / "rec.csv"
    path.write_bytes(text.encode())  # line endings exactly as given
    return {
        "stream": io.StringIO(text, newline=""),
        "file": path,
        "unseekable": _Unseekable(text, newline=""),
    }


def test_load_csv_happy_path(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(
        "# fs_hz = 1000\n"
        "0.5, 0.1\n"
        "\n"
        "# a comment mid-file\n"
        " \t \n"
        "-0.5, -0.1\n"
        "1_0,2\n"
    )
    u, i = load_csv(path)
    assert u.sample_rate_hz == 1000.0 == i.sample_rate_hz
    assert np.allclose(u.samples, [0.5, -0.5, 10.0])
    assert np.allclose(i.samples, [0.1, -0.1, 2.0])


def test_load_csv_stream_and_header_variants():
    u, _ = load_csv(io.StringIO("#fs_hz=2.5e3\n1,2\n3,4\n"))
    assert u.sample_rate_hz == 2500.0
    assert u.n == 2


def fifo_rows(n: int) -> str:
    return "# fs_hz = 1000\n" + "".join(f"{k * 0.25!r},{-k / 7!r}\n" for k in range(n))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_csv_reads_every_row_of_a_fifo(tmp_path):
    # A FIFO named by path (like /dev/stdin fed by a pipe) can be read
    # once only: a second reader would see only the rows the first left.
    text = fifo_rows(50_000)
    path = tmp_path / "rec.fifo"
    os.mkfifo(path)

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        u, i = load_csv(path)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    rate, u_want, i_want = parse_rows_brute(text)
    assert u.sample_rate_hz == rate
    assert np.array_equal(u.samples, u_want)
    assert np.array_equal(i.samples, i_want)


def loadtxt_sources(monkeypatch) -> list:
    """Record what ``load_csv`` hands ``np.loadtxt``; a URL-like name is
    refused before numpy could try to fetch it."""
    seen = []
    real = np.loadtxt

    def spy(source, *args, **kwargs):
        seen.append(source)
        assert not (isinstance(source, str) and "://" in source), source
        return real(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return seen


@pytest.mark.parametrize(
    "name, by_name",
    [
        ("rec.csv", True),
        ("rec.CSV.XZ", False),
        ("rec.csv.gz", False),
        ("rec.csv.lzma", False),
        ("http://host/rec.csv", False),
    ],
)
def test_load_csv_hands_numpy_only_plain_local_names(tmp_path, monkeypatch, name, by_name):
    text = "\n \n# fs_hz = 100\n" + good_rows(10)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    seen = loadtxt_sources(monkeypatch)
    u, i = load_csv(name)
    assert seen == ([name] if by_name else [])
    _, u_want, i_want = parse_rows_brute(text)
    assert np.array_equal(u.samples, u_want) and np.array_equal(i.samples, i_want)


def test_load_csv_hands_a_commented_file_to_numpy_once(tmp_path, monkeypatch):
    # numpy skips the comments itself, so one '#' mid-file does not send
    # a long recording through the row loop
    rows = good_rows(3000).splitlines(keepends=True)
    rows[1000] = "# operator note\n"
    rows[2000] = rows[2000].replace("\n", " # trailing note\n")
    text = "# fs_hz = 100\n" + "".join(rows)
    path = tmp_path / "rec.csv"
    path.write_text(text)
    seen = loadtxt_sources(monkeypatch)

    def no_row_loop(*args):
        raise AssertionError("the row loop read a file numpy can read")

    monkeypatch.setattr(waveform, "_parse_rows", no_row_loop)
    u, i = load_csv(path)
    assert seen == [str(path)]
    _, u_want, i_want = parse_rows_brute(text)
    assert u.n == 2999
    assert np.array_equal(u.samples, u_want) and np.array_equal(i.samples, i_want)


def test_compressed_suffixes_cover_numpys_openers():
    # numpy's datasource picks a decompressor by suffix (a private table);
    # one it learns later must join the guard before a plain recording
    # with that suffix reaches numpy by name.
    from numpy.lib import _datasource

    assert set(_datasource._file_openers.keys()) - {None} <= set(_COMPRESSED_SUFFIXES)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_load_csv_reads_plain_text_under_a_compressed_suffix(tmp_path, suffix):
    text = "# fs_hz = 100\n" + good_rows(3000)
    plain = tmp_path / "rec.csv"
    plain.write_text(text)
    named = tmp_path / f"rec.csv{suffix}"
    named.write_text(text)
    for want, got in zip(load_csv(plain), load_csv(named)):
        assert np.array_equal(got.samples, want.samples)


def good_rows(n: int) -> str:
    return "".join(f"{k * 0.25},{-k}\n" for k in range(n))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("\n  \n", "empty input"),
        ("0.5,0.1\n", "line 1"),
        ("# rate = 100\n1,2\n", "line 1"),
        ("# fs_hz = fast\n1,2\n", "not a number"),
        ("# fs_hz = -100\n1,2\n", "must be > 0"),
        ("# fs_hz = 100\n1.5\n", "single column"),
        ("# fs_hz = 100\n1,2,3\n", "expected 2"),
        ("# fs_hz = 100\n1,#2\n", "line 2"),
        ("# fs_hz = 100\n1,2,3 # c\n", "expected 2"),
        ("# fs_hz = 100\n\n1,x\n", "line 3"),
        ("# fs_hz = 100\n# only comments\n", "no data rows"),
        pytest.param("# fs_hz = 100\n", "no data rows", id="header-only"),
        pytest.param("# fs_hz = 100\n\n\n", "no data rows", id="header-blank-lines"),
        pytest.param(
            "# fs_hz = 100\n" + good_rows(1999) + "1,x\n",
            "line 2001: non-numeric",
            id="bad-row-after-1999-rows",
        ),
        pytest.param(
            "# fs_hz = 100\n" + good_rows(1000) + "1,2,3\n",
            "line 1002: expected 2",
            id="3-columns-after-1000-rows",
        ),
        pytest.param("# fs_hz = 100\n1,2\nnan,3\n", "samples must be finite", id="nan"),
    ],
)
def test_load_csv_errors(tmp_path, text, fragment):
    for kind, source in csv_sources(text, tmp_path).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing but the error reaches the user
            with pytest.raises(WaveformError) as err:
                load_csv(source)
        assert fragment in str(err.value), kind


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"# fs_hz = 100\xff\n1,2\n", id="header"),
        # far past the first decoded block, so numpy's pass gives up first
        pytest.param(
            b"# fs_hz = 100\n" + good_rows(20000).encode() + b"1,\xff2\n",
            id="row-20002",
        ),
    ],
)
def test_load_csv_names_a_file_that_is_not_utf8(tmp_path, data):
    path = tmp_path / "rec.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WaveformError) as err:
            load_csv(path)
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


finite = st.floats(allow_nan=False, allow_infinity=False)
pad = st.text(alphabet=" \t", max_size=2)
trailing_comment = st.sampled_from(["", "", " # note", "#", "\t#1,2"])
csv_row = st.builds(
    lambda a, b, fmt, p, c: f"{p[0]}{fmt(a)}{p[1]},{p[2]}{fmt(b)}{p[3]}{c}",
    finite,
    finite,
    st.sampled_from([repr, "{:.12g}".format]),
    st.tuples(pad, pad, pad, pad),
    trailing_comment,
)
skipped_line = st.sampled_from(["", " ", "\t \t", "# comment", "  # 1,2"])


blank_line = st.sampled_from(["", " ", "\t \t"])


@st.composite
def recordings(draw) -> str:
    lines = draw(st.lists(csv_row, min_size=1, max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(skipped_line))
    header = f"# fs_hz = {draw(st.floats(1e-3, 1e6))!r}"
    leading = draw(st.lists(blank_line, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(leading + [header] + lines) + eol


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(recordings())
def test_load_csv_matches_brute_parser(csv_dir, text):
    rate, u_want, i_want = parse_rows_brute(text)
    for kind, source in csv_sources(text, csv_dir).items():
        u, i = load_csv(source)
        assert u.sample_rate_hz == rate == i.sample_rate_hz, kind
        assert np.array_equal(u.samples, u_want), kind
        assert np.array_equal(i.samples, i_want), kind


# -- rms ----------------------------------------------------------------------

def test_rms_of_unit_sine():
    t = np.arange(1024) / 1024.0
    w = SampledWaveform(math.sqrt(2.0) * np.sin(math.tau * t), 1024.0)
    assert rms(w) == pytest.approx(1.0, abs=1e-12)


def test_rms_of_constant():
    assert rms(SampledWaveform([5.0] * 8, 10.0)) == 5.0


def test_rms_of_bench_voltage():
    u, _ = bench_waveforms()
    assert rms(u) == pytest.approx(234.0, abs=0.1)


# -- dft_extract ----------------------------------------------------------------

def test_extract_two_harmonic_round_trip():
    src = SpectralSignal(
        50.0, orders=[1, 3], rms=[100.0, 100.0], phase_rad=[0.3, -1.2]
    )
    w = sample_signal(src, 64 * 50.0, 128)
    out = dft_extract(w, 50.0, n=3)
    assert out.dc == 0.0
    assert out.orders.tolist() == [1.0, 3.0]
    assert out.rms.tolist() == pytest.approx(src.rms.tolist(), abs=1e-9)
    for got, want in zip(out.phase_rad.tolist(), src.phase_rad.tolist()):
        assert phase_diff(got, want) < 1e-9


def test_extract_pure_dc():
    w = SampledWaveform([5.0] * 100, 50.0 * 50)
    out = dft_extract(w, 50.0, n=2)
    assert out.dc == pytest.approx(5.0, abs=1e-12)
    assert out.orders.size == 0


def test_extract_bench_recovers_reference_spectrum():
    u, i = bench_waveforms()
    for w, rows in ((u, BENCH_VOLTAGE_ROWS), (i, BENCH_CURRENT_ROWS)):
        got = dft_extract(w, BENCH_F0_HZ, n=9)
        assert got.orders.tolist() == [float(k) for k, _, _ in rows]
        for (_, amp, phase), g_amp, g_phase in zip(
            rows, got.rms.tolist(), got.phase_rad.tolist()
        ):
            assert g_amp == pytest.approx(amp, abs=0.01)
            assert phase_diff(g_phase, phase) < 0.01


def test_extract_interharmonic():
    src = SpectralSignal(
        50.0, orders=[1, 2.5], rms=[10.0, 3.0], phase_rad=[0.0, 0.7]
    )
    w = sample_signal(src, 64 * 50.0, 128)  # two periods: order 2.5 on bin 5
    out = dft_extract(w, 50.0, n=2, interharmonic_orders=(2.5,))
    assert out.orders[~out.harmonic].tolist() == [2.5]
    assert out.rms[-1] == pytest.approx(3.0, abs=1e-9)
    assert phase_diff(out.phase_rad[-1], 0.7) < 1e-9


def test_extract_rejects_off_bin_interharmonic():
    w = sample_signal(
        SpectralSignal(50.0, orders=[1], rms=[1.0]), 3200.0, 192
    )  # three periods: order 1.5 would land on bin 4.5
    with pytest.raises(WaveformError, match="bin"):
        dft_extract(w, 50.0, n=1, interharmonic_orders=(1.5,))


def test_extract_rejects_partial_period():
    w = SampledWaveform(np.zeros(100) + 1.0, 1000.0)
    with pytest.raises(WaveformError, match="integer number"):
        dft_extract(w, 31.0, n=1)


def test_extract_rejects_single_period():
    w = SampledWaveform(np.ones(64), 64.0 * 50)
    with pytest.raises(WaveformError, match="at least 2"):
        dft_extract(w, 50.0, n=1)


def test_extract_rejects_orders_beyond_nyquist():
    w = SampledWaveform(np.ones(20), 10.0 * 50)
    with pytest.raises(WaveformError, match="Nyquist"):
        dft_extract(w, 50.0, n=5)


def test_extract_refuses_a_huge_order_count_in_bounded_memory():
    # the bench window holds 10 periods, so order 157 is the first at or
    # beyond its Nyquist bin; the two million orders are never listed
    u, _ = bench_waveforms()
    tracemalloc.start()
    try:
        with pytest.raises(WaveformError) as err:
            dft_extract(u, BENCH_F0_HZ, n=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "order 157.0 is at or beyond the Nyquist limit; "
        "a higher sample rate is needed"
    )
    assert peak < 1_000_000


def test_extract_input_validation():
    w = SampledWaveform(np.ones(128), 6400.0)
    with pytest.raises(WaveformError):
        dft_extract(w, 0.0, n=1)
    with pytest.raises(WaveformError):
        dft_extract(w, 50.0, n=0)


@st.composite
def folding_windows(draw):
    """(samples, periods, max order, interharmonic bins) of a coherent
    window of 4-10 samples per period over 2 to about 1e5 periods.  Its
    bins share a factor from 1 (an interharmonic bin prime to the periods)
    to the number of periods.  Harmonics, interharmonics, noise and a DC
    level of up to 1e3 times the AC rms."""
    per_period = draw(st.integers(4, 10))
    periods = draw(st.floats(1.0, math.log2(1e5)).map(lambda e: int(2.0**e)))
    size = per_period * periods
    n = draw(st.integers(1, (per_period - 1) // 2))
    inter = draw(
        st.lists(
            st.integers(1, (size - 1) // 2).filter(lambda b: b % periods),
            max_size=2,
            unique=True,
        )
    )
    ac = st.one_of(st.just(0.0), st.floats(0.01, 100.0))
    parts = [(k * periods, draw(ac)) for k in range(1, n + 1)]
    parts += [(b, draw(ac)) for b in inter]
    ac_rms = math.hypot(*(a for _, a in parts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(size) / size
    x = draw(st.floats(-1e3, 1e3)) * ac_rms + draw(st.floats(0.0, 1.0)) * (
        ac_rms * rng.standard_normal(size)
    )
    for b, a in parts:
        x += math.sqrt(2.0) * a * np.sin(math.tau * b * t + rng.uniform(-3.0, 3.0))
    return x, periods, n, sorted(inter)


def pure_tone(periods: int, per_period: int) -> np.ndarray:
    t = np.arange(periods * per_period) / per_period
    return math.sqrt(2.0) * np.sin(math.tau * t + 1.54)


# blocks added one after the other err by 2.2e-13 of the rms here
@example(window=(pure_tone(16384, 4), 16384, 1, []))
@given(folding_windows())
def test_folded_extraction_matches_full_length_dft(window):
    x, periods, n, inter = window
    w = SampledWaveform(x, 50.0 * x.size / periods)
    out = dft_extract(w, 50.0, n, tuple(b / periods for b in inter))
    orders = [float(k) for k in range(1, n + 1)] + [b / periods for b in inter]
    bins = [k * periods for k in range(1, n + 1)] + inter
    z = dft_bins_brute(x, [0] + bins)
    total = rms(w)
    tol = 1e-13 * total
    got = {
        order: cmath.rect(r, p)
        for order, r, p in zip(
            out.orders.tolist(), out.rms.tolist(), out.phase_rad.tolist()
        )
    }
    for order, want in zip(orders, 1j * z[1:] * math.sqrt(2.0) / x.size):
        if order in got:
            assert abs(got[order] - want) <= tol, order
        else:  # dropped by the zero rule
            assert abs(want) <= 1e-12 * total + tol, order
    dc = z[0].real / x.size
    assert abs(out.dc - dc) <= tol or (out.dc == 0.0 and abs(dc) <= 1e-12 * total + tol)


# -- thd --------------------------------------------------------------------------

def test_thd_pure_sine_is_zero():
    s = SpectralSignal(50.0, orders=[1], rms=[100.0])
    assert thd(s) == 0.0


def test_thd_ten_percent_fifth():
    s = SpectralSignal(50.0, orders=[1, 5], rms=[100.0, 10.0])
    assert thd(s) == pytest.approx(0.10, abs=1e-12)


def test_thd_of_bench_voltage():
    u, _ = bench_waveforms()
    got = thd(dft_extract(u, BENCH_F0_HZ, n=9))
    amps = {k: a for k, a, _ in BENCH_VOLTAGE_ROWS}
    expect = math.sqrt(sum(a**2 for k, a in amps.items() if k >= 2)) / amps[1]
    assert got == pytest.approx(expect, abs=1e-6)
    assert got == pytest.approx(0.0267, abs=5e-4)


def test_thd_requires_fundamental():
    s = SpectralSignal(50.0, orders=[3], rms=[10.0])
    with pytest.raises(WaveformError):
        thd(s)


# -- active_power ----------------------------------------------------------------------

def test_active_power_matches_phasor_oracle():
    u, i = bench_waveforms()
    expect = sum(
        pq_complex(ur, up, ir, ip)[0]
        for (_, ur, up), (_, ir, ip) in zip(BENCH_VOLTAGE_ROWS, BENCH_CURRENT_ROWS)
    )
    assert active_power(u, i) == pytest.approx(expect, rel=1e-9)


def test_active_power_orthogonal_pair_is_zero():
    fs, n = 6400.0, 256
    u = sample_signal(
        SpectralSignal(50.0, orders=[1], rms=[1.0]), fs, n
    )
    i = sample_signal(
        SpectralSignal(50.0, orders=[1], rms=[1.0], phase_rad=[math.pi / 2]),
        fs,
        n,
    )
    assert active_power(u, i) == pytest.approx(0.0, abs=1e-12)


def test_active_power_self_is_mean_square():
    u, _ = bench_waveforms()
    assert active_power(u, u) == pytest.approx(rms(u) ** 2, rel=1e-12)


def test_active_power_mismatch_rejected():
    a = SampledWaveform([1.0, 2.0], 10.0)
    b = SampledWaveform([1.0, 2.0, 3.0], 10.0)
    c = SampledWaveform([1.0, 2.0], 20.0)
    with pytest.raises(WaveformError, match="length"):
        active_power(a, b)
    with pytest.raises(WaveformError, match="rate"):
        active_power(a, c)


def test_sample_signal_validation():
    s = SpectralSignal(50.0, orders=[1], rms=[1.0])
    with pytest.raises(WaveformError):
        sample_signal(s, 1000.0, 0)


# -- random-signal laws ------------------------------------------------------------------

INTER_POOL = (1.5, 2.5, 3.25, 4.75)  # all on-bin over a 4-period window
amp = st.floats(0.01, 50.0)
angle = st.floats(-math.pi, math.pi)


@st.composite
def coherent_signals(draw):
    orders = draw(st.lists(st.integers(1, 8), unique=True, min_size=1, max_size=4))
    inter = draw(st.lists(st.sampled_from(INTER_POOL), unique=True, max_size=2))
    orders = sorted(orders) + sorted(inter)
    return SpectralSignal(
        fundamental_hz=draw(st.floats(1.0, 400.0)),
        dc=draw(st.floats(-10.0, 10.0)),
        orders=orders,
        rms=[draw(amp) for _ in orders],
        phase_rad=[draw(angle) for _ in orders],
    )


def coherent_window(s: SpectralSignal) -> SampledWaveform:
    return sample_signal(s, 64.0 * s.fundamental_hz, 4 * 64)


@given(coherent_signals())
def test_sampled_rms_matches_spectral_rms(s):
    # Parseval: energy in the samples equals energy across the spectrum
    spectral = to_phasor(s, BasisLayout.for_signals(s)).norm()
    assert rms(coherent_window(s)) == pytest.approx(spectral, rel=1e-9, abs=1e-9)


@given(coherent_signals())
def test_extraction_round_trip(s):
    out = dft_extract(
        coherent_window(s),
        s.fundamental_hz,
        n=8,
        interharmonic_orders=INTER_POOL,
    )
    assert out.dc == pytest.approx(s.dc, abs=1e-9)
    assert out.orders.tolist() == s.orders.tolist()
    assert out.rms.tolist() == pytest.approx(s.rms.tolist(), rel=1e-9, abs=1e-9)
    for got, want in zip(out.phase_rad.tolist(), s.phase_rad.tolist()):
        assert phase_diff(got, want) < 1e-6


@given(coherent_signals(), coherent_signals())
def test_sample_power_equals_geometric_scalar(su, si):
    si = SpectralSignal(  # share the voltage's fundamental
        su.fundamental_hz, si.dc, si.orders, si.rms, si.phase_rad
    )
    wu, wi = coherent_window(su), coherent_window(si)
    layout = BasisLayout.for_signals(su, si)
    m = geometric_power(to_phasor(su, layout), to_phasor(si, layout))
    assert active_power(wu, wi) == pytest.approx(m.active, rel=1e-9, abs=1e-9)


@given(st.integers(1, 63))
def test_window_shift_leaves_power_invariants_alone(delay):
    su = rows_to_signal(BENCH_VOLTAGE_ROWS, BENCH_F0_HZ)
    si = rows_to_signal(BENCH_CURRENT_ROWS, BENCH_F0_HZ)
    fs, n = BENCH_FS_HZ, BENCH_SAMPLES
    full_u = sample_signal(su, fs, n + delay)
    full_i = sample_signal(si, fs, n + delay)

    def window(w, start):
        return SampledWaveform(w.samples[start : start + n], fs)

    pairs = [
        (window(full_u, 0), window(full_i, 0)),
        (window(full_u, delay), window(full_i, delay)),
    ]
    powers, apparents = [], []
    for wu, wi in pairs:
        layout = BasisLayout(n=9)
        u = to_phasor(dft_extract(wu, BENCH_F0_HZ, n=9), layout)
        i = to_phasor(dft_extract(wi, BENCH_F0_HZ, n=9), layout)
        powers.append(active_power(wu, wi))
        apparents.append(apparent(geometric_power(u, i)))
    assert powers[0] == pytest.approx(powers[1], rel=1e-9)
    assert apparents[0] == pytest.approx(apparents[1], rel=1e-9)
