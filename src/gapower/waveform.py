"""Sampled-waveform ingestion and coherent harmonic extraction.

Extraction is a plain rectangular-window DFT and therefore requires the
window to span an integer number of fundamental periods (at least two);
non-coherent windows are rejected instead of being corrected.  Phases are
referenced to ``sin(k*w*t)`` at the start of the window, which makes the
output of ``dft_extract`` feed straight into ``to_phasor``.

Both layers do only the work the output needs.  A recording named by a
path is parsed by numpy's chunked reader straight from the file, not line
by line through Python; the guard in ``_numpy_reads_as_text`` sends
pipes and names that numpy would decompress or download, like every
stream, to the row loop.  The DFT reads a handful of bins, all multiples
of ``g``, so the window is folded to ``size / g`` samples before the FFT.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import negligible
from .errors import WaveformError
from .phasor import SpectralSignal, reconstruct

_HEADER_RE = re.compile(r"#\s*fs_hz\s*=\s*(\S+)")


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """Uniformly sampled real signal."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise WaveformError("samples must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise WaveformError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise WaveformError(
                f"sample rate must be > 0 Hz, got {self.sample_rate_hz}"
            )

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def load_csv(source) -> tuple[SampledWaveform, SampledWaveform]:
    """Read an aligned voltage/current recording.

    The format is a ``# fs_hz=<rate>`` header line followed by ``u,i``
    rows.  After the header, a ``#`` starts a comment that runs to the end
    of its line (numpy's rule), and lines left blank are skipped.
    ``source`` may be a path (to UTF-8 text) or an open text stream.
    Parse errors carry the offending line number.

    A path whose name numpy opens as plain local text
    (``_numpy_reads_as_text``) is handed to ``np.loadtxt`` by name, with
    the header's lines skipped, so numpy's C reader pulls the file in
    chunks.  It takes ``u,i`` rows with surrounding spaces or tabs, CRLF
    endings, comments and empty lines.  A whitespace-only or indented
    comment line, a bad row or a header-only input makes that pass give
    up; the rows are then read one by one from just after the header,
    which gives the same values or the line-numbered error.  Every other
    source (a stream, a pipe, a compressed or ``scheme://`` name) is read
    row by row.
    """
    if isinstance(source, (str, Path)):
        path = os.fspath(source)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                named = path if _numpy_reads_as_text(fh, path) else None
                return _read_recording(fh, named)
        except UnicodeDecodeError as exc:
            raise WaveformError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return _read_recording(source, None)


# suffixes numpy's datasource opens with a decompressor (the tests check
# this against numpy's own table)
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _numpy_reads_as_text(fh, path: str) -> bool:
    """Whether ``np.loadtxt(path)`` reads exactly the text ``fh`` holds:
    the file must be seekable (a pipe or FIFO would lose the rows ``fh``
    has buffered to a second reader), and its name must not make numpy
    decompress it (by suffix, here in any case) or fetch it
    (``scheme://``).

    Only a name gets numpy's chunked reader: given a handle or any other
    iterable, numpy takes one line per item, and it rejects an item that
    holds several lines, so ``fh`` cannot be fed to it in blocks."""
    return (
        fh.seekable()
        and not path.lower().endswith(_COMPRESSED_SUFFIXES)
        and "://" not in path
    )


def _read_recording(fh, path: str | None) -> tuple[SampledWaveform, SampledWaveform]:
    rate, lineno = _read_header(fh)
    columns = _load_columns(path, lineno) if path is not None else None
    u, i = columns if columns is not None else _parse_rows(fh, lineno + 1)
    return SampledWaveform(u, rate), SampledWaveform(i, rate)


def _read_header(fh) -> tuple[float, int]:
    """Sample rate and line number of the first non-blank line."""
    for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
        text = raw.strip()
        if text:
            break
    else:
        raise WaveformError("empty input: expected a '# fs_hz=<rate>' header")
    match = _HEADER_RE.fullmatch(text)
    if match is None:
        raise WaveformError(
            f"line {lineno}: expected header '# fs_hz=<rate>', got {text!r}"
        )
    try:
        rate = float(match.group(1))
    except ValueError:
        raise WaveformError(
            f"line {lineno}: sample rate {match.group(1)!r} is not a number"
        ) from None
    if not (math.isfinite(rate) and rate > 0):
        raise WaveformError(f"line {lineno}: sample rate must be > 0 Hz")
    return rate, lineno


def _load_columns(path: str, skiprows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``u`` and ``i`` columns of the file ``path`` after its first
    ``skiprows`` lines in one pass, or ``None`` when only the row loop can
    tell."""
    with warnings.catch_warnings():
        # a header-only input is reported by the row loop
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(
                path,
                delimiter=",",
                dtype=float,
                comments="#",
                ndmin=2,
                skiprows=skiprows,
                encoding="utf-8",
            )
        except ValueError:
            return None
    if data.shape[0] == 0 or data.shape[1] != 2:
        return None
    return data[:, 0], data[:, 1]


def _parse_rows(lines, first_lineno: int) -> tuple[list[float], list[float]]:
    u_vals: list[float] = []
    i_vals: list[float] = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        text = raw.strip()
        row = text.partition("#")[0]
        if not row:
            continue
        fields = [f.strip() for f in row.split(",")]
        if len(fields) == 1:
            raise WaveformError(
                f"line {lineno}: found a single column; rows must be 'u,i'"
            )
        if len(fields) != 2:
            raise WaveformError(
                f"line {lineno}: expected 2 comma-separated values, got {len(fields)}"
            )
        try:
            u_vals.append(float(fields[0]))
            i_vals.append(float(fields[1]))
        except ValueError:
            raise WaveformError(
                f"line {lineno}: non-numeric value in {text!r}"
            ) from None
    if not u_vals:
        raise WaveformError("no data rows found after the header")
    return u_vals, i_vals


def rms(w: SampledWaveform) -> float:
    """Root mean square of the samples."""
    return float(np.sqrt(np.mean(w.samples**2)))


def dft_extract(
    w: SampledWaveform,
    fundamental_hz: float,
    n: int,
    interharmonic_orders: tuple[float, ...] = (),
) -> SpectralSignal:
    """Harmonic content of a coherently sampled window.

    Parameters
    ----------
    w:
        The sampled window; must cover >= 2 whole fundamental periods.
    fundamental_hz:
        Fundamental frequency the orders refer to.
    n:
        Highest integer order to extract.  Every extracted order must sit
        strictly below the Nyquist bin.
    interharmonic_orders:
        Fractional orders to extract as well; each must fall exactly on a
        DFT bin, i.e. order * periods must be an integer.

    Lines (and a DC level) that are zero against the window's total rms
    by the rule of ``algebra`` are dropped.

    Every bin read (DC and the bins of the orders) is a multiple of ``g``,
    the gcd of the window length and those bins, so the FFT runs on the
    window summed over its ``g`` blocks of ``size / g`` samples (added
    pairwise); the result equals the full-length DFT up to rounding.
    """
    if not (math.isfinite(fundamental_hz) and fundamental_hz > 0):
        raise WaveformError(f"fundamental must be > 0 Hz, got {fundamental_hz}")
    if n < 1:
        raise WaveformError(f"max order must be >= 1, got {n}")
    size = w.n
    periods_exact = size * fundamental_hz / w.sample_rate_hz
    m = round(periods_exact)
    if abs(periods_exact - m) > 1e-6:
        raise WaveformError(
            "window must span an integer number of fundamental periods, "
            f"got {periods_exact:.6f}"
        )
    if m < 2:
        raise WaveformError(
            f"window must span at least 2 fundamental periods, got {m}"
        )

    def bin_of(order: float) -> int:
        b_exact = order * m
        b = round(b_exact)
        if abs(b_exact - b) > 1e-9:
            raise WaveformError(
                f"order {order} does not fall on a DFT bin ({m} periods sampled)"
            )
        if b >= size / 2:
            raise WaveformError(
                f"order {order} is at or beyond the Nyquist limit; "
                "a higher sample rate is needed"
            )
        return b

    # each order is checked as it is drawn, so a huge n is refused at the
    # Nyquist limit before its order list is built
    drawn = map(float, itertools.chain(range(1, n + 1), interharmonic_orders))
    orders, bins = zip(*[(order, bin_of(order)) for order in drawn])
    # bin c of the window folded onto size/g samples is bin c*g of the whole
    g = math.gcd(size, *bins)
    spectrum = np.fft.rfft(_fold(w.samples, g))
    total = rms(w)
    scale = math.sqrt(2.0) / size
    z = spectrum[[b // g for b in bins]].tolist()
    amp = np.array([abs(c) for c in z]) * scale
    dc = float(spectrum[0].real) / size
    if negligible(dc, total):
        dc = 0.0
    # sqrt(2)*X*sin(k w t + p) puts sqrt(2)*X*(S/2)*(sin p - j cos p)
    # into its bin, hence the rotated atan2.  Negligible lines get rms 0,
    # which SpectralSignal drops.
    return SpectralSignal(
        fundamental_hz=fundamental_hz,
        dc=dc,
        orders=orders,
        rms=np.where(negligible(amp, total), 0.0, amp),
        phase_rad=[math.atan2(c.real, -c.imag) for c in z],
    )


def _fold(x: np.ndarray, g: int) -> np.ndarray:
    """The sum of the ``g`` equal blocks of ``x``, added pairwise: the
    rounding error then grows with log2(g).  Adding the blocks one after
    the other errs by up to about 10^-12 of the rms on a pure tone with
    g near 1e5, as the partial sums grow."""
    blocks = x.reshape(g, x.size // g)
    while len(blocks) > 1:
        half = len(blocks) // 2
        pairs = blocks[:half] + blocks[half : 2 * half]
        if len(blocks) % 2:
            pairs[0] += blocks[-1]
        blocks = pairs
    return blocks[0]


def thd(s: SpectralSignal) -> float:
    """Total harmonic distortion: rms above the fundamental over the
    fundamental's rms.  Interharmonics and DC are not counted."""
    # the harmonics are listed first, ascending: a fundamental is line 0
    if not len(s.orders) or s.orders[0] != 1.0:
        raise WaveformError("THD needs a fundamental component with rms > 0")
    rest = sum(x**2 for x in s.rms[s.harmonic][1:].tolist())
    return math.sqrt(rest) / float(s.rms[0])


def active_power(u: SampledWaveform, i: SampledWaveform) -> float:
    """Mean of the instantaneous power samples."""
    if u.n != i.n:
        raise WaveformError(f"length mismatch: {u.n} voltage vs {i.n} current samples")
    if not math.isclose(u.sample_rate_hz, i.sample_rate_hz, rel_tol=1e-9):
        raise WaveformError("sample-rate mismatch between voltage and current")
    return float(np.mean(u.samples * i.samples))


def sample_signal(
    signal: SpectralSignal,
    sample_rate_hz: float,
    n_samples: int,
) -> SampledWaveform:
    """Synthesize a waveform from its spectral description."""
    if n_samples < 1:
        raise WaveformError(f"sample count must be >= 1, got {n_samples}")
    t = np.arange(n_samples) / float(sample_rate_hz)
    return SampledWaveform(reconstruct(signal, t), sample_rate_hz)
