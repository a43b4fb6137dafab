"""A speed meter that turns a measured process's times into calibrated
seconds.

On a shared virtual machine the speed of a core can change by a factor of
about two from one second to the next, as other guests load the same
physical core.  CPU time grows with wall time in those stretches, so it
does not help, and the stretches last from seconds to minutes, so longer
runs do not average them out.  The meter samples the speed instead, in the
measured process itself: every ``PERIOD_S`` of CPU time a ``SIGPROF``
handler times a fixed pure-Python loop.  ``Meter.calibrated`` then counts
each stretch of the program's time between two samples at the speed the
loop saw at its ends, in seconds at the loop's nominal speed
(``NOMINAL_LOOP_S``).  A change that makes the program do less work lowers
the calibrated time in proportion, whatever the host's speed was.

Only the standard library is used, so that a process can start the meter
before it imports the program.
"""

from __future__ import annotations

import signal
import time

# Median duration of ``reference_loop`` on the 2 GHz Xeon host (2 vCPUs)
# the benchmark was written on; it only fixes the scale of the figures.
NOMINAL_LOOP_S = 550e-6
# CPU time between two samples; the loop costs about 3 % of it.
PERIOD_S = 0.02

# Sparse products of dict-held coefficients over xor-combined keys: of the
# loops tried, this one's speed followed the program's most closely from
# fast to slow stretches on every workload.  Shorter loops (a few hundred
# products) followed it less closely.
_COEFFS = {(k * 7919) & 4095: 1.0 + k * 1e-3 for k in range(1500)}
_KEYS = tuple(_COEFFS)


def reference_loop() -> dict[int, float]:
    out: dict[int, float] = {}
    coeffs, keys = _COEFFS, _KEYS
    for k in range(0, 1490, 5):
        ma = keys[k]
        for j in (1, 2, 3, 5, 6, 7):
            mb = keys[k + j]
            m = ma ^ mb
            out[m] = out.get(m, 0.0) + coeffs[ma] * coeffs[mb]
    return out


class Meter:
    """Samples of (start, duration) of the reference loop, taken on a
    CPU-time timer between ``start`` and ``stop`` and once at each end."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_) -> None:
        t = time.perf_counter()
        reference_loop()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        # Restart system calls that the timer interrupts.
        signal.siginterrupt(signal.SIGPROF, False)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.sample()

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds of the program's time in [a, b] (perf_counter
        instants).  The meter's own loops count nothing; time before the
        first or after the last sample counts at that sample's speed."""
        s = self.samples
        total = 0.0
        for (t0, d0), (t1, d1) in zip(s, s[1:]):
            lo, hi = max(a, t0 + d0), min(b, t1)
            if hi > lo:
                total += (hi - lo) * 2.0 * NOMINAL_LOOP_S / (d0 + d1)
        (first, d_first), (last, d_last) = s[0], s[-1]
        if a < first:
            total += (min(b, first) - a) * NOMINAL_LOOP_S / d_first
        if b > last + d_last:
            total += (b - max(a, last + d_last)) * NOMINAL_LOOP_S / d_last
        return total
