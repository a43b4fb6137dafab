"""The zero rule and the blade notation of the dense phasor and power types.

A coefficient counts as zero when its magnitude is at most ``ZERO_REL``
times the norm of the signal it belongs to.  The rule is relative, so
whether a component exists never depends on the units: the same signal
in A or in pA occupies the same orders.

Sums of squares are taken on values scaled by a power of two
(``pow2_exponent``), which is exact, so they neither overflow nor underflow
at extreme scales and give the same bits as unscaled sums elsewhere.

Blades print in the notation of the paper: ``s3`` is a basis vector,
``s12`` the plane of s1 and s2, and ``s(1,10)`` a blade with an index
above 9.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# A coefficient at most this fraction of its signal's norm is zero.
ZERO_REL = 1e-12


def negligible(x, scale: float):
    """Where ``|x|`` is at most ``ZERO_REL * scale`` (elementwise for
    arrays), i.e. where ``x`` counts as zero within a signal of norm
    ``scale``."""
    return abs(x) <= ZERO_REL * scale


def pow2_exponent(x) -> int:
    """Exponent ``e`` of the largest ``|x|``, so that ``x / 2**e`` is
    exact and below 1 in magnitude (0 for zero or non-finite ``x``).
    A tuple of finite floats is taken with ``math``, which skips numpy's
    per-call cost on a handful of scalars."""
    if isinstance(x, tuple):
        return math.frexp(max(map(abs, x)))[1]
    return int(np.frexp(np.max(np.abs(x)))[1])


def _blade_label(indices: tuple[int, ...]) -> str:
    if not indices:
        return ""
    if indices[-1] <= 9:
        return "s" + "".join(str(i) for i in indices)
    return "s(" + ",".join(str(i) for i in indices) + ")"


def format_terms(terms: Iterable[tuple[tuple[int, ...], float]]) -> str:
    """Readable sum such as ``10000 - 5000 s12 + 5000 s56`` of
    ``(ascending basis indices, coefficient)`` pairs, in the given order;
    zero coefficients are left out and an empty sum prints ``0``."""
    parts = []
    for indices, c in terms:
        if c == 0.0:
            continue
        label = _blade_label(indices)
        mag = f"{abs(c):g}"
        body = f"{mag} {label}" if label else mag
        if not parts:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c >= 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
