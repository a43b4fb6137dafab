"""The zero rule, array storage and blade notation of the phasor and power types.

A coefficient counts as zero when its magnitude is at most ``ZERO_REL``
times the norm of the signal it belongs to.  The rule is relative, so
whether a component exists never depends on the units: the same signal
in A or in pA occupies the same orders.

Sums of squares are taken on values scaled by a power of two
(``pow2_exponent``), which is exact, so they neither overflow nor underflow
at extreme scales and give the same bits as unscaled sums elsewhere.

Arrays are stored read-only by ``read_only``, which copies only what a
caller could still write to, and the objects that hold them are
``Frozen``: their ``__init__`` sets each field once.

Blades print in the notation of the paper: ``s3`` is a basis vector,
``s12`` the plane of s1 and s2, and ``s(1,10)`` a blade with an index
above 9.
"""

from __future__ import annotations

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
    The largest magnitude is the larger of ``max(x)`` and ``-min(x)``
    (NaN if either is), so no array of magnitudes is made."""
    return int(np.frexp(np.maximum(np.max(x), -np.min(x)))[1])


def read_only(a, dtype) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array that no caller can write
    through: ``a`` itself when it is an ndarray of that dtype read-only
    down its ``.base`` chain to the data's owner, else a copy."""
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    arr = (np.asarray if owner is None else np.array)(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


class Frozen:
    """Base of the package's value classes.  A subclass lists its fields
    in ``__slots__`` and sets them in ``__init__`` through ``_set`` (the
    often-built ones call ``object.__setattr__`` directly); assigning or
    deleting a field afterwards raises ``AttributeError``.  Instances
    compare by identity unless the subclass says otherwise."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy: (None, the set slots)
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value = read_only(value, value.dtype)
            object.__setattr__(self, name, value)


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
