"""Harmonic spectra and their geometric-phasor images.

A periodic signal is described by a ``SpectralSignal``: a DC offset plus
a table of spectral lines, the arrays ``orders``, ``rms`` and
``phase_rad`` with one entry per line, each line referenced to
``sqrt(2)*rms*sin(order*w*t + phase)``.  Integer orders are harmonics,
fractional ones interharmonics.  A ``BasisLayout`` assigns each frequency
a plane of the algebra: DC sits on s0, harmonic k occupies the pair
(s_{2k-1}, s_{2k}), and the m-th interharmonic occupies the pair after
the last harmonic slot.  A signal lists its lines in the layout's order,
so the spectrum and the phasor are the same per-order data in polar and
in cartesian form.  ``to_phasor`` maps a line of rms X and phase p to
``X*sin(p)`` on the odd slot and ``X*cos(p)`` on the even slot, so
in-phase parts land on even indices; ``from_phasor`` inverts that with
``rms = hypot(odd, even)``, ``phase = atan2(odd, even)``.

``BasisLayout.orders()`` lists a layout's orders as a float64 array, in
slot order, and ``to_phasor`` is the one place that maps an order to its
slots.  A ``GeometricPhasor`` is a dense coefficient vector over that
layout; per-order work runs on its ``(n_orders, 2)`` slot-pair view,
whose row r belongs to ``layout.orders()[r]``.  It stores
exact values.  Every per-entry array (a presence mask, an admittance
table) has entry 0 for DC and entry r + 1 for ``layout.orders()[r]``;
``present()`` is the mask of the entries not zero by the relative rule
of ``algebra`` against the phasor's norm.  ``to_phasor`` applies the same
rule to each slot against the line's rms, so the phases 0, +-pi/2 and pi
give exact zeros.  Only this module maps entries to slots: ``entry_slots``
and ``GeometricPhasor._like_pairs``; ``order_planes`` tells which planes
``(a, b)`` are an order's slot pair.

``MAX_ORDER`` is the largest order a layout holds.  A layout is dense up
to its highest harmonic, so one stray order would set the size of every
array: at 2**20 a phasor is 16 MB and the decomposition CSV about 2e6
rows, while an order of 1e12 asks for terabytes.  ``SpectralSignal.from_dict``
refuses a higher order with its field path, and ``BasisLayout`` a higher
harmonic count or interharmonic order.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Frozen, format_terms, negligible, pow2_exponent, read_only
from .errors import LayoutError, PowerAnalysisError, SchemaError

_TWO_PI = 2.0 * math.pi
MAX_ORDER = 1 << 20  # a resource limit, see the module docstring


def _normalize_phase(phase: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    p = math.remainder(phase, _TWO_PI)
    return math.pi if p <= -math.pi else p


def _integer(orders: np.ndarray) -> np.ndarray:
    """Mask of the integer-valued orders: the harmonics."""
    return orders == np.floor(orders)


def _check_lines(orders: np.ndarray, rms: np.ndarray, phase: np.ndarray) -> None:
    """Raise ``PowerAnalysisError`` for the first of the rules below that
    a line breaks, naming the first line that breaks it."""
    harmonic = _integer(orders)
    after_harmonic = np.append(True, harmonic[:-1])
    prev = np.append(-np.inf, orders[:-1])
    rules = (
        (~(np.isfinite(orders) & (orders > 0)),
         "order must be finite and > 0, got {o}"),
        (~(np.isfinite(rms) & (rms >= 0)),
         "rms at order {o} must be finite and >= 0, got {r}"),
        (~np.isfinite(phase), "phase at order {o} must be finite, got {p}"),
        (harmonic & ~after_harmonic,
         "harmonic order {o} is listed after interharmonic order {prev}"),
        ((harmonic == after_harmonic) & (orders <= prev),
         "order {o} follows order {prev}: harmonic and interharmonic orders "
         "must each strictly increase"),
    )
    for broken, text in rules:
        if broken.any():
            k = int(np.argmax(broken))
            raise PowerAnalysisError(
                text.format(o=orders[k], r=rms[k], p=phase[k], prev=prev[k])
            )


class SpectralSignal(Frozen):
    """Frequency-domain description of one periodic waveform: a DC level
    and a table of spectral lines.

    ``orders``, ``rms`` and ``phase_rad`` hold one entry per line, as
    read-only float64 copies of the given sequences (``phase_rad``
    defaults to zeros).  An order is a multiple of the fundamental:
    integer-valued for harmonics (1 = the fundamental), fractional for
    interharmonics.  The lines are listed as ``BasisLayout.orders()``
    lists them: the harmonics ascending, then the interharmonics
    ascending.  Phases are wrapped into (-pi, pi], and zero-rms lines are
    dropped.
    """

    __slots__ = ("fundamental_hz", "dc", "orders", "rms", "phase_rad")

    def __init__(self, fundamental_hz: float, dc: float = 0.0, orders=(), rms=(),
                 phase_rad=None):
        if not (math.isfinite(fundamental_hz) and fundamental_hz > 0):
            raise PowerAnalysisError(
                f"fundamental frequency must be > 0 Hz, got {fundamental_hz}"
            )
        if not math.isfinite(dc):
            raise PowerAnalysisError("dc level must be finite")
        orders = np.array(orders, dtype=np.float64)
        rms = np.array(rms, dtype=np.float64)
        phase = (
            np.zeros(orders.shape) if phase_rad is None
            else np.array(phase_rad, dtype=np.float64)
        )
        if not (orders.ndim == 1 and rms.shape == phase.shape == orders.shape):
            raise PowerAnalysisError(
                "orders, rms and phase_rad need one entry per line, got orders "
                f"{orders.tolist()}, rms {rms.tolist()} and phase_rad {phase.tolist()}"
            )
        _check_lines(orders, rms, phase)
        kept = rms > 0.0
        wrapped = [_normalize_phase(p) for p in phase[kept].tolist()]
        lines = orders[kept], rms[kept], np.array(wrapped, dtype=np.float64)
        for a in lines:
            a.flags.writeable = False
        self._set(fundamental_hz=float(fundamental_hz), dc=float(dc),
                  orders=lines[0], rms=lines[1], phase_rad=lines[2])

    @property
    def omega(self) -> float:
        """Fundamental angular frequency in rad/s."""
        return _TWO_PI * self.fundamental_hz

    @property
    def harmonic(self) -> np.ndarray:
        """Boolean mask over the lines: True for the integer orders."""
        return _integer(self.orders)

    @classmethod
    def from_dict(cls, data) -> "SpectralSignal":
        """Parse a spectrum JSON document: ``fundamental_hz``, ``dc`` and
        ``harmonics``/``interharmonics`` lists of ``order``, ``rms`` and
        ``phase_rad`` records, the shape ``gapower`` prints spectra in.

        Raises :class:`SchemaError` with a field path on malformed input.
        """
        if not isinstance(data, dict):
            raise SchemaError("signal document must be a JSON object")
        known = {"fundamental_hz", "dc", "harmonics", "interharmonics"}
        for key in data:
            if key not in known:
                raise SchemaError(f"unknown signal field {key!r}")
        if "fundamental_hz" not in data:
            raise SchemaError("signal document missing 'fundamental_hz'")

        def number(value, path: str) -> float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{path} must be a number")
            return float(value)

        fundamental_hz = number(data["fundamental_hz"], "fundamental_hz")
        dc = number(data.get("dc", 0.0), "dc")
        orders, rms, phase = [], [], []  # both lists' lines, in listed order
        for path, integer in (("harmonics", True), ("interharmonics", False)):
            value = data.get(path)
            if value is None:
                continue
            if not isinstance(value, list):
                raise SchemaError(f"{path} must be an array")
            for i, item in enumerate(value):
                where = f"{path}[{i}]"
                if not isinstance(item, dict):
                    raise SchemaError(f"{where} must be an object")
                for key in item:
                    if key not in {"order", "rms", "phase_rad"}:
                        raise SchemaError(f"unknown field {key!r} in {where}")
                if "order" not in item or "rms" not in item:
                    raise SchemaError(f"{where} needs 'order' and 'rms'")
                order = number(item["order"], f"{where}.order")
                if order.is_integer() != integer:
                    expected = "integer" if integer else "fractional"
                    raise SchemaError(
                        f"{where}.order must be {expected}, got {order}"
                    )
                if order > MAX_ORDER:
                    raise SchemaError(
                        f"{where}.order {order} exceeds the largest supported "
                        f"order {MAX_ORDER}"
                    )
                orders.append(order)
                rms.append(number(item["rms"], f"{where}.rms"))
                phase.append(number(item.get("phase_rad", 0.0), f"{where}.phase_rad"))

        try:
            return cls(
                fundamental_hz=fundamental_hz,
                dc=dc,
                orders=orders,
                rms=rms,
                phase_rad=phase,
            )
        except PowerAnalysisError as exc:
            raise SchemaError(str(exc)) from exc


class BasisLayout(Frozen):
    """Assignment of frequencies to basis-vector slots.

    ``n`` integer harmonics and ``len(interharmonic_orders)`` interharmonics
    need ``1 + 2n + 2l`` basis vectors: s0 for DC, (s_{2k-1}, s_{2k}) for
    harmonic k, and the trailing pairs for the interharmonics in listed
    order.  Two layouts are equal, and hash alike, when both fields are.
    """

    __slots__ = ("n", "interharmonic_orders")

    def __init__(self, n: int, interharmonic_orders: tuple[float, ...] = ()):
        if n < 0:
            raise LayoutError(f"harmonic count must be >= 0, got {n}")
        if n > MAX_ORDER:
            raise LayoutError(
                f"harmonic count {n} exceeds the largest supported order "
                f"{MAX_ORDER}"
            )
        orders = tuple(float(x) for x in interharmonic_orders)
        last = 0.0
        for x in orders:
            if not math.isfinite(x) or x <= 0 or x.is_integer():
                raise LayoutError(f"interharmonic order must be fractional, got {x}")
            if x > MAX_ORDER:
                raise LayoutError(
                    f"interharmonic order {x} exceeds the largest supported order "
                    f"{MAX_ORDER}"
                )
            if x <= last:
                raise LayoutError("interharmonic orders must be strictly increasing")
            last = x
        self._set(n=n, interharmonic_orders=orders)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.interharmonic_orders) == (
            other.n, other.interharmonic_orders)

    def __hash__(self):
        return hash((self.n, self.interharmonic_orders))

    @classmethod
    def for_signals(cls, *signals: SpectralSignal) -> "BasisLayout":
        """Smallest layout that can hold every given signal."""
        orders = np.concatenate([np.zeros(0), *(s.orders for s in signals)])
        harmonic = _integer(orders)
        # a set, not np.unique, which imports numpy.ma on first use
        return cls(
            n=int(orders[harmonic].max(initial=0)),
            interharmonic_orders=tuple(sorted(set(orders[~harmonic].tolist()))),
        )

    @property
    def dimension(self) -> int:
        return 1 + 2 * self.n + 2 * len(self.interharmonic_orders)

    def orders(self) -> np.ndarray:
        """All orders with a slot pair, as a new float64 array: the
        harmonics 1..n, then the interharmonics."""
        return np.concatenate((np.arange(1.0, self.n + 1), self.interharmonic_orders))


class GeometricPhasor(Frozen):
    """A grade-1 element tied to the layout and fundamental that give its
    coefficients physical meaning.

    ``coeffs`` is the given vector as read-only float64 (``read_only``),
    of length ``layout.dimension``: entry ``k`` is the coefficient of
    basis vector ``s_k``.  ``pairs`` views the per-order slots as an
    ``(n_orders, 2)`` array of (odd, even) columns in ``layout.orders()``
    order.  ``str()`` prints the sum, e.g. ``50 s1 + 50 s2 - 50 s5 + 50 s6``.
    """

    __slots__ = ("coeffs", "layout", "fundamental_hz", "_norm")

    def __init__(self, coeffs, layout: BasisLayout, fundamental_hz: float):
        if not (math.isfinite(fundamental_hz) and fundamental_hz > 0):
            raise PowerAnalysisError(
                f"fundamental frequency must be > 0 Hz, got {fundamental_hz}"
            )
        coeffs = read_only(coeffs, np.float64)
        if coeffs.shape != (layout.dimension,):
            raise LayoutError(
                f"coefficient shape {coeffs.shape} does not match "
                f"layout dimension {layout.dimension}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "fundamental_hz", fundamental_hz)
        object.__setattr__(self, "_norm", None)

    @property
    def pairs(self) -> np.ndarray:
        """(odd, even) slot coefficients, one row per ``layout.orders()``."""
        return self.coeffs[1:].reshape(-1, 2)

    @property
    def omega(self) -> float:
        return _TWO_PI * self.fundamental_hz

    @property
    def dc(self) -> float:
        return float(self.coeffs[0])

    def present(self) -> np.ndarray:
        """Boolean mask over the entries (DC, then ``layout.orders()``) of
        those with a slot not zero by ``algebra``'s rule against the norm."""
        slot = ~negligible(self.coeffs, self.norm())
        return np.append(slot[0], slot[1:].reshape(-1, 2).any(axis=1))

    def dot(self, other: "GeometricPhasor") -> float:
        """Scalar product, summed one slot at a time in ascending order
        (a pairwise sum could move the last bit of the result)."""
        return float(np.cumsum(self.coeffs * other.coeffs)[-1])

    def norm(self) -> float:
        """Collective rms value of the signal the phasor represents, summed
        like ``dot`` on coefficients scaled by a power of two."""
        if self._norm is None:
            # coeffs is read-only, so the norm the zero rule asks for on
            # every present() call is computed once per phasor
            e = pow2_exponent(self.coeffs)
            c = np.ldexp(self.coeffs, -e)
            norm = float(np.ldexp(math.sqrt(np.cumsum(c * c)[-1]), e))
            object.__setattr__(self, "_norm", norm)
        return self._norm

    def _check_compatible(self, other: "GeometricPhasor") -> None:
        if self.layout != other.layout:
            raise LayoutError("phasors use different basis layouts")
        if not math.isclose(self.fundamental_hz, other.fundamental_hz,
                            rel_tol=1e-9, abs_tol=0.0):
            raise LayoutError("phasors use different fundamental frequencies")

    def _like(self, coeffs: np.ndarray) -> "GeometricPhasor":
        return GeometricPhasor(coeffs, self.layout, self.fundamental_hz)

    def _like_pairs(self, dc: float, pairs: np.ndarray) -> "GeometricPhasor":
        """A phasor on this layout from its DC and its ``pairs`` rows."""
        return self._like(np.append(dc, pairs))

    def __add__(self, other: "GeometricPhasor") -> "GeometricPhasor":
        if not isinstance(other, GeometricPhasor):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "GeometricPhasor") -> "GeometricPhasor":
        if not isinstance(other, GeometricPhasor):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, other) -> "GeometricPhasor":
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_terms(((k,), c) for k, c in enumerate(self.coeffs.tolist()))


def to_phasor(signal: SpectralSignal, layout: BasisLayout) -> GeometricPhasor:
    """Map a spectral signal onto its geometric phasor.

    A line of rms X and phase p contributes X*sin(p) to the odd slot and
    X*cos(p) to the even slot of its order; a slot value that is zero
    against X by the rule of ``algebra`` (cos(pi/2)*X, say) is stored as
    an exact 0.  The DC level lands on s0.  Raises ``LayoutError`` naming
    the first line that has no slot in the layout.
    """
    orders, all_orders = signal.orders, layout.orders()
    # row of each line in layout.orders(): harmonic k is row k - 1, and
    # the interharmonics follow the n harmonic rows in ascending order;
    # rows are capped at the end before the cast, which a huge order would
    # overflow
    rows = np.where(
        signal.harmonic,
        np.minimum(orders - 1, all_orders.size),
        layout.n + np.searchsorted(all_orders[layout.n:], orders),
    ).astype(np.intp)
    # a row at the end reads the appended nan, which matches no order
    held = np.append(all_orders, np.nan)[rows]
    slotless = held != orders
    if slotless.any():
        k = int(np.argmax(slotless))
        if signal.harmonic[k]:
            raise LayoutError(
                f"harmonic order {int(orders[k])} has no slot (n={layout.n})"
            )
        raise LayoutError(f"interharmonic order {float(orders[k])} has no slot")
    x = signal.rms
    pairs = np.column_stack(
        [x * np.sin(signal.phase_rad), x * np.cos(signal.phase_rad)]
    )
    coeffs = np.zeros(layout.dimension)
    coeffs[0] = signal.dc
    coeffs[1:].reshape(-1, 2)[rows] = np.where(
        negligible(pairs, x[:, None]), 0.0, pairs
    )
    return GeometricPhasor(coeffs, layout, signal.fundamental_hz)


def entry_slots(per_entry: np.ndarray) -> np.ndarray:
    """A per-entry array (DC, then ``layout.orders()``) spread over the
    slots: DC's value on s0, each order's on both slots of its pair."""
    return np.repeat(per_entry, 2)[1:]


def order_planes(blades: np.ndarray) -> np.ndarray:
    """Mask of the ``(a, b)`` rows of ``blades`` (``a < b``) that are an
    order's plane: its slot pair ``(2m - 1, 2m)``."""
    a, b = blades.T
    return (a % 2 == 1) & (b == a + 1)


def from_phasor(p: GeometricPhasor) -> SpectralSignal:
    """Recover the spectral signal a geometric phasor represents: a line
    for each order of its layout whose slots are not both 0, with
    ``rms = hypot(odd, even)`` and ``phase = atan2(odd, even)``."""
    odd, even = p.pairs.T.tolist()
    return SpectralSignal(
        fundamental_hz=p.fundamental_hz,
        dc=p.dc,
        orders=p.layout.orders(),
        rms=list(map(math.hypot, odd, even)),
        phase_rad=list(map(math.atan2, odd, even)),
    )


def reconstruct(signal: SpectralSignal, times) -> np.ndarray:
    """Instantaneous values ``dc + sum sqrt(2)*rms*sin(order*w*t + phase)``.

    ``times`` is an array-like of seconds; returns a float array of the
    same shape.  The lines are added one at a time, in listed order.
    """
    t = np.asarray(times, dtype=float)
    x = np.full_like(t, signal.dc)
    w = signal.omega
    for order, rms, phase in zip(
        signal.orders.tolist(), signal.rms.tolist(), signal.phase_rad.tolist()
    ):
        x = x + math.sqrt(2.0) * rms * np.sin(order * w * t + phase)
    return x
