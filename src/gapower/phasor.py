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

A ``GeometricPhasor`` is a dense coefficient vector over that layout;
per-order work runs on its ``(n_orders, 2)`` slot-pair view.  It stores
exact values.  Whether an order or the DC slot is present follows the
relative zero rule of ``algebra``, against the phasor's own norm, and
``to_phasor`` applies the same rule to each slot against the line's rms,
so the phases 0, +-pi/2 and pi give exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import format_terms, negligible, pow2_exponent
from .errors import LayoutError, PowerAnalysisError, SchemaError

_TWO_PI = 2.0 * math.pi


def _normalize_phase(phase: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    p = math.remainder(phase, _TWO_PI)
    return math.pi if p <= -math.pi else p


def _is_integer_order(order: float) -> bool:
    return float(order).is_integer()


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


@dataclass(frozen=True, eq=False)
class SpectralSignal:
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

    fundamental_hz: float
    dc: float = 0.0
    orders: np.ndarray = ()
    rms: np.ndarray = ()
    phase_rad: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.fundamental_hz) and self.fundamental_hz > 0):
            raise PowerAnalysisError(
                f"fundamental frequency must be > 0 Hz, got {self.fundamental_hz}"
            )
        if not math.isfinite(self.dc):
            raise PowerAnalysisError("dc level must be finite")
        object.__setattr__(self, "fundamental_hz", float(self.fundamental_hz))
        object.__setattr__(self, "dc", float(self.dc))
        orders = np.array(self.orders, dtype=np.float64)
        rms = np.array(self.rms, dtype=np.float64)
        phase = (
            np.zeros(orders.shape) if self.phase_rad is None
            else np.array(self.phase_rad, dtype=np.float64)
        )
        if not (orders.ndim == 1 and rms.shape == phase.shape == orders.shape):
            raise PowerAnalysisError(
                "orders, rms and phase_rad need one entry per line, got orders "
                f"{orders.tolist()}, rms {rms.tolist()} and phase_rad {phase.tolist()}"
            )
        _check_lines(orders, rms, phase)
        kept = rms > 0.0
        wrapped = [_normalize_phase(p) for p in phase[kept].tolist()]
        for name, a in (
            ("orders", orders[kept]),
            ("rms", rms[kept]),
            ("phase_rad", np.array(wrapped, dtype=np.float64)),
        ):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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
                if _is_integer_order(order) != integer:
                    expected = "integer" if integer else "fractional"
                    raise SchemaError(
                        f"{where}.order must be {expected}, got {order}"
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


@dataclass(frozen=True)
class BasisLayout:
    """Assignment of frequencies to basis-vector slots.

    ``n`` integer harmonics and ``len(interharmonic_orders)`` interharmonics
    need ``1 + 2n + 2l`` basis vectors: s0 for DC, (s_{2k-1}, s_{2k}) for
    harmonic k, and the trailing pairs for the interharmonics in listed
    order.
    """

    n: int
    interharmonic_orders: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise LayoutError(f"harmonic count must be >= 0, got {self.n}")
        orders = tuple(float(x) for x in self.interharmonic_orders)
        last = 0.0
        for x in orders:
            if not math.isfinite(x) or x <= 0 or _is_integer_order(x):
                raise LayoutError(f"interharmonic order must be fractional, got {x}")
            if x <= last:
                raise LayoutError("interharmonic orders must be strictly increasing")
            last = x
        object.__setattr__(self, "interharmonic_orders", orders)

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

    def orders(self) -> tuple[float, ...]:
        """All orders with a slot pair, harmonics first."""
        return tuple(float(k) for k in range(1, self.n + 1)) + self.interharmonic_orders

    def slot_pair(self, order: float) -> tuple[int, int]:
        """(odd, even) basis indices carrying the given order."""
        if _is_integer_order(order):
            k = int(order)
            if 1 <= k <= self.n:
                return 2 * k - 1, 2 * k
            raise LayoutError(f"harmonic order {k} has no slot (n={self.n})")
        try:
            m = self.interharmonic_orders.index(float(order)) + 1
        except ValueError:
            raise LayoutError(f"interharmonic order {order} has no slot") from None
        base = 2 * self.n
        return base + 2 * m - 1, base + 2 * m


@dataclass(frozen=True, eq=False)
class GeometricPhasor:
    """A grade-1 element tied to the layout and fundamental that give its
    coefficients physical meaning.

    ``coeffs`` is a read-only float64 copy of the given vector, of length
    ``layout.dimension``: entry ``k`` is the coefficient of basis vector
    ``s_k``.  ``pairs`` views the per-order slots as an ``(n_orders, 2)``
    array of (odd, even) columns in ``layout.orders()`` order.  ``str()``
    prints the sum, e.g. ``50 s1 + 50 s2 - 50 s5 + 50 s6``.
    """

    coeffs: np.ndarray
    layout: BasisLayout
    fundamental_hz: float

    def __post_init__(self):
        if not (math.isfinite(self.fundamental_hz) and self.fundamental_hz > 0):
            raise PowerAnalysisError(
                f"fundamental frequency must be > 0 Hz, got {self.fundamental_hz}"
            )
        coeffs = np.array(self.coeffs, dtype=np.float64)
        if coeffs.shape != (self.layout.dimension,):
            raise LayoutError(
                f"coefficient shape {coeffs.shape} does not match "
                f"layout dimension {self.layout.dimension}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

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

    def pair(self, order: float) -> tuple[float, float]:
        """Coefficients on the (odd, even) slots of an order."""
        lo, hi = self.layout.slot_pair(order)
        return float(self.coeffs[lo]), float(self.coeffs[hi])

    def _present(self) -> np.ndarray:
        """Boolean mask over ``coeffs``: entries that are not zero by the
        rule of ``algebra``, relative to this phasor's norm."""
        return ~negligible(self.coeffs, self.norm())

    def has_dc(self) -> bool:
        """Whether the DC slot is present."""
        return bool(self._present()[0])

    def occupied(self) -> np.ndarray:
        """Boolean mask over ``layout.orders()``: either slot present."""
        return self._present()[1:].reshape(-1, 2).any(axis=1)

    def occupied_orders(self) -> tuple[float, ...]:
        """Orders with either slot present (DC excluded)."""
        orders = self.layout.orders()
        return tuple(orders[k] for k in np.flatnonzero(self.occupied()))

    def component(self, order: float) -> "GeometricPhasor":
        """Projection onto one order's plane."""
        lo, hi = self.layout.slot_pair(order)
        coeffs = np.zeros_like(self.coeffs)
        coeffs[[lo, hi]] = self.coeffs[[lo, hi]]
        return self._like(coeffs)

    def dot(self, other: "GeometricPhasor") -> float:
        """Scalar product, summed one slot at a time in ascending order
        (a pairwise sum could move the last bit of the result)."""
        return float(np.cumsum(self.coeffs * other.coeffs)[-1])

    def norm(self) -> float:
        """Collective rms value of the signal the phasor represents, summed
        like ``dot`` on coefficients scaled by a power of two."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        # coeffs is read-only, so the norm the zero rule asks for on every
        # has_dc/occupied call is computed once per phasor
        e = pow2_exponent(self.coeffs)
        c = np.ldexp(self.coeffs, -e)
        return float(np.ldexp(math.sqrt(np.cumsum(c * c)[-1]), e))

    def _check_compatible(self, other: "GeometricPhasor") -> None:
        if self.layout != other.layout:
            raise LayoutError("phasors use different basis layouts")
        if not math.isclose(self.fundamental_hz, other.fundamental_hz,
                            rel_tol=1e-9, abs_tol=0.0):
            raise LayoutError("phasors use different fundamental frequencies")

    def _like(self, coeffs: np.ndarray) -> "GeometricPhasor":
        return GeometricPhasor(coeffs, self.layout, self.fundamental_hz)

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
    an exact 0.  The DC level lands on s0.  Every line must have a slot
    in the layout.
    """
    orders, all_orders = signal.orders, np.array(layout.orders())
    # row of each line in layout.orders(): harmonic k is row k - 1, and
    # the interharmonics follow the n harmonic rows in ascending order
    rows = np.where(
        signal.harmonic,
        orders - 1,
        layout.n + np.searchsorted(all_orders[layout.n:], orders),
    ).astype(np.intp)
    # a row past the end reads the appended nan, which matches no order
    held = np.append(all_orders, np.nan)[np.minimum(rows, len(all_orders))]
    slotless = held != orders
    if slotless.any():
        layout.slot_pair(float(orders[np.argmax(slotless)]))  # raises LayoutError
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
