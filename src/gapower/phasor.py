"""Harmonic spectra and their geometric-phasor images.

A periodic signal is described by a ``SpectralSignal``: a DC offset plus
rms/phase pairs for integer harmonics and optional interharmonics, all
referenced to ``sqrt(2)*rms*sin(order*w*t + phase)``.  A ``BasisLayout``
assigns each frequency a plane of the algebra: DC sits on s0, harmonic k
occupies the pair (s_{2k-1}, s_{2k}), and the m-th interharmonic occupies
the pair after the last harmonic slot.  ``to_phasor`` maps a component of
rms X and phase p to ``X*sin(p)`` on the odd slot and ``X*cos(p)`` on the
even slot, so in-phase parts land on even indices; ``from_phasor`` inverts
that with ``rms = hypot(odd, even)``, ``phase = atan2(odd, even)``.

A ``GeometricPhasor`` is a dense coefficient vector over that layout;
per-order work runs on its ``(n_orders, 2)`` slot-pair view.  It stores
exact values.  Whether an order or the DC slot is present follows the
relative zero rule of ``algebra``, against the phasor's own norm, and
``to_phasor`` applies the same rule to each slot against the component's
rms, so the phases 0, +-pi/2 and pi give exact zeros.
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


@dataclass(frozen=True)
class HarmonicComponent:
    """One spectral line: rms amplitude and phase at a multiple of the
    fundamental.  ``order`` is integer-valued for harmonics (1 = the
    fundamental) and fractional for interharmonics."""

    order: float
    rms: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order > 0):
            raise PowerAnalysisError(f"component order must be > 0, got {self.order}")
        if not (math.isfinite(self.rms) and self.rms >= 0):
            raise PowerAnalysisError(f"component rms must be >= 0, got {self.rms}")
        if not math.isfinite(self.phase_rad):
            raise PowerAnalysisError("component phase must be finite")
        object.__setattr__(self, "order", float(self.order))
        object.__setattr__(self, "rms", float(self.rms))
        object.__setattr__(self, "phase_rad", _normalize_phase(float(self.phase_rad)))


def _validated_components(
    comps, want_integer: bool, kind: str
) -> tuple[HarmonicComponent, ...]:
    out = []
    last = 0.0
    for c in comps:
        if not isinstance(c, HarmonicComponent):
            raise PowerAnalysisError(f"{kind} entries must be HarmonicComponent")
        if _is_integer_order(c.order) != want_integer:
            expected = "integer" if want_integer else "non-integer"
            raise PowerAnalysisError(
                f"{kind} orders must be {expected}, got {c.order}"
            )
        if c.order <= last:
            raise PowerAnalysisError(f"{kind} orders must be strictly increasing")
        last = c.order
        if c.rms > 0.0:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class SpectralSignal:
    """Frequency-domain description of one periodic waveform.

    Zero-rms components are dropped at construction, so two signals built
    from the same physical content compare equal regardless of padding.
    """

    fundamental_hz: float
    dc: float = 0.0
    harmonics: tuple[HarmonicComponent, ...] = ()
    interharmonics: tuple[HarmonicComponent, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.fundamental_hz) and self.fundamental_hz > 0):
            raise PowerAnalysisError(
                f"fundamental frequency must be > 0 Hz, got {self.fundamental_hz}"
            )
        if not math.isfinite(self.dc):
            raise PowerAnalysisError("dc level must be finite")
        object.__setattr__(self, "fundamental_hz", float(self.fundamental_hz))
        object.__setattr__(self, "dc", float(self.dc))
        object.__setattr__(
            self,
            "harmonics",
            _validated_components(self.harmonics, True, "harmonics"),
        )
        object.__setattr__(
            self,
            "interharmonics",
            _validated_components(self.interharmonics, False, "interharmonics"),
        )

    @property
    def omega(self) -> float:
        """Fundamental angular frequency in rad/s."""
        return _TWO_PI * self.fundamental_hz

    def components(self) -> tuple[HarmonicComponent, ...]:
        return self.harmonics + self.interharmonics

    def max_order(self) -> int:
        """Highest integer harmonic order present (0 when none)."""
        return int(self.harmonics[-1].order) if self.harmonics else 0

    def rms(self) -> float:
        """Collective rms value including DC."""
        return math.sqrt(self.dc**2 + sum(c.rms**2 for c in self.components()))

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

        def comps(value, path: str) -> list[HarmonicComponent]:
            if value is None:
                return []
            if not isinstance(value, list):
                raise SchemaError(f"{path} must be an array")
            out = []
            for i, item in enumerate(value):
                where = f"{path}[{i}]"
                if not isinstance(item, dict):
                    raise SchemaError(f"{where} must be an object")
                for key in item:
                    if key not in {"order", "rms", "phase_rad"}:
                        raise SchemaError(f"unknown field {key!r} in {where}")
                if "order" not in item or "rms" not in item:
                    raise SchemaError(f"{where} needs 'order' and 'rms'")
                try:
                    out.append(
                        HarmonicComponent(
                            number(item["order"], f"{where}.order"),
                            number(item["rms"], f"{where}.rms"),
                            number(item.get("phase_rad", 0.0), f"{where}.phase_rad"),
                        )
                    )
                except SchemaError:
                    raise
                except PowerAnalysisError as exc:
                    raise SchemaError(f"{where}: {exc}") from exc
            return out

        try:
            return cls(
                fundamental_hz=number(data["fundamental_hz"], "fundamental_hz"),
                dc=number(data.get("dc", 0.0), "dc"),
                harmonics=tuple(comps(data.get("harmonics"), "harmonics")),
                interharmonics=tuple(
                    comps(data.get("interharmonics"), "interharmonics")
                ),
            )
        except SchemaError:
            raise
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
        n = max((s.max_order() for s in signals), default=0)
        inter = sorted({c.order for s in signals for c in s.interharmonics})
        return cls(n=n, interharmonic_orders=tuple(inter))

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

    A component of rms X and phase p contributes X*sin(p) to the odd slot
    and X*cos(p) to the even slot of its order; a slot value that is zero
    against X by the rule of ``algebra`` (cos(pi/2)*X, say) is stored as
    an exact 0.  The DC level lands on s0.  Every component must have a
    slot in the layout.
    """
    coeffs = np.zeros(layout.dimension)
    coeffs[0] = signal.dc
    for comp in signal.components():
        lo, hi = layout.slot_pair(comp.order)
        for slot, x in ((lo, comp.rms * math.sin(comp.phase_rad)),
                        (hi, comp.rms * math.cos(comp.phase_rad))):
            coeffs[slot] = 0.0 if negligible(x, comp.rms) else x
    return GeometricPhasor(coeffs, layout, signal.fundamental_hz)


def from_phasor(p: GeometricPhasor) -> SpectralSignal:
    """Recover the spectral signal a geometric phasor represents."""
    harmonics = []
    interharmonics = []
    for order, (odd, even) in zip(p.layout.orders(), p.pairs.tolist()):
        rms = math.hypot(odd, even)
        if rms == 0.0:
            continue
        comp = HarmonicComponent(order, rms, math.atan2(odd, even))
        if _is_integer_order(order):
            harmonics.append(comp)
        else:
            interharmonics.append(comp)
    return SpectralSignal(
        fundamental_hz=p.fundamental_hz,
        dc=p.dc,
        harmonics=tuple(harmonics),
        interharmonics=tuple(interharmonics),
    )


def reconstruct(signal: SpectralSignal, times) -> np.ndarray:
    """Instantaneous values ``dc + sum sqrt(2)*rms*sin(order*w*t + phase)``.

    ``times`` is an array-like of seconds; returns a float array of the
    same shape.
    """
    t = np.asarray(times, dtype=float)
    x = np.full_like(t, signal.dc)
    w = signal.omega
    for c in signal.components():
        x = x + math.sqrt(2.0) * c.rms * np.sin(c.order * w * t + c.phase_rad)
    return x
