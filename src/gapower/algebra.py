"""Sparse kernel for Euclidean geometric algebra.

A multivector over an orthonormal basis ``s0 .. s{dim-1}`` (every basis
vector squares to +1) is stored as a map from basis blades to float
coefficients.  A blade is encoded as an int bitmask: bit ``i`` set means
basis vector ``s_i`` is a factor, so ``s1 s2`` is mask ``0b110`` and the
scalar blade is mask 0.  Coefficients with magnitude below ``PRUNE_EPS``
are dropped on construction, which keeps every operation sparse and makes
zero tests cheap.

All operations are pure: they return new ``Multivector`` instances and
never mutate their inputs.

This is the general public algebra.  The power pipeline does not run on
it: a phasor is a dense grade-1 coefficient vector and a power a scalar
plus a bivector block (see ``phasor`` and ``power``), whose ``.mv``
properties build the sparse view here on demand.  ``prune`` applies the
same ``PRUNE_EPS`` cut to those dense arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import DimensionMismatch, NotInvertible, PowerAnalysisError

# Coefficients below this magnitude are treated as exact zeros when a
# multivector is built.
PRUNE_EPS = 1e-12

# Default term-wise tolerance for equality checks.
EQ_TOL = 1e-9

Scalar = Union[int, float]


def prune(coeffs: np.ndarray) -> np.ndarray:
    """Dense counterpart of the construction cut: a copy of ``coeffs`` with
    every entry below ``PRUNE_EPS`` in magnitude (and every NaN) set to an
    exact +0.0, as ``Multivector`` would drop it."""
    return np.where(np.abs(coeffs) >= PRUNE_EPS, coeffs, 0.0)


def blade(*indices: int) -> int:
    """Bitmask for the blade with the given basis-vector indices.

    ``blade()`` is the scalar blade, ``blade(1, 2)`` the plane s1 s2.
    Indices must be distinct and non-negative.
    """
    mask = 0
    for i in indices:
        if i < 0:
            raise PowerAnalysisError(f"basis index must be non-negative, got {i}")
        bit = 1 << i
        if mask & bit:
            raise PowerAnalysisError(f"repeated basis index {i} in blade")
        mask |= bit
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    """Ascending basis-vector indices of a blade bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def grade_of(mask: int) -> int:
    """Grade of a blade, i.e. how many basis vectors it contains."""
    return mask.bit_count()


def _reorder_sign(a: int, b: int) -> int:
    """Sign of the product of blades ``a`` and ``b``.

    Counts the transpositions needed to sort the concatenated factor list;
    equal factors then cancel in adjacent pairs at no extra sign because the
    metric is +1 on every basis vector.
    """
    x = a >> 1
    swaps = 0
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if swaps & 1 else 1


def _blade_label(mask: int) -> str:
    if mask == 0:
        return ""
    idx = blade_indices(mask)
    if idx[-1] <= 9:
        return "s" + "".join(str(i) for i in idx)
    return "s(" + ",".join(str(i) for i in idx) + ")"


class Multivector:
    """Immutable sparse multivector of a Euclidean geometric algebra.

    Supports ``+``, ``-``, scalar ``*`` and ``/``, the geometric product
    ``*``, the outer product ``^`` and reversion ``~``.  Python numbers mix
    in as scalars, so ``1 + s1*s2`` works.  Note that ``^`` binds more
    loosely than ``+`` in Python, so wedge expressions usually need
    parentheses.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[int, float] | None = None):
        if dim < 1:
            raise PowerAnalysisError(f"algebra dimension must be >= 1, got {dim}")
        self._dim = dim
        limit = 1 << dim
        kept: dict[int, float] = {}
        if terms:
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise PowerAnalysisError(
                        f"blade mask {mask} out of range for dimension {dim}"
                    )
                c = float(coeff)
                if abs(c) >= PRUNE_EPS:
                    kept[mask] = c
        self._terms = kept

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, dim: int, value: float) -> "Multivector":
        return cls(dim, {0: value})

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "Multivector":
        if not 0 <= index < dim:
            raise PowerAnalysisError(
                f"basis index {index} out of range for dimension {dim}"
            )
        return cls(dim, {1 << index: 1.0})

    @classmethod
    def vector(cls, dim: int, coeffs: Iterable[float]) -> "Multivector":
        """Grade-1 multivector from per-index coefficients."""
        terms = {1 << i: c for i, c in enumerate(coeffs)}
        if len(terms) > dim:
            raise PowerAnalysisError("more coefficients than basis vectors")
        return cls(dim, terms)

    @classmethod
    def from_blades(
        cls, dim: int, terms: Mapping[tuple[int, ...], float]
    ) -> "Multivector":
        """Build from a map of index tuples, e.g. ``{(): 1.0, (1, 2): -5.0}``."""
        return cls(dim, {blade(*idx): c for idx, c in terms.items()})

    # -- inspection ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> dict[int, float]:
        """Copy of the blade-mask -> coefficient map."""
        return dict(self._terms)

    def coefficient(self, mask: int) -> float:
        """Coefficient of a blade bitmask (0.0 when absent)."""
        return self._terms.get(mask, 0.0)

    @property
    def scalar_part(self) -> float:
        return self._terms.get(0, 0.0)

    def grades(self) -> set[int]:
        """Set of grades with at least one non-zero coefficient."""
        return {grade_of(m) for m in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def is_vector(self) -> bool:
        """True when every stored term has grade 1 (the zero element counts)."""
        return all(grade_of(m) == 1 for m in self._terms)

    # -- linear structure ----------------------------------------------

    def _check_dim(self, other: "Multivector") -> None:
        if self._dim != other._dim:
            raise DimensionMismatch(
                f"operands have dimensions {self._dim} and {other._dim}"
            )

    def _coerce(self, other) -> "Multivector | None":
        if isinstance(other, Multivector):
            return other
        if isinstance(other, (int, float)):
            return Multivector(self._dim, {0: float(other)})
        return None

    def __add__(self, other) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_dim(rhs)
        out = dict(self._terms)
        for mask, c in rhs._terms.items():
            out[mask] = out.get(mask, 0.0) + c
        return Multivector(self._dim, out)

    __radd__ = __add__

    def __neg__(self) -> "Multivector":
        return Multivector(self._dim, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, (int, float)):
            s = float(other)
            return Multivector(self._dim, {m: c * s for m, c in self._terms.items()})
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other) -> "Multivector":
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> "Multivector":
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division of multivector by zero")
            return self.__mul__(1.0 / other)
        return NotImplemented

    def __xor__(self, other) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return outer(self, rhs)

    def __invert__(self) -> "Multivector":
        return reverse(self)

    # -- grade machinery -----------------------------------------------

    def grade(self, k: int) -> "Multivector":
        """Grade-k part as a new multivector."""
        return Multivector(
            self._dim, {m: c for m, c in self._terms.items() if grade_of(m) == k}
        )

    def norm(self) -> float:
        """Magnitude sqrt(<~M M>_0).

        For an orthonormal Euclidean basis this reduces to the Euclidean
        norm of the coefficient list, which is how it is computed here.
        """
        return math.sqrt(sum(c * c for c in self._terms.values()))

    # -- comparison / display -------------------------------------------

    def isclose(self, other, tol: float = EQ_TOL) -> bool:
        """Term-wise comparison within an absolute tolerance."""
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot compare Multivector with {type(other)!r}")
        self._check_dim(rhs)
        for mask in self._terms.keys() | rhs._terms.keys():
            if abs(self._terms.get(mask, 0.0) - rhs._terms.get(mask, 0.0)) > tol:
                return False
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, (Multivector, int, float)):
            try:
                return self.isclose(other)
            except DimensionMismatch:
                return False
        return NotImplemented

    __hash__ = None  # mutable-tolerance equality is incompatible with hashing

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms, key=lambda m: (grade_of(m), m)):
            c = self._terms[mask]
            label = _blade_label(mask)
            mag = f"{abs(c):g}"
            body = f"{mag} {label}".strip() if label else mag
            if not parts:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c >= 0 else f"- {body}")
        return " ".join(parts)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product of two multivectors."""
    a._check_dim(b)
    out: dict[int, float] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            mask = ma ^ mb
            out[mask] = out.get(mask, 0.0) + _reorder_sign(ma, mb) * ca * cb
    return Multivector(a.dim, out)


def outer(a: Multivector, b: Multivector) -> Multivector:
    """Outer (wedge) product: blade pairs sharing a basis vector vanish."""
    a._check_dim(b)
    out: dict[int, float] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            if ma & mb:
                continue
            mask = ma | mb
            out[mask] = out.get(mask, 0.0) + _reorder_sign(ma, mb) * ca * cb
    return Multivector(a.dim, out)


def inner_vectors(a: Multivector, b: Multivector) -> float:
    """Scalar inner product of two grade-1 multivectors."""
    a._check_dim(b)
    if not (a.is_vector() and b.is_vector()):
        raise PowerAnalysisError("inner_vectors requires grade-1 operands")
    return sum(c * b._terms.get(m, 0.0) for m, c in a._terms.items())


def reverse(m: Multivector) -> Multivector:
    """Reversion: grade-k terms pick up the sign (-1)^(k(k-1)/2)."""
    out = {}
    for mask, c in m._terms.items():
        k = grade_of(mask)
        out[mask] = -c if (k * (k - 1) // 2) & 1 else c
    return Multivector(m.dim, out)


def inverse_spinor(z: Multivector) -> Multivector:
    """Inverse of a scalar-plus-bivector element living in a single plane.

    For z = g + b*B with B a unit plane blade, ~z z = g^2 + b^2 is a scalar,
    so the inverse is ~z / |z|^2.  Elements with bivector parts spread over
    more than one plane are rejected: their ~z z is not scalar in general.
    """
    bivector_masks = [m for m in z._terms if grade_of(m) == 2]
    if len(bivector_masks) > 1:
        raise NotInvertible("spinor inverse supports a single bivector plane only")
    if any(grade_of(m) not in (0, 2) for m in z._terms):
        raise NotInvertible("spinor inverse requires a scalar-plus-bivector element")
    n2 = sum(c * c for c in z._terms.values())
    if n2 == 0.0:
        raise NotInvertible("zero element has no inverse")
    return reverse(z) * (1.0 / n2)


def basis(dim: int) -> tuple[Multivector, ...]:
    """The ``dim`` basis vectors s0 .. s{dim-1} as multivectors."""
    return tuple(Multivector.basis_vector(dim, i) for i in range(dim))
