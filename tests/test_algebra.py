"""Kernel tests: exhaustive sign-table oracle, worked fixtures and the
algebraic laws the rest of the package leans on."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.algebra import (
    EQ_TOL,
    PRUNE_EPS,
    Multivector,
    basis,
    blade,
    blade_indices,
    geometric_product,
    grade_of,
    inner_vectors,
    inverse_spinor,
    reverse,
)
from gapower.errors import DimensionMismatch, NotInvertible, PowerAnalysisError

from oracles import blade_product_brute, mv_product_brute, reverse_brute


def to_tuples(m: Multivector) -> dict:
    return {blade_indices(mask): c for mask, c in m.terms.items()}


def assert_matches_oracle(m: Multivector, expected: dict, tol: float = 1e-12):
    got = to_tuples(m)
    for key in got.keys() | expected.keys():
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= tol, (
            key,
            got,
            expected,
        )


# -- blade helpers ------------------------------------------------------

def test_blade_mask_encoding():
    assert blade() == 0
    assert blade(0) == 1
    assert blade(1, 2) == 0b110
    assert blade_indices(0b110) == (1, 2)
    assert grade_of(0) == 0
    assert grade_of(0b110110) == 4


def test_blade_rejects_duplicates_and_negatives():
    with pytest.raises(PowerAnalysisError):
        blade(1, 1)
    with pytest.raises(PowerAnalysisError):
        blade(-1)


# -- sign-table oracle ----------------------------------------------------

def test_sign_table_exhaustive_dim6():
    # every blade pair in a 6-vector algebra against the brute-force product
    for ma in range(64):
        for mb in range(64):
            product = geometric_product(
                Multivector(6, {ma: 1.0}), Multivector(6, {mb: 1.0})
            )
            sign, idx = blade_product_brute(blade_indices(ma), blade_indices(mb))
            assert product.terms == {blade(*idx): float(sign)}, (ma, mb)


# -- geometric product ----------------------------------------------------

def test_product_basis_bivector():
    s = basis(3)
    assert s[1] * s[2] == Multivector(3, {blade(1, 2): 1.0})
    assert s[2] * s[1] == Multivector(3, {blade(1, 2): -1.0})


@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
)
def test_product_two_vector_formula(a1, a2, b1, b2):
    s = basis(3)
    got = (a1 * s[1] + a2 * s[2]) * (b1 * s[1] + b2 * s[2])
    assert_matches_oracle(
        got, {(): a1 * b1 + a2 * b2, (1, 2): a1 * b2 - a2 * b1}, tol=1e-9
    )


def test_product_vector_squares_to_norm():
    s = basis(3)
    assert (s[1] + s[2]) * (s[1] + s[2]) == 2.0


def test_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geometric_product(Multivector(2, {1: 1.0}), Multivector(3, {1: 1.0}))


def test_scalar_mixing_operators():
    s = basis(3)
    m = 1 + 2 * (s[1] * s[2])
    assert m.scalar_part == 1.0
    assert (m - 1).grade(2) == 2 * (s[1] ^ s[2])
    assert (2 * m / 2).isclose(m)


# -- outer product ---------------------------------------------------------

def test_outer_anticommutes_on_basis():
    s = basis(3)
    assert (s[1] ^ s[2]) == Multivector(3, {blade(1, 2): 1.0})
    assert (s[2] ^ s[1]) == Multivector(3, {blade(1, 2): -1.0})


def test_outer_worked_example():
    s = basis(7)
    u = 100 * s[2] + 100 * s[6]
    i = 50 * s[1] + 50 * s[2] - 50 * s[5] + 50 * s[6]
    assert_matches_oracle(
        u ^ i,
        {(1, 2): -5000.0, (5, 6): 5000.0, (1, 6): -5000.0, (2, 5): -5000.0},
        tol=1e-9,
    )


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
def test_outer_self_wedge_is_zero(coeffs):
    a = Multivector.vector(6, coeffs)
    assert (a ^ a).is_zero()


# -- inner product -----------------------------------------------------------

def test_inner_orthonormality():
    s = basis(3)
    assert inner_vectors(s[1], s[1]) == 1.0
    assert inner_vectors(s[1], s[2]) == 0.0


def test_inner_worked_example():
    s = basis(7)
    u = 100 * s[2] + 100 * s[6]
    i = 50 * s[1] + 50 * s[2] - 50 * s[5] + 50 * s[6]
    assert inner_vectors(u, i) == pytest.approx(10000.0, abs=1e-9)


def test_inner_rejects_non_vectors():
    s = basis(3)
    with pytest.raises(PowerAnalysisError):
        inner_vectors(s[1] * s[2], s[1])


# -- reverse ------------------------------------------------------------------

def test_reverse_examples():
    s = basis(5)
    assert reverse(s[1] * s[2]) == -(s[1] * s[2])
    v = 3 * s[0] - 2 * s[4]
    assert reverse(v) == v
    m = 1 + 2 * (s[1] * s[2]) + 3 * (s[1] * s[2] * s[3] * s[4])
    assert reverse(m) == 1 - 2 * (s[1] * s[2]) + 3 * (s[1] * s[2] * s[3] * s[4])


# -- grade selection -----------------------------------------------------------

def test_grade_selection():
    s = basis(3)
    m = 3 + 4 * (s[1] * s[2])
    assert m.grade(0) == 3.0
    assert m.grade(2) == 4 * (s[1] * s[2])
    assert m.grade(1).is_zero()
    assert m.grades() == {0, 2}


def test_grade_of_worked_power_multivector():
    # the variant circuit's power multivector carries five bivector planes
    s = basis(7)
    u = 100 * s[2] + 100 * s[6]
    i = 30 * s[1] + 10 * s[2] - 30 * s[5] + 90 * s[6]
    m_n = (u * i).grade(2)
    assert len(m_n.terms) == 5
    assert m_n.coefficient(blade(2, 6)) == pytest.approx(8000.0)


# -- norm ------------------------------------------------------------------------

def test_norm_examples():
    s = basis(7)
    assert (100 * s[2] + 100 * s[6]).norm() == pytest.approx(100 * math.sqrt(2))
    assert Multivector(7).norm() == 0.0
    assert (1 + s[1] * s[2]).norm() == pytest.approx(math.sqrt(2))


def test_norm_is_sqrt_scalar_of_reverse_product():
    s = basis(4)
    m = 1 + 2 * s[1] - 3 * (s[2] * s[3]) + 0.5 * (s[0] * s[1] * s[2])
    assert m.norm() == pytest.approx(
        math.sqrt((reverse(m) * m).scalar_part), abs=1e-12
    )


# -- inverses --------------------------------------------------------------------

def test_inverse_spinor_examples():
    s = basis(7)
    assert inverse_spinor(1 - s[1] * s[2]) == 0.5 + 0.5 * (s[1] * s[2])
    assert inverse_spinor(1 + s[5] * s[6]) == 0.5 - 0.5 * (s[5] * s[6])
    assert inverse_spinor(Multivector.scalar(7, 2.0)) == 0.5


def test_inverse_spinor_errors():
    s = basis(5)
    with pytest.raises(NotInvertible):
        inverse_spinor(Multivector(5))
    with pytest.raises(NotInvertible):
        inverse_spinor(s[1] * s[2] + s[3] * s[4])  # two planes
    with pytest.raises(NotInvertible):
        inverse_spinor(s[1])  # wrong grade


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_inverse_spinor_multiplies_to_one(g, b):
    s = basis(3)
    z = g + b * (s[1] * s[2])
    if z.norm() < 1e-3:
        return
    assert (inverse_spinor(z) * z).isclose(1.0, tol=1e-9)
    assert (z * inverse_spinor(z)).isclose(1.0, tol=1e-9)


# -- storage rules -------------------------------------------------------------------

def test_pruning_drops_tiny_coefficients():
    assert Multivector(3, {1: PRUNE_EPS / 10}).is_zero()
    assert not Multivector(3, {1: PRUNE_EPS * 10}).is_zero()


def test_equality_tolerance():
    a = Multivector(3, {1: 1.0})
    assert a == Multivector(3, {1: 1.0 + EQ_TOL / 2})
    assert a != Multivector(3, {1: 1.0 + EQ_TOL * 3})
    assert a.isclose(Multivector(3, {1: 1.001}), tol=1e-2)


def test_mask_out_of_range_rejected():
    with pytest.raises(PowerAnalysisError):
        Multivector(2, {blade(5): 1.0})


def test_repr_is_readable():
    s = basis(3)
    assert repr(2 * s[1] - s[1] * s[2]) == "2 s1 - 1 s12"
    assert repr(Multivector(3)) == "0"


# -- random-instance laws ---------------------------------------------------------------

coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def mv_triple(draw):
    dim = draw(st.integers(1, 6))

    def one():
        masks = draw(
            st.lists(st.integers(0, (1 << dim) - 1), max_size=4, unique=True)
        )
        return Multivector(dim, {m: draw(coeff) for m in masks})

    return one(), one(), one()


# Identity checks run at EQ_TOL: products prune coefficients below
# PRUNE_EPS, so near-threshold inputs satisfy the laws only to ~PRUNE_EPS.

@given(mv_triple())
def test_associativity(triple):
    a, b, c = triple
    assert ((a * b) * c).isclose(a * (b * c), tol=EQ_TOL)


@given(mv_triple())
def test_distributivity(triple):
    a, b, c = triple
    assert (a * (b + c)).isclose(a * b + a * c, tol=EQ_TOL)


@given(mv_triple())
def test_reverse_antiautomorphism(triple):
    a, b, _ = triple
    assert reverse(a * b).isclose(reverse(b) * reverse(a), tol=EQ_TOL)


@given(mv_triple())
def test_product_matches_bruteforce(triple):
    a, b, _ = triple
    got = a * b
    expected = mv_product_brute(to_tuples(a), to_tuples(b))
    assert_matches_oracle(got, expected)


@given(mv_triple())
def test_reverse_matches_bruteforce(triple):
    a, _, _ = triple
    assert_matches_oracle(reverse(a), reverse_brute(to_tuples(a)))


@st.composite
def vector_pair(draw):
    dim = draw(st.integers(1, 8))
    def vec():
        return Multivector.vector(
            dim, [draw(st.floats(-3, 3, allow_nan=False)) for _ in range(dim)]
        )
    return vec(), vec()


@given(vector_pair())
def test_vector_norm_multiplicative(pair):
    a, b = pair
    assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-9)


@given(vector_pair())
def test_vector_product_splits_into_inner_plus_outer(pair):
    a, b = pair
    assert (a * b).isclose(inner_vectors(a, b) + (a ^ b), tol=EQ_TOL)
