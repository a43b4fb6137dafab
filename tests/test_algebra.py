"""The geometric algebra of the dense core: the product ``M = u i`` of two
phasors (``geometric_power``), its norm (``apparent``), the spinor inverse
(``invert``), the zero rule and the blade notation, each against
the brute-force blade oracle or a worked value.  The oracle's own laws
(associativity, reversion) are checked on general multivectors."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapower.algebra import format_terms, negligible
from gapower.circuit import invert
from gapower.errors import LayoutError
from gapower.phasor import BasisLayout, GeometricPhasor, SpectralSignal, to_phasor
from gapower.power import apparent, geometric_power

from conftest import bivector_block, index_terms, power_terms, vector
from oracles import blade_product_brute, mv_product_brute, reverse_brute

L3 = BasisLayout(n=3)  # s0 .. s6


def s(k: int, layout: BasisLayout = L3) -> GeometricPhasor:
    """Basis vector s_k as a phasor."""
    return vector(layout, {k: 1.0})


def assert_terms(got: dict, expected: dict, tol: float = 1e-12):
    for key in got.keys() | expected.keys():
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= tol, (
            key,
            got,
            expected,
        )


def spinor_product(y, z) -> dict:
    """Oracle product of two scalar-plus-plane elements on the plane s1 s2."""
    terms = lambda g, b: {(): g, (1, 2): b}  # noqa: E731
    return mv_product_brute(terms(*y), terms(*z))


# -- notation -----------------------------------------------------------

def test_blade_mask_encoding():
    # blades print by index (s(a,b) past 9) in ascending mask sum(1 << k):
    # s12 (6) < s25 (36) < s16 (66) < s56 (96) < s(1,10) (1026)
    layout = BasisLayout(n=5)
    u = vector(layout, {2: 100.0, 6: 100.0, 10: 1.0})
    i = vector(layout, {1: 50.0, 2: 50.0, 5: -50.0, 6: 50.0})
    assert str(geometric_power(u, i)) == (
        "10000 - 5000 s12 - 5000 s25 - 5000 s16 + 5000 s56 - 50 s(1,10)"
        " - 50 s(2,10) + 50 s(5,10) - 50 s(6,10)"
    )
    assert format_terms([((), 1.0), ((0, 3), -2.0), ((11,), 0.5)]) == (
        "1 - 2 s03 + 0.5 s(11)"
    )


def test_repr_is_readable():
    assert str(vector(L3, {1: 2.0, 2: -1.0})) == "2 s1 - 1 s2"
    assert str(geometric_power(s(1), vector(L3, {1: 2.0, 2: -1.0}))) == "2 - 1 s12"
    assert str(GeometricPhasor(np.zeros(7), L3, 50.0)) == "0"
    assert str(geometric_power(s(1), s(2))) == "1 s12"


# -- the zero rule ----------------------------------------------------------

def test_zero_rule_is_relative():
    assert negligible(5e-13, 1.0)
    assert not negligible(5e-13, 1e-3)
    assert negligible(5e-13 * 1e-9, 1e-9)
    assert negligible(0.0, 0.0) and not negligible(1e-300, 0.0)
    assert negligible(np.array([1e-13, -8e-10, 2e-9]), 1e3).tolist() == [True, True, False]


# -- the product of two vectors -----------------------------------------------

def test_sign_table_exhaustive_dim6():
    # every ordered pair of the basis vectors s0 .. s5 against the oracle
    for a in range(6):
        for b in range(6):
            sign, idx = blade_product_brute((a,), (b,))
            assert power_terms(geometric_power(s(a), s(b))) == {idx: float(sign)}, (a, b)


def test_product_basis_bivector():
    assert power_terms(geometric_power(s(1), s(2))) == {(1, 2): 1.0}
    assert power_terms(geometric_power(s(2), s(1))) == {(1, 2): -1.0}


@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
)
def test_product_two_vector_formula(a1, a2, b1, b2):
    m = geometric_power(vector(L3, {1: a1, 2: a2}), vector(L3, {1: b1, 2: b2}))
    assert_terms(
        power_terms(m), {(): a1 * b1 + a2 * b2, (1, 2): a1 * b2 - a2 * b1}, tol=1e-9
    )


def test_product_vector_squares_to_norm():
    v = vector(L3, {1: 1.0, 2: 1.0})
    m = geometric_power(v, v)
    assert m.scalar == 2.0 and not bivector_block(m).any()


def test_product_dimension_mismatch():
    with pytest.raises(LayoutError):
        geometric_power(s(1, BasisLayout(n=1)), s(1))


def test_mask_out_of_range_rejected():
    # a blade outside the layout has no coefficient to read or keep
    layout = BasisLayout(n=1)
    with pytest.raises(LayoutError, match=r"^harmonic order 2 has no slot \(n=1\)$"):
        to_phasor(SpectralSignal(50.0, orders=[2], rms=[1.0]), layout)
    with pytest.raises(LayoutError, match=r"^interharmonic order 1.5 has no slot$"):
        to_phasor(SpectralSignal(50.0, orders=[1.5], rms=[1.0]), layout)


def test_scalar_mixing_operators():
    u = vector(L3, {1: 3.0, 4: -2.0})
    assert np.array_equal((2 * u).coeffs, (u * 2.0).coeffs)
    assert np.array_equal(((2 * u) * 0.5).coeffs, u.coeffs)
    # scalars pull out of the product
    m, m2 = geometric_power(u, s(2)), geometric_power(2 * u, s(2))
    assert m2.scalar == 2 * m.scalar
    assert np.array_equal(bivector_block(m2), 2 * bivector_block(m))
    with pytest.raises(TypeError):
        u * "2"


# -- the wedge: the bivector part ------------------------------------------------

def test_outer_anticommutes_on_basis():
    b12 = bivector_block(geometric_power(s(1), s(2)))
    b21 = bivector_block(geometric_power(s(2), s(1)))
    assert b12[1, 2] == 1.0 and np.array_equal(b21, -b12)


def test_outer_worked_example():
    u = vector(L3, {2: 100.0, 6: 100.0})
    i = vector(L3, {1: 50.0, 2: 50.0, 5: -50.0, 6: 50.0})
    m = power_terms(geometric_power(u, i))
    m.pop(())
    assert_terms(
        m, {(1, 2): -5000.0, (5, 6): 5000.0, (1, 6): -5000.0, (2, 5): -5000.0}, tol=1e-9
    )


@given(st.lists(st.floats(-5, 5), min_size=7, max_size=7))
def test_outer_self_wedge_is_zero(coeffs):
    a = GeometricPhasor(np.array(coeffs), L3, 50.0)
    assert not bivector_block(geometric_power(a, a)).any()


# -- the dot: the scalar part ---------------------------------------------------------

def test_inner_orthonormality():
    assert s(1).dot(s(1)) == 1.0
    assert s(1).dot(s(2)) == 0.0


def test_inner_worked_example():
    u = vector(L3, {2: 100.0, 6: 100.0})
    i = vector(L3, {1: 50.0, 2: 50.0, 5: -50.0, 6: 50.0})
    assert u.dot(i) == pytest.approx(10000.0, abs=1e-9)


# -- reverse: ~(u i) = i u ---------------------------------------------------------------

def test_reverse_examples():
    u = vector(L3, {1: 3.0, 4: -2.0})
    i = vector(L3, {2: 1.0, 4: 5.0})
    m, rev = geometric_power(u, i), geometric_power(i, u)
    assert rev.scalar == m.scalar
    assert np.array_equal(bivector_block(rev), -bivector_block(m))
    assert power_terms(rev) == reverse_brute(power_terms(m))


# -- grades --------------------------------------------------------------------------------

def test_grade_selection():
    # s1 (3 s1 + 4 s2) = 3 + 4 s12: grade 0 and grade 2, nothing else
    m = geometric_power(s(1), vector(L3, {1: 3.0, 2: 4.0}))
    assert m.scalar == 3.0
    assert power_terms(m) == {(): 3.0, (1, 2): 4.0}
    want = mv_product_brute({(1,): 1.0}, {(1,): 3.0, (2,): 4.0})
    assert {len(idx) for idx in want} == {0, 2}


def test_grade_of_worked_power_multivector():
    # the variant circuit's power multivector carries five bivector planes
    u = vector(L3, {2: 100.0, 6: 100.0})
    i = vector(L3, {1: 30.0, 2: 10.0, 5: -30.0, 6: 90.0})
    m = geometric_power(u, i)
    block = bivector_block(m)
    assert np.count_nonzero(block) == 5
    assert block[2, 6] == pytest.approx(8000.0)


# -- norm ------------------------------------------------------------------------------------

def test_norm_examples():
    assert vector(L3, {2: 100.0, 6: 100.0}).norm() == pytest.approx(100 * math.sqrt(2))
    assert GeometricPhasor(np.zeros(7), L3, 50.0).norm() == 0.0
    # s1 (s1 + s2) = 1 + s12
    m = geometric_power(s(1), vector(L3, {1: 1.0, 2: 1.0}))
    assert apparent(m) == pytest.approx(math.sqrt(2))


def test_norm_is_sqrt_scalar_of_reverse_product():
    u = vector(L3, {0: 1.0, 1: 2.0, 3: -3.0})
    i = vector(L3, {1: 0.5, 2: 4.0, 6: -1.0})
    terms = power_terms(geometric_power(u, i))
    scalar = mv_product_brute(reverse_brute(terms), terms).get((), 0.0)
    assert apparent(geometric_power(u, i)) == pytest.approx(math.sqrt(scalar), abs=1e-12)


# -- the spinor inverse: Y = Z^-1 ---------------------------------------------------------

def test_inverse_spinor_examples():
    def inverse(g, b):
        return tuple(x.item() for x in invert(g, b))

    assert inverse(1.0, -1.0) == (0.5, 0.5)
    assert inverse(1.0, 1.0) == (0.5, -0.5)
    assert inverse(2.0, 0.0) == (0.5, 0.0)
    # elementwise over arrays
    g, b = invert(np.array([1.0, 1.0, 2.0]), np.array([-1.0, 1.0, 0.0]))
    assert (g.tolist(), b.tolist()) == ([0.5, 0.5, 0.5], [0.5, -0.5, 0.0])


def test_inverse_spinor_errors():
    # no inverse: NaN for 0, infinite beyond the float range; no warning
    assert all(map(math.isnan, invert(0.0, 0.0)))
    assert invert(5e-324, 0.0)[0] == math.inf
    assert invert(0.0, 5e-324)[1] == -math.inf


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_inverse_spinor_multiplies_to_one(g, b):
    if math.hypot(g, b) < 1e-3:
        return
    inv = tuple(x.item() for x in invert(g, b))
    assert_terms(spinor_product(inv, (g, b)), {(): 1.0}, tol=1e-9)
    assert_terms(spinor_product((g, b), inv), {(): 1.0}, tol=1e-9)


# -- the oracle's own laws on general multivectors -------------------------------------------

coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def mv_triple(draw):
    dim = draw(st.integers(1, 6))

    def one():
        blades = draw(st.lists(
            st.lists(st.integers(0, dim - 1), unique=True).map(lambda b: tuple(sorted(b))),
            max_size=4, unique=True,
        ))
        return {b: draw(coeff) for b in blades}

    return one(), one(), one()


@given(mv_triple())
def test_associativity(triple):
    a, b, c = triple
    mul = mv_product_brute
    assert_terms(mul(mul(a, b), c), mul(a, mul(b, c)), tol=1e-9)


@given(mv_triple())
def test_reverse_antiautomorphism(triple):
    a, b, _ = triple
    mul = mv_product_brute
    assert_terms(
        reverse_brute(mul(a, b)), mul(reverse_brute(b), reverse_brute(a)), tol=1e-9
    )


# -- random vectors through the dense product --------------------------------------------------

@st.composite
def vectors(draw, count: int = 2):
    """``count`` random phasors on one layout."""
    layout = BasisLayout(n=draw(st.integers(0, 4)))

    def vec():
        return GeometricPhasor(
            np.array([draw(st.floats(-3, 3, allow_nan=False))
                      for _ in range(layout.dimension)]),
            layout, 50.0,
        )

    return tuple(vec() for _ in range(count))


@given(vectors(3))
def test_distributivity(triple):
    u, i, j = triple
    m, mi, mj = geometric_power(u, i + j), geometric_power(u, i), geometric_power(u, j)
    assert m.scalar == pytest.approx(mi.scalar + mj.scalar, abs=1e-9)
    np.testing.assert_allclose(
        bivector_block(m), bivector_block(mi) + bivector_block(mj), rtol=0, atol=1e-9
    )


@given(vectors())
def test_product_matches_bruteforce(pair):
    u, i = pair
    want = mv_product_brute(index_terms(u), index_terms(i))
    assert_terms(power_terms(geometric_power(u, i)), want)


@given(vectors())
def test_reverse_matches_bruteforce(pair):
    u, i = pair
    want = reverse_brute(mv_product_brute(index_terms(u), index_terms(i)))
    assert_terms(power_terms(geometric_power(i, u)), want)


@given(vectors())
def test_vector_norm_multiplicative(pair):
    u, i = pair
    assert apparent(geometric_power(u, i)) == pytest.approx(u.norm() * i.norm(), abs=1e-9)


@given(vectors())
def test_vector_product_splits_into_inner_plus_outer(pair):
    """u i = u.i + u^i: the plain sums sum_k u_k i_k and u_a i_b - u_b i_a."""
    u, i = pair
    a, b = u.coeffs.tolist(), i.coeffs.tolist()
    inner = {(): sum(x * y for x, y in zip(a, b))}
    outer = {
        (p, q): a[p] * b[q] - a[q] * b[p]
        for p in range(len(a)) for q in range(p + 1, len(a))
    }
    assert_terms(power_terms(geometric_power(u, i)), {**inner, **outer}, tol=1e-9)
