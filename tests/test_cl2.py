import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bladesim import (
    DenseMultivector,
    DimensionMismatchError,
    E1,
    E2,
    E12,
    ONE,
    Multivector2,
    blade_mul,
    gp,
    grade,
    idempotent_p,
    inner,
    reverse,
    wedge,
)
from oracles import BLADE_MATS, mv2_matrix

coeffs = st.lists(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=4, max_size=4
)


def mv(*c):
    return Multivector2(np.array(c, dtype=float))


def test_blade_mul_exhaustive_against_matrices():
    for a, b in itertools.product(range(4), repeat=2):
        sign, code = blade_mul(a, b)
        assert np.array_equal(BLADE_MATS[a] @ BLADE_MATS[b], sign * BLADE_MATS[code])


def test_blade_mul_known_products():
    assert blade_mul(1, 1) == (1, 0)    # e1*e1 = 1
    assert blade_mul(3, 3) == (-1, 0)   # e12*e12 = -1
    assert blade_mul(2, 1) == (-1, 3)   # e2*e1 = -e12
    assert blade_mul(0, 2) == (1, 2)    # 1*e2 = e2
    with pytest.raises(ValueError):
        blade_mul(4, 0)


def test_signed_blades_form_a_group():
    group = {(s, b) for s in (1, -1) for b in range(4)}
    for (sa, a), (sb, b) in itertools.product(group, repeat=2):
        sign, code = blade_mul(a, b)
        assert (sa * sb * sign, code) in group
    # identity and inverses
    for s, b in group:
        assert (blade_mul(0, b)) == (1, b)
        sign, code = blade_mul(b, b)
        assert code == 0 and sign in (1, -1)


def test_gp_matches_matrix_oracle_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = Multivector2(rng.uniform(-2, 2, 4))
        y = Multivector2(rng.uniform(-2, 2, 4))
        assert np.allclose(mv2_matrix(gp(x, y)), mv2_matrix(x) @ mv2_matrix(y), atol=1e-12)


def test_gp_structural_identities_are_exact():
    p = idempotent_p()
    assert gp(p, p) == p
    assert gp(E12, E12) == mv(-1, 0, 0, 0)
    assert gp(E1, p) == p  # the +1 eigenrelation of the projector
    assert gp(ONE, E2) == E2


@given(coeffs, coeffs, coeffs)
def test_gp_associative(a, b, c):
    x, y, z = mv(*a), mv(*b), mv(*c)
    lhs = gp(gp(x, y), z)
    rhs = gp(x, gp(y, z))
    assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_grade_projection():
    x = mv(1, 1, 0, 1)
    assert grade(x, 1) == mv(0, 1, 0, 0)
    assert grade(E12, 2) == E12
    with pytest.raises(ValueError):
        grade(x, 3)


@given(coeffs)
def test_grade_decomposition_complete_and_idempotent(c):
    x = mv(*c)
    total = grade(x, 0) + grade(x, 1) + grade(x, 2)
    assert np.array_equal(total.c, x.c)
    for k in range(3):
        assert grade(grade(x, k), k) == grade(x, k)


def test_reverse_fixed_points_and_flip():
    assert reverse(E1) == E1
    assert reverse(E2) == E2
    assert reverse(E12) == mv(0, 0, 0, -1)
    assert reverse(reverse(mv(1, 2, 3, 4))) == mv(1, 2, 3, 4)


def test_reverse_matches_matrix_transpose():
    # the 2x2 images are real, so reversion should transpose them
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = Multivector2(rng.uniform(-2, 2, 4))
        assert np.allclose(mv2_matrix(reverse(x)), mv2_matrix(x).T, atol=1e-12)


@given(coeffs, coeffs)
def test_reverse_antiautomorphism(a, b):
    x, y = mv(*a), mv(*b)
    lhs = reverse(gp(x, y))
    rhs = gp(reverse(y), reverse(x))
    assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_wedge_and_inner_on_blades():
    assert wedge(E1, E2) == E12
    assert inner(E1, E1) == ONE
    assert wedge(E1, E1) == Multivector2.zero()
    assert wedge(E1, E12) == Multivector2.zero()  # grade 3 does not exist
    assert inner(E12, E12) == mv(-1, 0, 0, 0)


def test_wedge_inner_bilinear_over_grades():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = Multivector2(rng.uniform(-2, 2, 4))
        y = Multivector2(rng.uniform(-2, 2, 4))
        w = Multivector2.zero()
        v = Multivector2.zero()
        for r in range(3):
            for s in range(3):
                part = gp(grade(x, r), grade(y, s))
                if r + s <= 2:
                    w = w + grade(part, r + s)
                v = v + grade(part, abs(r - s))
        assert np.allclose(wedge(x, y).c, w.c, atol=1e-12)
        assert np.allclose(inner(x, y).c, v.c, atol=1e-12)


def test_grade_wedge_inner_refuse_elements_of_more_qubits():
    two = DenseMultivector(2, np.arange(16.0))
    with pytest.raises(DimensionMismatchError):
        grade(two, 0)
    for f in (wedge, inner):
        for x, y in ((two, E1), (E1, two), (Multivector2.zero(), two)):
            with pytest.raises(DimensionMismatchError):
                f(x, y)


def test_idempotent_value():
    assert idempotent_p() == mv(0.5, 0.5, 0, 0)


def test_operator_sugar():
    x = mv(1, 2, 0, 0)
    assert x * E1 == gp(x, E1)
    assert 2 * x == mv(2, 4, 0, 0)
    assert -x == mv(-1, -2, 0, 0)
    assert x - x == Multivector2.zero()
