import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bladesim import (
    BladeString,
    DenseMultivector,
    DimensionMismatchError,
    PauliString,
    blade_to_pauli,
    commutes,
    dense_gp,
    pauli_mul,
    pauli_to_blade,
    reverse_string,
    string_mul,
)
from oracles import blade_string_matrix, pauli_matrix_oracle, random_blade_string


def bs(codes, sign=1):
    return BladeString.from_codes(codes, sign)


def test_string_mul_componentwise():
    # (e1 (x) 1) * (e2 (x) e2) = +(e12 (x) e2)
    assert string_mul(bs([1, 0]), bs([2, 2])) == bs([3, 2])
    # (e2 (x) 1) * (e1 (x) 1) = -(e12 (x) 1)
    assert string_mul(bs([2, 0]), bs([1, 0])) == bs([3, 0], -1)
    with pytest.raises(DimensionMismatchError):
        string_mul(bs([1]), bs([1, 0]))


def test_string_mul_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_blade_string(3, rng)
        b = random_blade_string(3, rng)
        prod = string_mul(a, b)
        dense_prod = dense_gp(
            DenseMultivector.from_blade_string(a), DenseMultivector.from_blade_string(b)
        )
        assert DenseMultivector.from_blade_string(prod) == dense_prod


def test_codes_round_trip():
    codes = (0, 1, 2, 3, 2)
    assert bs(codes, -1).codes == codes
    assert bs(codes, -1).sign == -1


def test_reverse_string_sign_flips():
    assert reverse_string(bs([3, 3])) == bs([3, 3])        # two flips
    assert reverse_string(bs([3, 1])) == bs([3, 1], -1)    # one flip
    assert reverse_string(bs([1, 2])) == bs([1, 2])        # none


@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_unchecked_products_equal_the_checked_constructor(n):
    # string_mul and reverse_string skip __post_init__: their fields must be
    # the ones the checked constructor takes, around the 64-bit word edge
    rng = np.random.default_rng([5, n])
    for _ in range(200):
        a, b = random_blade_string(n, rng), random_blade_string(n, rng)
        product = BladeString(n, a.e1 ^ b.e1, a.e2 ^ b.e2, a.sign * b.sign * (-1) ** (a.e2 & b.e1).bit_count())
        reversion = BladeString(n, a.e1, a.e2, a.sign * (-1) ** (a.e1 & a.e2).bit_count())
        for got, want in ((string_mul(a, b), product), (reverse_string(a), reversion)):
            assert (got.n, got.e1, got.e2, got.sign) == (want.n, want.e1, want.e2, want.sign)
            assert got == want and hash(got) == hash(want) and type(got) is BladeString
        with pytest.raises(DimensionMismatchError):
            string_mul(a, random_blade_string(n + 1, rng))


def test_pauli_mul_exhaustive_one_qubit():
    for ax, az, ak, bx, bz, bk in itertools.product((0, 1), (0, 1), range(4), (0, 1), (0, 1), range(4)):
        a = PauliString(1, ax, az, ak)
        b = PauliString(1, bx, bz, bk)
        prod = pauli_mul(a, b)
        assert np.allclose(
            pauli_matrix_oracle(prod), pauli_matrix_oracle(a) @ pauli_matrix_oracle(b)
        )


def test_pauli_mul_exhaustive_two_qubits():
    strings = [PauliString(2, x, z, 0) for x in range(4) for z in range(4)]
    for a, b in itertools.product(strings, repeat=2):
        prod = pauli_mul(a, b)
        assert np.allclose(
            pauli_matrix_oracle(prod), pauli_matrix_oracle(a) @ pauli_matrix_oracle(b)
        )


def test_pauli_mul_known_products():
    x, z = PauliString.from_text("X"), PauliString.from_text("Z")
    assert pauli_mul(x, z) == PauliString(1, 1, 1, 3)  # XZ = -iY
    xx, zz = PauliString.from_text("XX"), PauliString.from_text("ZZ")
    assert pauli_mul(xx, zz) == PauliString(2, 3, 3, 2)  # -(YY)
    ident = PauliString.identity(3)
    p = PauliString.from_text("iZYX")
    assert pauli_mul(ident, p) == p
    assert pauli_mul(p, ident) == p


def test_commutation_shows_up_as_even_phase_difference():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        a = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), 0)
        b = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), 0)
        ab, ba = pauli_mul(a, b), pauli_mul(b, a)
        diff = (ab.k - ba.k) % 4
        assert diff in (0, 2)
        assert (diff == 0) == commutes(a, b)


@given(st.integers(1, 80), st.data())
def test_pauli_mul_phase_closed_mod4(n, data):
    a = PauliString(n, data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, 3)))
    b = PauliString(n, data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, 3)))
    assert 0 <= pauli_mul(a, b).k <= 3


def test_pauli_to_blade_letter_map():
    y = PauliString.from_text("Y")
    blades, r = pauli_to_blade(y)
    assert blades == bs([3]) and r == 3  # Y = -i * e12
    z = PauliString.from_text("Z")
    assert pauli_to_blade(z) == (bs([1]), 0)
    iy = PauliString.from_text("iY")
    assert pauli_to_blade(iy) == (bs([3]), 0)


def test_blade_to_pauli_letter_map():
    p = blade_to_pauli(bs([3, 1]))  # e12 (x) e1 = i*(Y (x) Z)
    assert (p.x, p.z, p.k) == (0b01, 0b11, 1)
    assert p.to_text() == "iYZ"
    assert blade_to_pauli(bs([0, 0, 0])) == PauliString.identity(3)


def test_blade_pauli_round_trip_on_strings():
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        b = random_blade_string(n, rng)
        p = blade_to_pauli(b)
        back, r = pauli_to_blade(p)
        assert (back.e1, back.e2) == (b.e1, b.e2)
        assert back.sign == 1
        assert (r, b.sign) in (((0, 1)), ((2, -1)))


@given(
    st.integers(1, 100),
    st.data(),
)
def test_pauli_blade_round_trip_identity(n, data):
    p = PauliString(
        n,
        data.draw(st.integers(0, 2**n - 1)),
        data.draw(st.integers(0, 2**n - 1)),
        data.draw(st.integers(0, 3)),
    )
    blades, r = pauli_to_blade(p)
    back = blade_to_pauli(blades).with_phase(blade_to_pauli(blades).k + r)
    assert back == p


def test_conversion_is_multiplicative_including_phases():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 70))  # crosses the 64-bit word boundary
        a = random_blade_string(n, rng)
        b = random_blade_string(n, rng)
        lhs = blade_to_pauli(string_mul(a, b))
        rhs = pauli_mul(blade_to_pauli(a), blade_to_pauli(b))
        assert lhs == rhs


def test_blade_action_matches_pauli_matrix():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        b = random_blade_string(n, rng)
        p = blade_to_pauli(b)
        assert np.allclose(blade_string_matrix(b), pauli_matrix_oracle(p), atol=1e-12)


def test_text_round_trip_examples():
    for text in ("XYZ", "iX", "-ZZ", "-iXYZ", "I", "YIX"):
        assert PauliString.from_text(text).to_text() == text
    assert PauliString.from_text("+iX") == PauliString.from_text("iX")
    with pytest.raises(ValueError):
        PauliString.from_text("XQ")
    with pytest.raises(ValueError):
        PauliString.from_text("-i")


@given(st.integers(1, 60), st.data())
def test_text_round_trip_bit_exact(n, data):
    p = PauliString(
        n,
        data.draw(st.integers(0, 2**n - 1)),
        data.draw(st.integers(0, 2**n - 1)),
        data.draw(st.integers(0, 3)),
    )
    q = PauliString.from_text(p.to_text())
    assert (q.n, q.x, q.z, q.k) == (p.n, p.x, p.z, p.k)
    assert p.to_text().endswith("".join(p.letter(j) for j in range(n)))  # against the one-letter reader


def test_string_mul_time_scales_gently():
    from bladesim.bench import time_string_mul

    # both sizes back to back in every rep, so a slow spell of a shared host
    # lands on both sides of that rep's ratio; the median is taken over the
    # reps' ratios, not over each size's times
    pairs = np.array([[time_string_mul(n, reps=1, seed=2)[0] for n in (2**19, 2**20)] for _ in range(20)])
    ratio = np.median(pairs[:, 1] / pairs[:, 0])
    assert ratio <= 3.0, (ratio, pairs.tolist())


def test_mask_validation():
    with pytest.raises(ValueError):
        PauliString(1, 2, 0, 0)
    with pytest.raises(ValueError):
        PauliString(3, 0, 8, 0)
    with pytest.raises(ValueError):
        PauliString(3, -1, 0, 0)
    with pytest.raises(ValueError):
        PauliString(0, 0, 0, 0)
    with pytest.raises(ValueError):
        PauliString(1, 0, 0, 4)
    with pytest.raises(ValueError):
        BladeString(2, 1, 1, 0)
    with pytest.raises(DimensionMismatchError):
        pauli_mul(PauliString.identity(1), PauliString.identity(2))
