import numpy as np
import pytest

from bladesim import (
    CapacityError,
    DenseMultivector,
    DimensionMismatchError,
    dense,
    dense_gp,
    local_blade,
    reverse_dense,
    reverse_string,
    string_mul,
    tensor,
    vacuum,
)
from oracles import dense_matrix, random_blade_string, random_dense, reference_dense_gp, reference_gp


def test_dense_gp_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(30):
            a = random_dense(n, rng)
            b = random_dense(n, rng)
            lhs = dense_matrix(dense_gp(a, b))
            rhs = dense_matrix(a) @ dense_matrix(b)
            assert np.allclose(lhs, rhs, atol=1e-10)


def _with_nonzeros(n: int, k: int, rng) -> DenseMultivector:
    c = np.zeros(4**n)
    c[rng.choice(4**n, k, replace=False)] = rng.uniform(0.5, 1.0, k) * rng.choice((-1.0, 1.0), k)
    return DenseMultivector(n, c)


def test_dense_gp_equals_two_branch_reference_exactly():
    # the one gather loop against the mirrored scatter branches it replaced:
    # either operand sparser, both orders, and equal nonzero counts (the tie goes left)
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4, 5):
        dim = 4**n
        for density_a, density_b in ((0.02, 1.0), (0.1, 0.5), (0.5, 0.5), (1.0, 1.0), (0.3, 0.05)):
            for _ in range(6 if n < 5 else 1):
                a, b = random_dense(n, rng, density_a), random_dense(n, rng, density_b)
                for x, y in ((a, b), (b, a)):
                    assert np.array_equal(dense_gp(x, y).c, reference_gp(x, y)), (n, density_a, density_b)
        for k in (1, 3, dim // 2):
            a, b = _with_nonzeros(n, k, rng), _with_nonzeros(n, k, rng)
            for x, y in ((a, b), (b, a)):
                assert np.array_equal(dense_gp(x, y).c, reference_gp(x, y)), (n, k)


def _with_signed_zeros(n: int, density: float, rng) -> DenseMultivector:
    """Random coefficients, the rest split between exact 0.0 and -0.0."""
    c = rng.uniform(-1.0, 1.0, size=4**n)
    zero = rng.random(4**n) >= density
    c[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return DenseMultivector(n, c)


def test_dense_gp_equals_per_term_parity_reference_bytewise():
    # the cached sign tables against each term's parity recomputed, signed
    # zeros included; either operand the sparser, and equal counts (the tie goes left)
    rng = np.random.default_rng(36)
    for n in (1, 2, 3, 4, 5):
        for density_a, density_b in ((0.02, 1.0), (0.1, 0.6), (0.5, 0.5), (1.0, 1.0), (0.7, 0.05)):
            for _ in range(4 if n < 5 else 1):
                a, b = _with_signed_zeros(n, density_a, rng), _with_signed_zeros(n, density_b, rng)
                for x, y in ((a, b), (b, a), (a, a)):
                    assert dense_gp(x, y).c.tobytes() == reference_dense_gp(x, y).tobytes(), (n, density_a, density_b)


def test_parity_sign_tables_are_read_only_parities():
    for bits in range(1, 13):
        idx = dense._index(bits)
        assert not idx.flags.writeable and idx.dtype == np.int64
        assert np.array_equal(idx, np.arange(2**bits))
        for mask in {0, 1, 2**bits - 1, 0b1010101010 & (2**bits - 1), 1 << (bits - 1)}:
            signs = dense._parity_signs(bits, mask)
            assert not signs.flags.writeable and signs.dtype == np.float64
            want = (-1.0) ** np.bitwise_count(np.arange(2**bits) & mask)
            assert signs.tobytes() == want.tobytes(), (bits, mask)
            assert dense._parity_signs(bits, mask) is signs
    with pytest.raises(ValueError):
        dense._parity_signs(3, 1)[0] = 2.0


def test_dense_gp_reproduces_string_mul_exactly():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(60):
            a = random_blade_string(n, rng)
            b = random_blade_string(n, rng)
            got = dense_gp(DenseMultivector.from_blade_string(a), DenseMultivector.from_blade_string(b))
            assert got == DenseMultivector.from_blade_string(string_mul(a, b))


def test_dense_gp_identity_and_vacuum():
    rng = np.random.default_rng(4)
    one = DenseMultivector.scalar(2, 1.0)
    x = random_dense(2, rng)
    assert dense_gp(x, one) == x
    assert dense_gp(one, x) == x
    p2 = vacuum(2)
    assert dense_gp(p2, p2) == p2


def test_dense_gp_associative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b, c = (random_dense(2, rng) for _ in range(3))
        lhs = dense_gp(dense_gp(a, b), c)
        rhs = dense_gp(a, dense_gp(b, c))
        assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_tensor_of_idempotents():
    p = vacuum(1)
    p2 = tensor(p, p)
    assert p2 == vacuum(2)
    expected = np.zeros(16)
    expected[[0, 1, 4, 5]] = 0.25  # 1, e1 on qubit 0, e1 on qubit 1, both
    assert np.array_equal(p2.c, expected)


def test_tensor_embedding_and_associativity():
    rng = np.random.default_rng(8)
    x = random_dense(1, rng)
    emb = tensor(x, DenseMultivector.scalar(1, 1.0))
    assert np.array_equal(emb.c[:4], x.c)
    assert emb.n == 2
    a, b, c = random_dense(1, rng), random_dense(1, rng), random_dense(2, rng)
    lhs, rhs = tensor(tensor(a, b), c), tensor(a, tensor(b, c))
    assert np.allclose(lhs.c, rhs.c, atol=1e-14)


def test_tensor_multiplicative_coefficients():
    rng = np.random.default_rng(14)
    a, b = random_dense(1, rng), random_dense(2, rng)
    t = tensor(a, b)
    for ia in range(4):
        for ib in range(16):
            assert t.c[ia | (ib << 2)] == a.c[ia] * b.c[ib]


def test_tensor_respects_product_structure():
    # (a1 (x) b1) * (a2 (x) b2) = (a1 a2) (x) (b1 b2)
    rng = np.random.default_rng(15)
    a1, a2 = random_dense(1, rng), random_dense(1, rng)
    b1, b2 = random_dense(1, rng), random_dense(1, rng)
    lhs = dense_gp(tensor(a1, b1), tensor(a2, b2))
    rhs = tensor(dense_gp(a1, a2), dense_gp(b1, b2))
    assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_reverse_dense_matches_strings_and_dagger():
    rng = np.random.default_rng(10)
    for _ in range(50):
        b = random_blade_string(3, rng)
        lhs = reverse_dense(DenseMultivector.from_blade_string(b))
        assert lhs == DenseMultivector.from_blade_string(reverse_string(b))
    for _ in range(20):
        a = random_dense(2, rng)
        assert np.allclose(dense_matrix(reverse_dense(a)), dense_matrix(a).conj().T, atol=1e-12)


def test_reverse_dense_antiautomorphism():
    rng = np.random.default_rng(12)
    a, b = random_dense(2, rng), random_dense(2, rng)
    lhs = reverse_dense(dense_gp(a, b))
    rhs = dense_gp(reverse_dense(b), reverse_dense(a))
    assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_local_blade_layout():
    lb = local_blade(3, 1, 3, 2.0)
    assert lb.c[3 << 2] == 2.0
    assert np.count_nonzero(lb.c) == 1
    with pytest.raises(ValueError):
        local_blade(2, 2, 1)
    with pytest.raises(ValueError):
        local_blade(2, 0, 4)


def test_capacity_limits():
    assert dense.ORACLE_CAP == 5
    assert vacuum(5).n == 5
    assert dense_gp(DenseMultivector.zero(5), DenseMultivector.zero(5)).n == 5
    with pytest.raises(CapacityError):
        vacuum(6)
    with pytest.raises(CapacityError):
        dense_gp(DenseMultivector.zero(6), DenseMultivector.zero(6))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dense_gp(DenseMultivector.zero(1), DenseMultivector.zero(2))


def test_single_qubit_algebra_is_the_n1_dense_case():
    from bladesim import E1, E2, Multivector2, gp, reverse

    rng = np.random.default_rng(3)
    c = rng.uniform(-2, 2, 4)
    assert Multivector2(c) == DenseMultivector(1, c)
    assert hash(Multivector2(c)) == hash(DenseMultivector(1, c))
    assert tensor(E1, E2) == dense_gp(local_blade(2, 0, 1), local_blade(2, 1, 2))
    assert Multivector2.basis_blade(1, 2) == E2  # inherited constructors still work
    for _ in range(50):
        x, y = Multivector2(rng.uniform(-2, 2, 4)), Multivector2(rng.uniform(-2, 2, 4))
        dx, dy = DenseMultivector(1, x.c), DenseMultivector(1, y.c)
        assert gp(x, y) == dense_gp(dx, dy)
        assert reverse(x) == reverse_dense(dx)
