import numpy as np
import pytest

from bladesim import (
    CapacityError,
    DegenerateStateError,
    DenseMultivector,
    NotInIdealError,
    OperatorPair,
    apply,
    blade_to_pauli,
    conjugate_evolution_check,
    dense_gp,
    density_from_generator,
    local_blade,
    project_v,
    reverse_dense,
    rho_matrix,
    theta,
    to_statevector,
    vacuum,
)
from bladesim.ideal import _basis, right_mul_j
from oracles import (
    SX,
    SY,
    SZ,
    kron_basis_columns,
    pauli_matrix_oracle,
    random_blade_string,
    random_dense,
    reference_right_mul_j,
)


def test_vacuum_values():
    assert np.array_equal(vacuum(1).c, [0.5, 0.5, 0.0, 0.0])
    v2 = vacuum(2)
    assert np.count_nonzero(v2.c) == 4
    assert np.all(v2.c[v2.c != 0] == 0.25)
    for n in (1, 2, 3, 4):
        vn = vacuum(n)
        assert dense_gp(vn, vn) == vn
        assert np.count_nonzero(vn.c) == 2**n
    with pytest.raises(ValueError):
        vacuum(0)


def test_theta_prepares_basis_states():
    assert np.allclose(to_statevector(theta(DenseMultivector.scalar(1, 1.0))), [1, 0], atol=1e-12)
    assert np.allclose(to_statevector(theta(local_blade(1, 0, 2))), [0, 1], atol=1e-12)
    # |10> at n=2: e2 on qubit 0, which is the most significant position
    amps = to_statevector(theta(local_blade(2, 0, 2)))
    assert np.allclose(amps, [0, 0, 1, 0], atol=1e-12)


def test_basis_columns_equal_kron_reference():
    # B_b as theta of the e2 word of b and B_b J as a product, against the
    # hand-made per-qubit factors; this keeps theta's basis-state check above
    # from reading theta's own output back
    for n in (1, 2, 3, 4, 5):
        cols, dual = _basis(n)
        assert np.array_equal(cols, kron_basis_columns(n)), n
        assert np.array_equal(dual, cols.T * float(2**n))


def test_right_mul_j_equals_index_and_sign_rule():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 4, 5):
        # one nonzero term ties with e12's one, so the product loops over s
        one_term = DenseMultivector.basis_blade(n, int(rng.integers(4**n)), -0.5)
        for s in (one_term, *(random_dense(n, rng, density) for density in (0.05, 0.5, 1.0))):
            assert np.array_equal(right_mul_j(s).c, reference_right_mul_j(s.c)), n


def test_ideal_basis_and_complex_unit_refuse_above_the_oracle_cap():
    psi = DenseMultivector.zero(6)
    with pytest.raises(CapacityError, match="ideal basis"):
        to_statevector(psi)
    with pytest.raises(CapacityError, match="ideal basis"):
        project_v(psi)
    with pytest.raises(CapacityError):
        right_mul_j(psi)


def test_left_action_commutes_with_preparation():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(40):
            g, h = random_dense(n, rng), random_dense(n, rng)
            lhs = rho_matrix(g) @ to_statevector(theta(h))
            rhs = to_statevector(theta(dense_gp(g, h)))
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_preparing_after_composing_equals_acting_after_preparing():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3):
        for _ in range(30):
            g, h = random_dense(n, rng), random_dense(n, rng)
            via_product = theta(dense_gp(g, h))
            via_action = apply(OperatorPair.real(g), theta(h))
            assert np.allclose(via_product.c, via_action.c, atol=1e-12)


def test_right_unit_multiplies_amplitudes_by_i():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        s = theta(random_dense(n, rng))
        amps = to_statevector(s)
        doubled = s + right_mul_j(s)
        assert np.allclose(to_statevector(doubled), (1 + 1j) * amps, atol=1e-10)
        rotated = right_mul_j(s)
        assert np.allclose(to_statevector(rotated), 1j * amps, atol=1e-10)


def test_rho_matrix_pauli_identification():
    assert np.array_equal(rho_matrix(local_blade(1, 0, 1)), SZ.astype(complex))
    assert np.array_equal(rho_matrix(local_blade(1, 0, 2)), SX.astype(complex))
    assert np.array_equal(rho_matrix(local_blade(1, 0, 3)), (1j * SY))


def test_rho_matrix_is_homomorphism():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        for _ in range(25):
            g, h = random_dense(n, rng), random_dense(n, rng)
            assert np.allclose(
                rho_matrix(dense_gp(g, h)), rho_matrix(g) @ rho_matrix(h), atol=1e-10
            )


def test_rho_matrix_matches_pauli_matrices_on_blade_strings():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        for _ in range(25):
            b = random_blade_string(n, rng)
            p = blade_to_pauli(b)
            assert np.allclose(
                rho_matrix(DenseMultivector.from_blade_string(b)),
                pauli_matrix_oracle(p),
                atol=1e-10,
            )


def test_rho_of_reverse_is_adjoint():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3):
        for _ in range(20):
            a = random_dense(n, rng)
            assert np.allclose(
                rho_matrix(reverse_dense(a)), rho_matrix(a).conj().T, atol=1e-10
            )


def test_ideal_membership_check():
    # a bare e1 blade at n=2 is not a state
    outside = local_blade(2, 0, 1)
    with pytest.raises(NotInIdealError):
        to_statevector(outside)
    projected = project_v(outside)
    amps = to_statevector(projected)
    assert amps.shape == (4,)
    # projection is idempotent
    assert np.allclose(project_v(projected).c, projected.c, atol=1e-12)


def test_span_dimensions():
    for n in (1, 2):
        vecs = []
        vecs_j = []
        for idx in range(4**n):
            g = DenseMultivector.basis_blade(n, idx)
            s = theta(g)
            vecs.append(s.c)
            vecs_j.append(right_mul_j(s).c)
        rank = np.linalg.matrix_rank(np.array(vecs))
        rank_full = np.linalg.matrix_rank(np.array(vecs + vecs_j))
        assert rank == 2**n
        assert rank_full == 2 ** (n + 1)


def test_apply_basic_actions():
    one = theta(DenseMultivector.scalar(1, 1.0))
    flip = OperatorPair.real(local_blade(1, 0, 2))
    assert np.allclose(to_statevector(apply(flip, one)), [0, 1], atol=1e-12)
    ident = OperatorPair.identity(1)
    s = theta(random_dense(1, np.random.default_rng(0)))
    assert np.allclose(to_statevector(apply(ident, s)), to_statevector(s), atol=1e-12)


def test_apply_phase_gate_pair():
    # ((1+e1)/2, (1-e1)/2) acts as diag(1, i)
    a = DenseMultivector(1, np.array([0.5, 0.5, 0.0, 0.0]))
    b = DenseMultivector(1, np.array([0.5, -0.5, 0.0, 0.0]))
    sgate = OperatorPair(1, a, b)
    one_state = theta(local_blade(1, 0, 2))
    assert np.allclose(to_statevector(apply(sgate, one_state)), [0, 1j], atol=1e-12)
    assert np.allclose(sgate.matrix(), np.diag([1, 1j]), atol=1e-12)


def test_apply_commutes_with_complex_unit():
    rng = np.random.default_rng(47)
    for _ in range(20):
        g = random_dense(2, rng)
        s = theta(random_dense(2, rng))
        op = OperatorPair.real(g)
        lhs = apply(op, right_mul_j(s))
        rhs = right_mul_j(apply(op, s))
        assert np.allclose(lhs.c, rhs.c, atol=1e-12)


def test_unitary_blade_strings_preserve_norm():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        u = random_blade_string(n, rng)
        op = OperatorPair.real(DenseMultivector.from_blade_string(u))
        s = theta(random_dense(n, rng))
        before = np.linalg.norm(to_statevector(s))
        after = np.linalg.norm(to_statevector(apply(op, s)))
        assert after == pytest.approx(before, abs=1e-10)


def test_density_basis_cases():
    assert np.allclose(density_from_generator(DenseMultivector.scalar(1, 1.0)), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(density_from_generator(local_blade(1, 0, 2)), np.diag([0.0, 1.0]), atol=1e-12)


def test_density_properties_random():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3):
        for _ in range(20):
            a = random_dense(n, rng)
            if np.linalg.norm(to_statevector(theta(a))) < 1e-1:
                continue
            pi = density_from_generator(a)
            assert np.allclose(pi, pi.conj().T, atol=1e-10)
            assert np.allclose(pi @ pi, pi, atol=1e-9)
            assert np.trace(pi).real == pytest.approx(1.0, abs=1e-10)
            amps = to_statevector(theta(a))
            amps = amps / np.linalg.norm(amps)
            assert np.allclose(pi, np.outer(amps, amps.conj()), atol=1e-9)


def test_density_degenerate_generator():
    # (1 - e1) annihilates the vacuum
    bad = DenseMultivector(1, np.array([1.0, -1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateStateError):
        density_from_generator(bad)


def test_conjugate_evolution_check():
    ok, dev = conjugate_evolution_check(local_blade(1, 0, 2), DenseMultivector.scalar(1, 1.0))
    assert ok and dev < 1e-12
    ok, _ = conjugate_evolution_check(DenseMultivector.scalar(2, 1.0), random_dense(2, np.random.default_rng(1)))
    assert ok
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        for _ in range(20):
            ok, dev = conjugate_evolution_check(random_dense(n, rng), random_dense(n, rng))
            assert ok, dev
