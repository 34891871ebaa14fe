import itertools

import numpy as np
import pytest

from bladesim import (
    DimensionMismatchError,
    GateOp,
    PauliString,
    Tableau,
    TableauInvariantError,
    random_clifford_circuit,
)
from oracles import gate_unitary, pauli_matrix_oracle


def test_fresh_tableau():
    t = Tableau(1)
    assert t.stabilizer_lines() == ["+Z"]
    assert [r.to_text() for r in t.destabilizers] == ["X"]
    t3 = Tableau(3)
    assert t3.stabilizer_lines() == ["+ZII", "+IZI", "+IIZ"]
    with pytest.raises(ValueError):
        Tableau(0)


def test_single_qubit_conjugation_against_oracle():
    kinds = ("h", "s", "sdg", "x", "y", "z")
    rows = [PauliString(2, x, z, k) for x in range(4) for z in range(4) for k in (0, 2)]
    for kind in kinds:
        for q in (0, 1):
            u = gate_unitary(GateOp(kind, (q,)), 2)
            for row in rows:
                t = Tableau(2)
                t.rows = [row] * 4  # structure is irrelevant for conjugation rules
                t.apply_gate(GateOp(kind, (q,)))
                expected = u @ pauli_matrix_oracle(row) @ u.conj().T
                assert np.allclose(pauli_matrix_oracle(t.rows[0]), expected, atol=1e-12), (kind, q, row)
                assert t.rows[0].letter(1 - q) == row.letter(1 - q)


def test_two_qubit_conjugation_against_oracle():
    kinds = ("cnot", "cz", "swap")
    rows = [PauliString(2, x, z, k) for x in range(4) for z in range(4) for k in (0, 2)]
    for kind in kinds:
        for qubits in ((0, 1), (1, 0)):
            u = gate_unitary(GateOp(kind, qubits), 2)
            for row in rows:
                t = Tableau(2)
                t.rows = [row] * 4
                t.apply_gate(GateOp(kind, qubits))
                expected = u @ pauli_matrix_oracle(row) @ u.conj().T
                assert np.allclose(pauli_matrix_oracle(t.rows[0]), expected, atol=1e-12)


def test_hadamard_and_bell():
    assert Tableau(1).h(0).stabilizer_lines() == ["+X"]
    bell = Tableau(2).h(0).cnot(0, 1)
    assert bell.stabilizer_lines() == ["+XX", "+ZZ"]
    assert str(bell) == "+XX\n+ZZ"
    bell.check_invariants()


def test_x_then_measure_is_one():
    t = Tableau(1).x(0)
    outcome, deterministic = t.measure_z(0, np.random.default_rng(0))
    assert (outcome, deterministic) == (1, True)


def test_fresh_measure_is_zero():
    outcome, deterministic = Tableau(1).measure_z(0, np.random.default_rng(0))
    assert (outcome, deterministic) == (0, True)


def test_random_outcome_statistics_and_collapse():
    ones = 0
    shots = 2000
    for seed in range(shots):
        t = Tableau(1).h(0)
        rng = np.random.default_rng(seed)
        outcome, deterministic = t.measure_z(0, rng)
        assert not deterministic
        ones += outcome
        again, det2 = t.measure_z(0, rng)
        assert det2 and again == outcome  # collapsed
    assert abs(ones / shots - 0.5) < 0.05


def test_bell_correlations():
    for seed in range(200):
        t = Tableau(2).h(0).cnot(0, 1)
        rng = np.random.default_rng(seed)
        a, det_a = t.measure_z(0, rng)
        b, det_b = t.measure_z(1, rng)
        assert not det_a and det_b
        assert a == b


def test_measurement_updates_keep_invariants():
    circuit = random_clifford_circuit(4, 60, seed=123, measure_prob=0.2)
    t = Tableau(4)
    rng = np.random.default_rng(7)
    for op in circuit.ops:
        if op.is_measure:
            t.measure_z(op.qubits[0], rng)
        else:
            t.apply_gate(op)
        t.check_invariants()


def test_rows_equal_checked_pauli_strings():
    # gates, row products and measurements build rows without the
    # constructor's range checks; each must equal, and hash like, the
    # checked value with the same fields
    kinds = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")
    for seed in range(20):
        circuit = random_clifford_circuit(5, 60, seed=seed, gate_kinds=kinds, measure_prob=0.2)
        concrete, symbolic = Tableau(5), Tableau(5)
        rng = np.random.default_rng(seed)
        draws = 0
        for op in circuit.ops:
            if op.is_measure:
                concrete.measure_z(op.qubits[0], rng)
                draws += not symbolic.measure(op.qubits[0], lambda: (0, 1 << draws))[2]
            else:
                concrete.apply_gate(op)
                symbolic.apply_gate(op)
        for t in (concrete, symbolic.assign(seed * 0x9E3779B9)):
            assert t.vars == [0] * 10
            for r in t.rows:
                checked = PauliString(r.n, r.x, r.z, r.k)
                assert type(r) is PauliString and r == checked and hash(r) == hash(checked)
            t.check_invariants()


def test_determinism_per_seed():
    circuit = random_clifford_circuit(3, 40, seed=5, measure_prob=0.3)

    def outcomes(seed):
        t = Tableau(3)
        rng = np.random.default_rng(seed)
        rec = []
        for op in circuit.ops:
            if op.is_measure:
                rec.append(t.measure_z(op.qubits[0], rng)[0])
            else:
                t.apply_gate(op)
        return rec

    assert outcomes(42) == outcomes(42)


def test_expectation_values():
    t = Tableau(1)
    assert t.expectation(PauliString.from_text("Z")) == 1
    assert t.expectation(PauliString.from_text("-Z")) == -1
    assert t.expectation(PauliString.from_text("X")) == 0
    bell = Tableau(2).h(0).cnot(0, 1)
    assert bell.expectation(PauliString.from_text("XX")) == 1
    assert bell.expectation(PauliString.from_text("ZZ")) == 1
    assert bell.expectation(PauliString.from_text("-ZZ")) == -1
    assert bell.expectation(PauliString.from_text("XI")) == 0
    assert bell.expectation(PauliString.from_text("YY")) == -1
    with pytest.raises(ValueError):
        bell.expectation(PauliString.from_text("iXX"))
    with pytest.raises(DimensionMismatchError):
        bell.expectation(PauliString.from_text("X"))


def test_expectation_matches_statevector_oracle():
    # random circuit, then expectations of random strings against <psi|P|psi>
    from bladesim import statevector as sv

    circuit = random_clifford_circuit(3, 30, seed=17)
    t = Tableau(3)
    psi = sv.zero_state(3)
    for op in circuit.ops:
        t.apply_gate(op)
        psi = sv.apply_gate(psi, op, 3)
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.choice((0, 2))))
        got = t.expectation(p)
        want = np.vdot(psi, pauli_matrix_oracle(p) @ psi).real
        assert got == pytest.approx(want, abs=1e-8)


def test_copy_is_independent():
    t = Tableau(2).h(0)
    c = t.copy()
    c.cnot(0, 1)
    assert t.stabilizer_lines() != c.stabilizer_lines()


def test_invariant_checker_detects_corruption():
    t = Tableau(2)
    t.rows[2] = t.rows[3]  # duplicate stabilizer: rank drops, commutation breaks
    with pytest.raises(TableauInvariantError):
        t.check_invariants()
    t2 = Tableau(2)
    t2.rows[2] = t2.rows[2].with_phase(1)  # non-Hermitian row
    with pytest.raises(TableauInvariantError):
        t2.check_invariants()


def test_gate_validation():
    t = Tableau(2)
    with pytest.raises(ValueError):
        t.h(2)
    with pytest.raises(ValueError):
        t.cnot(1, 1)
    with pytest.raises(ValueError):
        t.apply_gate(GateOp("measure", (0,), 0))


def test_gate_time_scales_gently():
    from bladesim.bench import time_tableau_gate

    # both sizes back to back in every rep, so a slow spell of a shared host
    # lands on both sides of the ratio
    pairs = [[time_tableau_gate(n, reps=1, seed=1)[0] for n in (512, 1024)] for _ in range(30)]
    t512, t1024 = np.median(pairs, axis=0)
    assert t1024 / t512 <= 5.0, (t512, t1024)
