"""The dense-clifford engine on ideal coordinates against the 4**n carrier and the matrices.

A state is carried as its 2**n complex coordinates along B_b and B_b * J,
and a blade word acts on them as a signed permutation.  Every word must act
exactly as `rho_matrix` of its 4**n element, every gate's words as its
operator pair, and a walk on coordinates must follow the walk on 4**n
elements that the backend ran before.  `sv.apply_pauli` replaces the Pauli
matrix in validate's stabilizer-row check and must equal it exactly.
"""

import itertools

import numpy as np

import bladesim.backends
import bladesim.gates
from bladesim import GateOp, PauliString, parse, random_clifford_circuit, rho_matrix, to_statevector, validate
from bladesim import statevector as sv
from bladesim.backends import BRANCH_EPS, _dense_backend, _element_backend
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from bladesim.gates import gate_to_operator_pair, gate_words, projector_words, word_element
from bladesim.ideal import act, word_action

ALL_KINDS = ONE_QUBIT_GATES + TWO_QUBIT_GATES
BELL = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")


def action_matrix(action, n: int) -> np.ndarray:
    """The matrix of a word action, one column per basis coordinate vector."""
    return np.stack([act(action, column) for column in np.eye(2**n, dtype=complex)], axis=1)


def test_every_blade_word_acts_as_its_rho_matrix():
    # exhaustive at n <= 3: out[b] = (-1)^|e1 & b| v[b ^ e2] is left
    # multiplication by the word's element; as a b word it gains the factor i
    for n in (1, 2, 3):
        for e1, e2 in itertools.product(range(2**n), repeat=2):
            rho = rho_matrix(word_element(n, [(1.0, e1, e2)]))
            assert np.array_equal(action_matrix(word_action(n, [(1.0, e1, e2)]), n), rho), (n, e1, e2)
            assert np.array_equal(action_matrix(word_action(n, (), [(1.0, e1, e2)]), n), 1j * rho), (n, e1, e2)


def test_gate_words_act_as_their_operator_pairs():
    for n in (1, 2, 3):
        for kind in ALL_KINDS:
            arity = 2 if kind in TWO_QUBIT_GATES else 1
            for qubits in itertools.permutations(range(n), arity):
                op = GateOp(kind, qubits)
                got = action_matrix(word_action(n, *gate_words(op, n)), n)
                assert np.max(np.abs(got - gate_to_operator_pair(op, n).matrix())) <= 1e-15, (n, op)
        for q in range(n):
            got = action_matrix(word_action(n, projector_words(n, q, 1)), n)
            assert np.array_equal(got, rho_matrix(word_element(n, projector_words(n, q, 1)))), (n, q)


def test_coordinate_walk_matches_the_element_walk():
    # lockstep on the random corpus: after every op the coordinates equal the
    # 4**n element's amplitudes, and every p1 agrees; outcomes alternate
    # between the branches that exist
    for seed in range(60):
        n = 1 + seed % 5
        circuit = random_clifford_circuit(n, 30, seed=seed, gate_kinds=ALL_KINDS, measure_prob=0.25)
        v, step, project = _dense_backend(circuit, "dense-clifford")
        s, element_step, element_project = _element_backend(circuit)
        for i, op in enumerate(circuit.ops):
            if op.is_measure:
                q = op.qubits[0]
                (p1, collapse), (p_element, collapse_element) = project(v, q), element_project(s, q)
                assert abs(p1 - p_element) <= 1e-12, (seed, i, p1, p_element)
                outcome = i % 2 if BRANCH_EPS < p1 < 1.0 - BRANCH_EPS else int(p1 > 0.5)
                v, s = collapse(outcome), collapse_element(outcome)
            else:
                v, s = step(v, op), element_step(s, op)
            assert np.max(np.abs(v - to_statevector(s))) <= 1e-12, (seed, i, op)


def test_direct_pauli_action_equals_the_matrix():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        if n <= 2:
            words = [PauliString(n, x, z, k) for x, z, k in itertools.product(range(2**n), range(2**n), range(4))]
        else:
            words = [PauliString(n, *map(int, rng.integers(0, 2**n, size=2)), int(rng.integers(4))) for _ in range(60)]
        for p in words:
            assert np.array_equal(sv.apply_pauli(v, p), sv.pauli_matrix(p) @ v), p


def test_validate_passes_at_twelve_qubits(monkeypatch):
    # no 4**n element is built past the dense-oracle cap
    def refuse(*args):
        raise AssertionError("a 4**n operator pair was built")

    monkeypatch.setattr(bladesim.backends, "gate_to_operator_pair", refuse)
    for seed in range(4):
        circuit = random_clifford_circuit(12, 60, seed=seed, gate_kinds=ALL_KINDS, measure_prob=0.1)
        assert circuit.measure_count
        report = validate(circuit, shots=400, seed=seed)
        assert report["n"] == 12 and report["passed"], (seed, report)


def test_flipped_projector_sign_fails_validate_at_the_measurement(monkeypatch):
    # (1 + e1_q)/2 in place of (1 - e1_q)/2 collapses the coordinates onto
    # the other outcome, wherever the projector's words are read
    def flipped(n, q, outcome):
        half, (coef, e1, e2) = projector_words(n, q, outcome)
        return half, (-coef, e1, e2)

    for module in (bladesim.backends, bladesim.gates):
        monkeypatch.setattr(module, "projector_words", flipped)
    report = validate(BELL, shots=500, seed=0)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["dense_clifford_matches_statevector"].startswith("op 2 (measure 0)"), report


def test_validate_checks_the_element_against_the_coordinates(monkeypatch):
    # up to the dense-oracle cap the 4**n element is a fourth exact check: a
    # wrong operator pair fails it at its op, though the coordinates are right
    original = bladesim.backends.gate_to_operator_pair

    def wrong_s(op, n):
        return original(GateOp("sdg", op.qubits) if op.kind == "s" else op, n)

    monkeypatch.setattr(bladesim.backends, "gate_to_operator_pair", wrong_s)
    report = validate(parse("qubits 1\nh 0\ns 0\nh 0\nmeasure 0\n"), shots=500, seed=0)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["dense_clifford_matches_statevector"].startswith("op 1 (s 0)"), report
