"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion carries a wall-clock budget that is asserted too.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

import bladesim.statevector as sv
from bladesim import (
    DenseMultivector,
    ParseError,
    PauliString,
    Tableau,
    blade_mul,
    born_distribution,
    conjugate_evolution_check,
    dense_gp,
    density_from_generator,
    local_blade,
    parse,
    pauli_mul,
    random_clifford_circuit,
    rho_matrix,
    run,
    serialize,
    string_mul,
    theta,
    to_statevector,
)
from bladesim.bench import time_pauli_mul
from corpus import INVALID_FILES, VALID_FILES
from oracles import (
    BLADE_MATS,
    SX,
    SY,
    SZ,
    pauli_matrix_oracle,
    random_blade_string,
    random_dense,
)


@contextmanager
def criterion(num: int, title: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {title}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] {title}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded budget {budget_s}s"


def test_criterion_1_single_qubit_algebra():
    with criterion(1, "single-qubit blade group vs matrix oracle, exact", 1.0):
        group = [(s, b) for s in (1, -1) for b in range(4)]
        for (sa, a), (sb, b) in itertools.product(group, repeat=2):
            sign, code = blade_mul(a, b)
            lhs = (sa * BLADE_MATS[a]) @ (sb * BLADE_MATS[b])
            rhs = (sa * sb * sign) * BLADE_MATS[code]
            assert np.array_equal(lhs, rhs), ((sa, a), (sb, b))
        from bladesim import E12, gp, idempotent_p

        p = idempotent_p()
        assert gp(p, p) == p
        jj = gp(E12, E12)
        assert np.array_equal(jj.c, [-1.0, 0.0, 0.0, 0.0])


def test_criterion_2_pauli_identification():
    with criterion(2, "rho of e1, e2, e12 equals Z, X, iY entrywise", 1.0):
        assert np.array_equal(rho_matrix(local_blade(1, 0, 1)), SZ.astype(complex))
        assert np.array_equal(rho_matrix(local_blade(1, 0, 2)), SX.astype(complex))
        assert np.array_equal(rho_matrix(local_blade(1, 0, 3)), 1j * SY)


def test_criterion_3_action_commutes_with_preparation():
    with criterion(3, "operator action commutes with state preparation (1e-10)", 30.0):
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3):
            for _ in range(1000):
                g = random_dense(n, rng)
                h = random_dense(n, rng)
                lhs = rho_matrix(g) @ to_statevector(theta(h))
                rhs = to_statevector(theta(dense_gp(g, h)))
                dev = np.max(np.abs(lhs - rhs))
                assert dev <= 1e-10, (n, dev)


def test_criterion_4_linear_time_products_vs_oracles():
    with criterion(4, "string products agree with dense/Kronecker oracles", 30.0):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = random_blade_string(3, rng)
            b = random_blade_string(3, rng)
            prod = string_mul(a, b)
            dense_prod = dense_gp(
                DenseMultivector.from_blade_string(a), DenseMultivector.from_blade_string(b)
            )
            assert DenseMultivector.from_blade_string(prod) == dense_prod  # signs exact
        for n in (1, 2):
            strings = [
                PauliString(n, x, z, k)
                for x in range(2**n)
                for z in range(2**n)
                for k in range(4)
            ]
            for a, b in itertools.product(strings, repeat=2):
                prod = pauli_mul(a, b)
                lhs = pauli_matrix_oracle(a) @ pauli_matrix_oracle(b)
                assert np.max(np.abs(lhs - pauli_matrix_oracle(prod))) <= 1e-10
        # random strings at n=3, phases included
        for _ in range(300):
            a = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
            b = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
            lhs = pauli_matrix_oracle(a) @ pauli_matrix_oracle(b)
            assert np.max(np.abs(lhs - pauli_matrix_oracle(pauli_mul(a, b)))) <= 1e-10


def test_criterion_5_density_operator_law():
    with criterion(5, "projectors Hermitian/idempotent, conjugation law (1e-9)", 60.0):
        rng = np.random.default_rng(99)
        for n in (1, 2, 3):
            done = 0
            while done < 200:
                a = random_dense(n, rng)
                if np.linalg.norm(to_statevector(theta(a))) < 0.1:
                    continue  # nearly degenerate generators are exercised separately
                pi = density_from_generator(a)
                assert np.max(np.abs(pi - pi.conj().T)) <= 1e-9
                assert np.max(np.abs(pi @ pi - pi)) <= 1e-9
                assert abs(np.trace(pi).real - 1.0) <= 1e-9
                x = random_dense(n, rng)
                ok, dev = conjugate_evolution_check(a, x, tol=1e-9)
                assert ok, (n, dev)
                done += 1


def test_criterion_6_stabilizer_oracle_equivalence():
    with criterion(6, "tableau stabilizers fix the oracle state (1e-8)", 120.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            depth = int(rng.integers(1, 51))
            circuit = random_clifford_circuit(
                n, depth, seed=int(rng.integers(1_000_000)), gate_kinds=("h", "s", "cnot", "x", "z")
            )
            t = Tableau(n)
            psi = sv.zero_state(n)
            t.check_invariants()
            for op in circuit.ops:
                t.apply_gate(op)
                t.check_invariants()
                psi = sv.apply_gate(psi, op, n)
            for row in t.stabilizers:
                dev = np.max(np.abs(pauli_matrix_oracle(row) @ psi - psi))
                assert dev <= 1e-8, (n, depth, row.to_text(), dev)


def test_criterion_7_measurement_statistics():
    with criterion(7, "shot frequencies match Born probabilities (0.02 at 1e4)", 120.0):
        shots = 10_000
        bell = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
        report = run(bell, backend="stabilizer", shots=shots, seed=42)
        counts = report["counts"]
        assert set(counts) <= {"00", "11"}  # correlations exact
        assert abs(counts.get("00", 0) / shots - 0.5) <= 0.02
        assert abs(counts.get("11", 0) / shots - 0.5) <= 0.02

        picked = 0
        seed = 0
        while picked < 10:
            seed += 1
            circuit = random_clifford_circuit(
                int(np.random.default_rng(seed).integers(1, 5)),
                20,
                seed=seed,
                gate_kinds=("h", "s", "cnot", "x", "z"),
                measure_prob=0.2,
            )
            if not 1 <= circuit.measure_count <= 8:
                continue
            picked += 1
            dist = born_distribution(circuit)
            rep = run(circuit, backend="stabilizer", shots=shots, seed=1000 + seed)
            freqs: dict[tuple, float] = {}
            for rec in rep["records"]:
                freqs[tuple(rec)] = freqs.get(tuple(rec), 0.0) + 1.0 / shots
            assert set(freqs) <= set(dist), "observed a zero-probability record"
            for key in dist:
                assert abs(freqs.get(key, 0.0) - dist[key]) <= 0.02, (seed, key)


def test_criterion_8_product_scaling():
    with criterion(8, "pauli product time ratio n=2^20 vs 2^19 at most 3", 60.0):
        # both sizes back to back in every rep, so a slow spell of a shared
        # host lands on both sides of the ratio
        pairs = [[time_pauli_mul(n, reps=1, seed=8)[0] for n in (2**19, 2**20)] for _ in range(25)]
        t19, t20 = (float(t) for t in np.median(pairs, axis=0))
        ratio = t20 / t19
        print(f"  median {t19:.0f} ns -> {t20:.0f} ns, ratio {ratio:.2f}")
        assert ratio <= 3.0, (t19, t20, ratio)


def test_criterion_9_parser_corpus():
    with criterion(9, "circuit files round-trip; bad files located exactly", 5.0):
        assert len(VALID_FILES) >= 20 and len(INVALID_FILES) >= 15
        for source in VALID_FILES:
            c = parse(source)
            assert parse(serialize(c)) == c
        for source, line in INVALID_FILES:
            try:
                parse(source)
            except ParseError as err:
                assert err.line == line, (source, err)
            else:
                raise AssertionError(f"bad file parsed cleanly: {source!r}")
        rng = np.random.default_rng(12)
        for _ in range(500):
            c = random_clifford_circuit(
                int(rng.integers(1, 8)),
                int(rng.integers(0, 30)),
                seed=int(rng.integers(1_000_000)),
                gate_kinds=("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap"),
                measure_prob=0.2,
            )
            assert parse(serialize(c)) == c
