import numpy as np
import pytest

import bladesim.tableau
from bladesim import (
    CapacityError,
    born_distribution,
    parse,
    random_clifford_circuit,
    run,
    validate,
)
from bladesim.backends import BACKENDS
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from oracles import circuit_unitary, set_rows

BELL = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
ALL_KINDS = ONE_QUBIT_GATES + TWO_QUBIT_GATES
EXACT_CHECKS = ("tableau_invariants", "stabilizer_rows_fix_oracle_state", "dense_clifford_matches_statevector")


def test_bell_counts_on_every_backend():
    for backend in BACKENDS:
        report = run(BELL, backend=backend, shots=600, seed=7)
        counts = report["counts"]
        assert set(counts) <= {"00", "11"}
        assert counts["00"] + counts["11"] == 600
        assert abs(counts["00"] / 600 - 0.5) < 0.07
        assert len(report["records"]) == 600
        assert all(len(rec) == 2 for rec in report["records"])


def test_no_measure_statevector_report():
    circuit = parse("qubits 2\nh 0\ncnot 0 1\n")
    report = run(circuit, backend="statevector", shots=1, seed=0)
    amps = np.array([complex(re, im) for re, im in report["final"]["statevector"]])
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(amps, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-10)
    assert report["records"] == [[]]
    assert report["counts"] == {"": 1}


def test_unitary_circuits_agree_across_dense_backends():
    for seed in range(8):
        circuit = random_clifford_circuit(
            3, 25, seed=seed, gate_kinds=("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")
        )
        sv_report = run(circuit, backend="statevector", seed=1)
        dc_report = run(circuit, backend="dense-clifford", seed=1)
        a = np.array([complex(re, im) for re, im in sv_report["final"]["statevector"]])
        b = np.array([complex(re, im) for re, im in dc_report["final"]["statevector"]])
        assert np.allclose(a, b, atol=1e-8)
        # and both match the unitary applied to |0...0>
        expect = circuit_unitary(circuit.ops, 3)[:, 0]
        assert np.allclose(a, expect, atol=1e-8)


def test_measured_circuits_agree_in_distribution():
    circuit = random_clifford_circuit(3, 20, seed=11, measure_prob=0.25)
    assert circuit.measure_count > 0
    dist = born_distribution(circuit)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    report = run(circuit, backend="stabilizer", shots=4000, seed=123)
    freqs: dict[tuple, float] = {}
    for rec in report["records"]:
        freqs[tuple(rec)] = freqs.get(tuple(rec), 0.0) + 1 / 4000
    assert set(freqs) <= set(dist)
    for key, p in dist.items():
        assert abs(freqs.get(key, 0.0) - p) < 0.05


def test_born_distribution_bell():
    dist = born_distribution(BELL)
    assert dist[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert set(dist) == {(0, 0), (1, 1)}


def test_reports_are_deterministic():
    a = run(BELL, backend="stabilizer", shots=50, seed=3)
    b = run(BELL, backend="stabilizer", shots=50, seed=3)
    a.pop("timing")
    b.pop("timing")
    assert a == b
    c = run(BELL, backend="stabilizer", shots=50, seed=4)
    c.pop("timing")
    assert a != c


def test_explicit_slot_mapping():
    circuit = parse("qubits 2\nx 0\nmeasure 0 -> 1\nmeasure 1 -> 0\n")
    report = run(circuit, shots=3, seed=0)
    # qubit 0 was flipped; its outcome 1 lands in slot 1
    assert report["counts"] == {"01": 3}


def test_mid_circuit_measurement_prefix_handling():
    # measurement before more gates: collapse must feed through
    circuit = parse("qubits 1\nh 0\nmeasure 0\nx 0\nmeasure 0\n")
    report = run(circuit, shots=400, seed=5)
    for rec in report["records"]:
        assert rec[1] == 1 - rec[0]


def test_capacity_errors():
    big = parse("qubits 13\nh 0\n")
    with pytest.raises(CapacityError):
        run(big, backend="statevector")
    medium = parse("qubits 6\nh 0\n")
    with pytest.raises(CapacityError):
        run(medium, backend="dense-clifford")
    run(medium, backend="stabilizer")  # no cap


def test_run_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run(BELL, backend="quantum")
    with pytest.raises(ValueError):
        run(BELL, shots=0)


def test_json_pair_helpers():
    from bladesim import density_from_generator, local_blade, matrix_pairs, statevector_pairs

    v = np.array([1.0, 1j]) / np.sqrt(2)
    pairs = statevector_pairs(v)
    assert pairs == [[v[0].real, 0.0], [0.0, v[1].imag]]
    rho = density_from_generator(local_blade(1, 0, 2))
    m = matrix_pairs(rho)
    assert m == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # row-major |1><1|


def test_validate_passes_on_bell():
    report = validate(BELL, shots=3000, seed=2)
    assert report["passed"], report
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "tableau_invariants",
        "stabilizer_rows_fix_oracle_state",
        "dense_clifford_matches_statevector",
        "measurement_statistics",
    }


def test_validate_passes_on_random_circuits():
    # every gate kind through mid-circuit measurements, on all three backends
    rng = np.random.default_rng(77)
    for seed in range(20):
        n = int(rng.integers(1, 6))
        depth = int(rng.integers(5, 51))
        circuit = random_clifford_circuit(n, depth, seed=seed, gate_kinds=ALL_KINDS, measure_prob=0.25)
        report = validate(circuit, shots=1000, seed=seed)
        assert report["passed"], (seed, report)
        passed = {c["name"] for c in report["checks"] if c["passed"]}
        assert set(EXACT_CHECKS) <= passed, (seed, report)


def test_validate_many_measurements_uses_sampled_reference():
    ops = "\n".join(f"h 0\nmeasure 0 -> {k}" for k in range(18))
    circuit = parse(f"qubits 1\n{ops}\n")
    assert circuit.measure_count == 18
    report = validate(circuit, shots=800, seed=4)
    stats = next(c for c in report["checks"] if c["name"] == "measurement_statistics")
    assert "sampled reference" in stats["detail"]
    assert report["passed"], report


def test_born_distribution_measure_limit():
    ops = "\n".join(f"h 0\nmeasure 0 -> {k}" for k in range(18))
    circuit = parse(f"qubits 1\n{ops}\n")
    with pytest.raises(ValueError):
        born_distribution(circuit)


def test_validate_catches_corrupted_gate_rule(monkeypatch):
    # break the tableau phase gate: wrong sign update leaves the group intact
    # but desynchronizes it from the true state
    def bad_s(self, q):
        m = 1 << q
        rows = [type(r)(r.n, r.x, r.z ^ (r.x & m), r.k) for r in self.rows]  # drops the phase flip
        set_rows(self, rows)
        return self

    monkeypatch.setattr(bladesim.tableau.Tableau, "s", bad_s)
    circuit = parse("qubits 1\nh 0\ns 0\ns 0\nh 0\nmeasure 0\n")
    report = validate(circuit, shots=500, seed=0)
    assert not report["passed"]
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["stabilizer_rows_fix_oracle_state"].startswith("op 4 (measure 0)"), failed


def test_validate_catches_corrupted_measurement(monkeypatch):
    # force every random outcome to 0 in the one CHP measurement that both
    # run and validate's walk call: Bell statistics collapse to one record
    original = bladesim.tableau.Tableau.measure

    def rigged(self, q, draw):
        return original(self, q, lambda: (0, 0))

    monkeypatch.setattr(bladesim.tableau.Tableau, "measure", rigged)
    report = validate(BELL, shots=2000, seed=0)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "measurement_statistics" in failed


def test_validate_walk_catches_flipped_deterministic_outcome(monkeypatch):
    # Bell's second outcome is certain; reporting its opposite gives a record
    # of Born probability 0, which the lockstep walk pins to that measurement;
    # the constant is flipped in the one CHP measurement run and walk share
    original = bladesim.tableau.Tableau.measure

    def flipped(self, q, draw):
        const, mask, deterministic = original(self, q, draw)
        return (1 - const if deterministic else const), mask, deterministic

    monkeypatch.setattr(bladesim.tableau.Tableau, "measure", flipped)
    report = validate(BELL, shots=500, seed=0)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert "measurement_statistics" in failed
    assert failed["stabilizer_rows_fix_oracle_state"].startswith("op 3 (measure 1)"), failed
