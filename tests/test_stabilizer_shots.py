"""The stabilizer backend's one pass and its sampler against the concrete per-shot loop.

`_pass` walks the tableau once with every random outcome left as a variable,
then `_sample` has each shot only draw its bits.  Each half is checked on its
own, and through `run`: records and `final` must equal those of a fresh
tableau measured shot by shot, bit for bit.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

import bladesim.tableau
from bladesim import parse, random_clifford_circuit, run, validate
from bladesim.backends import _pass, _sample
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from corpus import circuits
from oracles import _shot_rng, json_ready, per_shot_stabilizer

ALL_KINDS = ONE_QUBIT_GATES + TWO_QUBIT_GATES
EXACT_CHECKS = ("tableau_invariants", "stabilizer_rows_fix_oracle_state", "dense_clifford_matches_statevector")
CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"


def _assert_matches_per_shot(circuit, shots: int, seed: int):
    report = run(circuit, "stabilizer", shots=shots, seed=seed)
    records, lines = per_shot_stabilizer(circuit, shots, seed)
    assert report["records"].tolist() == records
    assert json_ready(report["final"]) == {"stabilizers": json_ready(lines)}


def test_one_pass_matches_per_shot_loop_on_seeded_circuits():
    shipped = [parse(p.read_text(encoding="utf-8")) for p in sorted(CIRCUIT_DIR.glob("*.qc"))]
    rng = np.random.default_rng(2024)
    randoms = [
        random_clifford_circuit(int(rng.integers(1, 7)), 40, seed=s, gate_kinds=ALL_KINDS, measure_prob=0.25)
        for s in range(40)
    ]
    assert any(c.ops and not c.ops[-1].is_measure and c.measure_count for c in randoms)
    for i, circuit in enumerate(shipped + randoms):
        for shots in (1, 7):
            _assert_matches_per_shot(circuit, shots, seed=i)


def test_one_pass_without_random_outcomes_matches_per_shot_loop():
    # no draw at all: the draws' rows and the last shot's bits come from no columns
    for text in ("qubits 2\nmeasure 0\nmeasure 1\n", "qubits 3\nx 0\ncnot 0 1\nmeasure 0\nmeasure 1\nmeasure 2\nh 2\n"):
        for shots in (1, 7):
            _assert_matches_per_shot(parse(text), shots, seed=5)


@given(circuits(max_n=6), st.integers(0, 10_000), st.sampled_from([1, 7]))
def test_one_pass_matches_per_shot_loop(circuit, seed, shots):
    _assert_matches_per_shot(circuit, shots, seed)


@given(circuits(max_n=6), st.integers(0, 10_000))
def test_pass_draws_where_the_concrete_walk_is_random(circuit, seed):
    # the per-shot loop's walk with the deterministic flag kept: the pass draws
    # once per random measurement, and its x/z columns are the concrete ones
    t, outcomes, draws = _pass(circuit)
    concrete, rng, random_count = bladesim.tableau.Tableau(circuit.n), _shot_rng(seed, 0), 0
    for op in circuit.ops:
        if op.is_measure:
            random_count += not concrete.measure_z(op.qubits[0], rng)[1]
        else:
            concrete.apply_gate(op)
    assert draws == random_count
    assert len(outcomes) == circuit.measure_count
    assert all(0 <= mask < 1 << draws and const in (0, 1) for const, mask in outcomes)
    assert (t.xs, t.zs) == (concrete.xs, concrete.zs)


def test_sample_evaluates_each_outcome_as_a_parity_of_the_draws():
    # hand-built (const, mask) outcomes: shot s's outcome is const XOR the
    # parity of mask & its draws, draw r the r-th integers(0, 2) of its stream
    rng = np.random.default_rng(7)
    for draws in (0, 63, 64, 65):
        full = (1 << draws) - 1
        masks = [0] + ([1, 1 << draws - 1, full, 0b1011 & full] if draws else [])
        masks += [int.from_bytes(rng.bytes(9), "little") & full for _ in range(3)]
        outcomes = [(c, m) for m in masks for c in (0, 1)]
        for shots, seed in ((1, 0), (3, 5), (70, 2**40 + 3)):
            records, last = _sample(outcomes, draws, shots, seed)
            assert records.shape == (shots, len(outcomes)) and records.dtype == np.uint8
            for shot in range(shots):
                stream = _shot_rng(seed, shot)
                drawn = sum(int(stream.integers(0, 2)) << r for r in range(draws))
                expected = [c ^ ((m & drawn).bit_count() & 1) for c, m in outcomes]
                assert records[shot].tolist() == expected, (draws, shots, seed, shot)
            assert last == drawn, (draws, shots, seed)


@given(circuits(max_n=5), st.integers(0, 10_000))
def test_validate_walk_passes_on_generated_circuits(circuit, seed):
    report = validate(circuit, shots=64, seed=seed)
    passed = {c["name"] for c in report["checks"] if c["passed"]}
    assert set(EXACT_CHECKS) <= passed, report


def test_batched_draw_equals_sequential_draws():
    # on one qubit, h then measure makes every outcome a fresh draw, so a
    # shot's record is its bits, read for all shots at once from their words
    for draws in (0, 1, 2, 3, 7, 31, 32, 33, 63, 64, 65, 130):
        circuit = parse("qubits 1\n" + "h 0\nmeasure 0\n" * draws)
        for seed in (0, 1, 42, 2**31 - 1):
            records, _ = _sample(*_pass(circuit)[1:], 10_000, seed)
            for shot in (0, 1, 9, 9_999):
                rng = _shot_rng(seed, shot)
                assert records[shot].tolist() == [int(rng.integers(0, 2)) for _ in range(draws)], (seed, shot, draws)


def test_shot_loop_does_no_tableau_work(monkeypatch):
    # GHZ-16 measured out: the measurements (and their row products) are
    # made once, in the one pass, and no shot copies a tableau
    made = 0
    original = bladesim.tableau.Tableau.measure

    def counting_measure(self, q, draw):
        nonlocal made
        made += 1
        return original(self, q, draw)

    def no_copy(self):
        raise AssertionError("a shot copied the tableau")

    monkeypatch.setattr(bladesim.tableau.Tableau, "measure", counting_measure)
    monkeypatch.setattr(bladesim.tableau.Tableau, "copy", no_copy)
    n = 16
    body = "h 0\n" + "".join(f"cnot {q} {q + 1}\n" for q in range(n - 1)) + "".join(f"measure {q}\n" for q in range(n))
    ghz = parse(f"qubits {n}\n" + body)
    per_run = []
    for shots in (1, 50):
        made = 0
        report = run(ghz, "stabilizer", shots=shots, seed=3)
        per_run.append(made)
        assert all(len(set(rec)) == 1 for rec in report["records"])
    assert per_run[0] > 0 and per_run[0] == per_run[1], per_run
