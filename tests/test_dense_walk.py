"""The dense backends' outcome-tree walk against the per-shot loop and the old Born stack.

`run` on dense-clifford and statevector walks the tree of measurement
outcomes once, splitting each node's shots by their draws, and
`born_distribution` walks the same tree with probabilities.  Records, `final`
and the distribution's items, in order, must equal those of every shot
evolved on its own and of the old stack walk, bit for bit.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import bladesim.backends
from bladesim import born_distribution, parse, random_clifford_circuit, run, statevector_pairs
from bladesim import statevector as sv
from bladesim.backends import BORN_ENUMERATION_LIMIT
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from corpus import circuits
from oracles import born_stack_walk, per_shot_dense

CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"
SHIPPED = {p.stem: parse(p.read_text(encoding="utf-8")) for p in sorted(CIRCUIT_DIR.glob("*.qc"))}
MANY_MEASURES = parse("qubits 1\n" + "".join(f"h 0\nmeasure 0 -> {k}\n" for k in range(18)))
RANDOM = random_clifford_circuit(4, 30, seed=12, gate_kinds=ONE_QUBIT_GATES + TWO_QUBIT_GATES, measure_prob=0.25)
DENSE = ("dense-clifford", "statevector")


def _assert_walk_matches_slow_paths(circuit):
    for backend in DENSE:
        for seed in (0, 3):
            records, finals = per_shot_dense(circuit, backend, 500, seed)
            for shots in (1, 7, 500):
                report = run(circuit, backend, shots=shots, seed=seed)
                assert report["records"].tolist() == records[:shots], (backend, seed, shots)
                assert report["final"] == {"statevector": statevector_pairs(finals[shots - 1])}, (backend, seed, shots)
    if circuit.measure_count <= BORN_ENUMERATION_LIMIT:
        assert list(born_distribution(circuit).items()) == list(born_stack_walk(circuit).items())


@pytest.mark.parametrize("circuit", [*SHIPPED.values(), MANY_MEASURES], ids=[*SHIPPED, "many_measures"])
def test_walk_matches_slow_paths_on_fixed_circuits(circuit):
    _assert_walk_matches_slow_paths(circuit)


@settings(max_examples=8, deadline=None)
@given(circuits(max_n=5))
def test_walk_matches_slow_paths_on_generated_circuits(circuit):
    _assert_walk_matches_slow_paths(circuit)


@pytest.mark.parametrize("shots", [1, 2000])
@pytest.mark.parametrize("circuit", [SHIPPED["teleport_like"], RANDOM], ids=["teleport_like", "random"])
def test_each_outcome_prefix_is_measured_once(circuit, shots, monkeypatch):
    # a measurement is projected once per distinct outcome prefix that
    # reaches it, however many shots share that prefix
    calls = Counter()

    def counting(backend, original):
        def counted(*args):
            calls[backend] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(sv, "born_p1", counting("statevector", sv.born_p1))
    monkeypatch.setattr(bladesim.backends, "_projection", counting("dense-clifford", bladesim.backends._projection))
    count = circuit.measure_count
    assert count > 1
    for backend in DENSE:
        records = run(circuit, backend, shots=shots, seed=5)["records"]
        prefixes = {tuple(rec[:m]) for rec in records for m in range(count)}
        assert calls[backend] == len(prefixes), (backend, shots)
