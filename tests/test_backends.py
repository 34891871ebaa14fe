import functools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import bladesim.backends
import bladesim.tableau
from bladesim import (
    BladesimError,
    CapacityError,
    Circuit,
    GateOp,
    OperatorPair,
    apply,
    born_distribution,
    gate_to_operator_pair,
    parse,
    qubit_projector,
    random_clifford_circuit,
    run,
    theta,
    to_statevector,
    vacuum,
    validate,
)
from bladesim import statevector as sv
from bladesim.backends import BACKENDS, BRANCH_EPS, CODE_BITS, _dense_backend, _distinct, _element_backend, _tally
from bladesim.circuit import MAX_SHOTS, MEASURE, ONE_QUBIT_GATES, TWO_QUBIT_GATES
from bladesim.gates import projector_words
from bladesim.ideal import word_action
from corpus import circuits
from oracles import (
    circuit_unitary,
    element_from_coordinates,
    json_ready,
    per_record_counts,
    random_dense,
    reference_coordinate_project,
    reference_ideal_project,
)

BELL = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
CERTAIN = parse("qubits 2\nx 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")  # no random outcome
# run on each backend, and validate: all four take (circuit, shots=, seed=)
ENTRY_POINTS = [pytest.param(functools.partial(run, backend=b), id=b) for b in BACKENDS] + [
    pytest.param(validate, id="validate")
]
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
    assert report["records"].tolist() == [[]]
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
    assert json_ready(a) == json_ready(b)
    c = run(BELL, backend="stabilizer", shots=50, seed=4)
    c.pop("timing")
    assert json_ready(a) != json_ready(c)


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
    # both dense backends stop at STATEVECTOR_CAP = 12 qubits, and so does validate
    big = parse("qubits 13\nh 0\n")
    for backend in ("statevector", "dense-clifford"):
        with pytest.raises(CapacityError, match="at most 12 qubits"):
            run(big, backend=backend)
    with pytest.raises(CapacityError, match="at most 12 qubits"):
        validate(big)
    run(big, backend="stabilizer")  # no cap
    run(parse("qubits 12\nh 0\n"), backend="dense-clifford")


def test_run_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run(BELL, backend="quantum")
    with pytest.raises(ValueError):
        run(BELL, shots=0)
    for check in (run, validate):
        with pytest.raises(BladesimError, match="at most 1048576"):
            check(BELL, shots=MAX_SHOTS + 1)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    ("circuit", "shots", "seed", "message"),
    [
        pytest.param(BELL, 0, 0, "shots must be at least 1", id="zero-shots"),
        pytest.param(CERTAIN, 2.5, 0, r"shots must be an integer, got 2\.5", id="float-shots"),
        # CERTAIN builds no stream on stabilizer, so only the argument check can refuse it
        pytest.param(CERTAIN, 4, -1, "seed must be non-negative, got -1", id="negative-seed"),
        pytest.param(BELL, 4, 1.7, r"seed must be an integer, got 1\.7", id="float-seed"),
    ],
)
def test_bad_shots_and_seed_are_refused(entry, circuit, shots, seed, message):
    with pytest.raises(ValueError, match=message):
        entry(circuit, shots=shots, seed=seed)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_arguments_are_reported_as_python_ints(entry):
    report = entry(BELL, shots=np.int64(40), seed=np.uint32(3))
    assert type(report["shots"]) is int and type(report["seed"]) is int
    report.pop("timing", None)
    plain = entry(BELL, shots=40, seed=3)
    plain.pop("timing", None)
    assert json_ready(report) == json_ready(plain)


def test_json_pair_helpers():
    from bladesim import density_from_generator, local_blade, matrix_pairs, statevector_pairs

    v = np.array([1.0, 1j]) / np.sqrt(2)
    pairs = statevector_pairs(v)
    assert pairs == [[v[0].real, 0.0], [0.0, v[1].imag]]
    rho = density_from_generator(local_blade(1, 0, 2))
    m = matrix_pairs(rho)
    assert m == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # row-major |1><1|


def _ideal_states(n: int, rng) -> list:
    """Generic states from random elements, then random Clifford prefixes run on
    the vacuum (stabilizer states, whose p1 is 0, 1/2 or 1) and on a generic state."""
    generic = [theta(random_dense(n, rng)) for _ in range(3)]
    states = list(generic)
    for state in [vacuum(n)] * 3 + generic[:1]:
        circuit = random_clifford_circuit(n, 4 * n, seed=int(rng.integers(1 << 30)), gate_kinds=ALL_KINDS)
        for op in circuit.ops:
            state = apply(gate_to_operator_pair(op, n), state)
        states.append(state)
    return states


def test_in_algebra_measurement_matches_state_vector():
    # the projector (1 - e1_q)/2 on coordinates against the same projector on
    # the 4**n element (coefficient norms) and against the state vector's
    # Born rule and collapse, for every qubit and both outcomes
    rng = np.random.default_rng(31)
    tol = 1e-12
    for n in range(1, 6):
        measures = Circuit(n, tuple(GateOp(MEASURE, (q,), q) for q in range(n)), n)
        _, _, project = _dense_backend(measures, "dense-clifford")
        _, _, element_project = _element_backend(measures)
        for state in _ideal_states(n, rng):
            amps = to_statevector(state)
            for q in range(n):
                p = sv.born_p1(amps, q, n)
                p1, collapse = project(amps, q)
                p_element, collapse_element = element_project(state, q)
                assert abs(p1 - p) <= tol and abs(p1 - p_element) <= tol, (n, q, p1, p, p_element)
                for outcome in (0, 1):
                    if (p if outcome else 1.0 - p) <= BRANCH_EPS:
                        continue  # no branch to collapse onto
                    got = collapse(outcome)
                    dev = np.max(np.abs(got - sv.collapse(amps, q, n, outcome)))
                    dev_element = np.max(np.abs(got - to_statevector(collapse_element(outcome))))
                    assert max(dev, dev_element) <= tol, (n, q, outcome, dev, dev_element)


def _same_collapse(collapse, reference, outcome: int) -> bool:
    """Whether two collapses give the same bytes, or both refuse with the same message; True if they refuse."""
    try:
        want = reference(outcome)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            collapse(outcome)
        assert str(got.value) == str(err)
        return True
    got = collapse(outcome)
    assert type(got) is type(want)
    assert getattr(got, "c", got).tobytes() == getattr(want, "c", want).tobytes()  # an element's coefficients
    return False


@pytest.mark.parametrize("n", range(1, 6))
def test_projection_equals_the_two_projections_it_replaces(n):
    # the dense engines' one `_projection`, as `_dense_backend` and
    # `_element_backend` wire it, against the coordinate and element
    # projections it replaced: p1 equal as floats, each collapse equal byte
    # for byte, a zero part refused with the same message on both sides
    rng = np.random.default_rng(67 + n)
    measures = Circuit(n, tuple(GateOp(MEASURE, (q,), q) for q in range(n)), n)
    _, _, project = _dense_backend(measures, "dense-clifford")
    _, _, element_project = _element_backend(measures)
    refused = 0
    for state in [vacuum(n), *_ideal_states(n, rng)]:
        amps = to_statevector(state)
        for q in range(n):
            words = word_action(n, projector_words(n, q, 1))
            pair = OperatorPair.real(qubit_projector(n, q, 1))
            for (p1, collapse), (want, reference) in (
                (project(amps, q), reference_coordinate_project(amps, words)),
                (element_project(state, q), reference_ideal_project(state, pair)),
            ):
                assert p1 == want, (n, q, p1, want)
                for outcome in (0, 1):
                    refused += _same_collapse(collapse, reference, outcome)
    assert refused  # the vacuum has no part on outcome 1


def test_dense_shot_loop_measures_inside_the_algebra(monkeypatch):
    # every projection a dense-clifford run makes is the algebra's projector:
    # its p1 and collapse equal those of (1 - e1_q)/2 on the 4**n element with
    # the same coordinates, and the state vector's Born rule is never called
    calls = 0
    original = bladesim.backends._dense_backend

    def checked_backend(circuit, backend):
        state, step, project = original(circuit, backend)
        n = circuit.n
        element_project = _element_backend(circuit)[2]

        def checked(v, q):
            nonlocal calls
            calls += 1
            p1, collapse = project(v, q)
            p_element, collapse_element = element_project(element_from_coordinates(n, v), q)
            assert abs(p1 - p_element) <= 1e-12, (q, p1, p_element)

            def both(outcome):
                got = collapse(outcome)
                assert np.max(np.abs(got - to_statevector(collapse_element(outcome)))) <= 1e-12, (q, outcome)
                return got

            return p1, both

        return state, step, checked

    def refuse(*args):
        raise AssertionError("the state vector's Born rule was called")

    monkeypatch.setattr(bladesim.backends, "_dense_backend", checked_backend)
    monkeypatch.setattr(sv, "born_p1", refuse)
    monkeypatch.setattr(sv, "collapse", refuse)
    circuit = parse((Path(__file__).resolve().parent.parent / "circuits" / "teleport_like.qc").read_text())
    assert circuit.measure_count > 0
    run(circuit, "dense-clifford", shots=50, seed=0)
    assert calls > 0


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
    # break the tableau phase gate: S's rule without its sign flip (Y -> +X)
    # leaves the group intact but desynchronizes it from the true state
    rules = bladesim.tableau._RULES
    monkeypatch.setitem(bladesim.tableau._GATES, "s", bladesim.tableau._compile("s", rules["s"]._replace(flip=())))
    circuit = parse("qubits 1\nh 0\ns 0\ns 0\nh 0\nmeasure 0\n")
    report = validate(circuit, shots=500, seed=0)
    assert not report["passed"]
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["stabilizer_rows_fix_oracle_state"].startswith("op 4 (measure 0)"), failed


def test_validate_steps_the_engines_run_walks(monkeypatch):
    # a statevector engine that applies sdg for s must fail the dense
    # comparison at that op: validate steps the engines `run` walks
    original = bladesim.backends._dense_backend

    def swapped(circuit, backend):
        state, step, project = original(circuit, backend)
        if backend == "statevector":
            inner = step
            step = lambda v, op: inner(v, GateOp("sdg", op.qubits) if op.kind == "s" else op)  # noqa: E731
        return state, step, project

    monkeypatch.setattr(bladesim.backends, "_dense_backend", swapped)
    report = validate(parse("qubits 1\nh 0\ns 0\nh 0\nmeasure 0\n"), shots=500, seed=0)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["dense_clifford_matches_statevector"].startswith("op 1 (s 0)"), report


def test_validate_reports_a_zero_norm_dense_collapse(monkeypatch):
    # the dense backend's projector swapped for the other outcome's: at a
    # certain outcome the dense state has no part to collapse onto, which
    # must fail the dense check at that op and end the walk, not raise
    original = bladesim.backends.projector_words
    monkeypatch.setattr(bladesim.backends, "projector_words", lambda n, q, o: original(n, q, 1 - o))
    report = validate(parse("qubits 1\nmeasure 0\n"), shots=100)
    assert not report["passed"]
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert list(failed) == ["dense_clifford_matches_statevector"], report
    assert failed["dense_clifford_matches_statevector"].startswith("op 0 (measure 0)"), report


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


def test_validate_walk_checks_the_records_run_returned(monkeypatch):
    # 18 measurements take the sampled reference, which flags no impossible
    # record; a certain outcome flipped in shot 0's record alone must fail
    # the walk at that measurement, op 7 being measurement 5
    circuit = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0\n" + "measure 1\n" * 17)
    assert circuit.measure_count == 18
    original = bladesim.backends._sample

    def corrupted(outcomes, draws, shots, seed):
        records, last = original(outcomes, draws, shots, seed)
        records[0][5] ^= 1
        return records, last

    monkeypatch.setattr(bladesim.backends, "_sample", corrupted)
    report = validate(circuit, shots=1000, seed=3)
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["stabilizer_rows_fix_oracle_state"].startswith("op 7 (measure 1)"), report


def test_validate_walks_the_shot_0_record_run_samples(monkeypatch):
    # validate and run share one pass and one sampler: the record validate
    # walks is the one run reports for shot 0 at the same seed
    circuit = random_clifford_circuit(4, 40, seed=11, gate_kinds=ONE_QUBIT_GATES + TWO_QUBIT_GATES, measure_prob=0.3)
    original, sampled = bladesim.backends._sample, []

    def capturing(*args):
        records, last = original(*args)
        sampled.append(records)
        return records, last

    monkeypatch.setattr(bladesim.backends, "_sample", capturing)
    validate(circuit, shots=500, seed=9)
    monkeypatch.undo()
    [records] = sampled
    assert circuit.measure_count > 5 and len(set(map(tuple, records.tolist()))) > 1
    assert records[0].tolist() == run(circuit, "stabilizer", shots=500, seed=9)["records"][0].tolist()


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
    # both of the run's records, (0, 1) and (1, 0), are impossible; the detail names the smaller
    assert failed["measurement_statistics"].startswith("impossible record observed: (0, 1); "), failed
    assert failed["stabilizer_rows_fix_oracle_state"].startswith("op 3 (measure 1)"), failed


@given(circuits(max_n=5), st.integers(0, 10_000), st.sampled_from(BACKENDS))
def test_counts_equal_the_per_record_tally(circuit, seed, backend):
    report = run(circuit, backend, shots=40, seed=seed)
    assert report["counts"] == per_record_counts(circuit, report["records"])


def _coin_flips(slots) -> str:
    """One qubit, and an H then a measurement into each of `slots` in turn: every outcome a fair coin."""
    return "qubits 1\n" + "".join(f"h 0\nmeasure 0 -> {slot}\n" for slot in slots)


@pytest.mark.parametrize(
    "src",
    [
        "qubits 1\nh 0\nmeasure 0 -> 3\nh 0\nmeasure 0 -> 3\n",  # slot 3 written twice, slots 0-2 never
        "qubits 2\nh 0\ncnot 0 1\nmeasure 1 -> 1\nh 0\nmeasure 0 -> 1\nmeasure 0\n",
        "qubits 2\nh 0\ncnot 0 1\n",  # no measurement: one empty register
        "qubits 1\nh 0\nmeasure 0\nh 0\nmeasure 0 -> 65535\n",  # 2^16 slots: 16 registers at a time
        # around the 64 written slots that one uint64 code per shot holds; at
        # 40 shots, seed 1, every record of these four is distinct
        pytest.param(_coin_flips(range(62, -1, -1)), id="63-slots-written-last-first"),
        pytest.param(_coin_flips([*range(0, 128, 2), 0]), id="64-of-127-slots-65-measurements"),
        pytest.param(_coin_flips(range(65)), id="65-slots"),
        pytest.param(_coin_flips(range(127, -1, -1)), id="128-slots-written-last-first"),
        pytest.param(Circuit(2, (GateOp("h", (0,)), GateOp("cnot", (0, 1))), 3), id="3-slots-no-measurement"),
    ],
)
def test_counts_on_overwritten_unwritten_and_missing_slots(src):
    circuit = parse(src) if isinstance(src, str) else src
    for backend in BACKENDS:
        for shots in (40, 1):
            report = run(circuit, backend, shots=shots, seed=1)
            assert report["counts"] == per_record_counts(circuit, report["records"]), backend
            assert sum(report["counts"].values()) == shots


def test_counts_iterate_in_register_order_up_to_64_written_slots():
    # each shot's register is one uint64 code, and np.unique returns the codes sorted
    circuit = parse(_coin_flips(range(5, -1, -1)))
    for backend in BACKENDS:
        counts = run(circuit, backend, shots=300, seed=1)["counts"]
        assert list(counts) == sorted(counts), backend


def _coin_rows(rows: int, columns: int) -> np.ndarray:
    return np.random.default_rng([rows, columns]).integers(0, 2, (rows, columns), dtype=np.uint8)


@st.composite
def _records_and_columns(draw):
    """Coin-flip records and 1-130 of their columns, a subset in any order, as `_counts` picks its writers."""
    shape = draw(st.tuples(st.integers(1, 300), st.integers(1, 133)))
    records = draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
    columns = draw(st.permutations(range(shape[1])))
    return records, columns[: draw(st.integers(1, min(130, shape[1])))]


# one uint64 code holds a row of up to 64 columns; wider rows take the byte-row Counter
@given(_records_and_columns())
@example((_coin_rows(1, 64), range(64)))
@example((_coin_rows(1, 65), range(65)))
@example((_coin_rows(300, 64), range(63, -1, -1)))  # every row distinct
@example((_coin_rows(300, 65), range(65)))
@example((_coin_rows(300, 6), [4, 0, 5, 2]))  # every row one of 16, in random order
def test_distinct_equals_the_counter_of_rows(case):
    # the stabilizer sampler's records are a transposed view, so both layouts;
    # rows come in bit-string order up to 64 columns, else in order of first
    # appearance: the order run's counts iterate in
    records, columns = case
    want = Counter(map(tuple, records[:, columns].tolist()))
    for layout in (records, np.asfortranarray(records)):
        rows, counts = _distinct(layout, columns)
        assert rows.dtype == np.uint8 and rows.shape == (len(want), len(columns))
        assert dict(zip(map(tuple, rows.tolist()), counts)) == want
        assert list(map(tuple, rows.tolist())) == (sorted(want) if len(columns) <= CODE_BITS else list(want))
        assert all(type(count) is int for count in counts)


@given(st.tuples(st.integers(1, 300), st.integers(1, 130)).flatmap(lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))))
@example(_coin_rows(300, 64))
@example(_coin_rows(300, 65))
def test_tally_equals_the_counter_of_rows(records):
    # validate's statistics tally: every record and its count, in no promised order
    want = Counter(map(tuple, records.tolist()))
    for layout in (records, np.asfortranarray(records)):
        got = _tally(layout)
        assert got == want
        assert all(type(v) is int for key in got for v in key)
