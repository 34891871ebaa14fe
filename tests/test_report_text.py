"""`cli.report_text` against `json.dumps(value, sort_keys=True, indent=2) + "\\n"`, byte for byte.

The writer walks dicts itself and joins a list of lists of exact ints from
each distinct row's text, so the values here cover real run and validate
reports, the rows json must keep apart although they compare equal (1, True
and 1.0), and arbitrary JSON values.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import bladesim.tableau
from bladesim import parse, run, validate
from bladesim.backends import BACKENDS
from bladesim.cli import report_text
from corpus import VALID_FILES, circuits

CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"
SHIPPED = {p.stem: p.read_text(encoding="utf-8") for p in sorted(CIRCUIT_DIR.glob("*.qc"))}
MANY_MEASURES = "qubits 2\n" + "h 0\ncnot 0 1\nmeasure 0\nmeasure 1\nh 1\n" * 9
NO_MEASURE = "qubits 2\nh 0\ncnot 0 1\n"  # records [[], [], ...]


def expected(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "src",
    [*SHIPPED.values(), *VALID_FILES, MANY_MEASURES, NO_MEASURE],
    ids=[*SHIPPED, *(f"corpus{i}" for i in range(len(VALID_FILES))), "many_measures", "no_measure"],
)
def test_run_reports(src):
    circuit = parse(src)
    for backend in BACKENDS:
        if backend != "stabilizer" and circuit.n > 5:
            continue  # past the dense backends' cap
        report = run(circuit, backend, shots=50, seed=3)
        assert report_text(report) == expected(report), backend


@pytest.mark.parametrize("src", [*SHIPPED.values(), MANY_MEASURES, NO_MEASURE], ids=[*SHIPPED, "many_measures", "no_measure"])
def test_validate_reports(src):
    report = validate(parse(src), shots=200, seed=1)
    assert report["passed"]
    assert report_text(report) == expected(report)


def test_failing_validate_report(monkeypatch):
    original = bladesim.tableau.Tableau.measure

    def flipped(self, q, draw):
        const, mask, deterministic = original(self, q, draw)
        return (1 - const if deterministic else const), mask, deterministic

    monkeypatch.setattr(bladesim.tableau.Tableau, "measure", flipped)
    report = validate(parse(SHIPPED["bell"]), shots=200, seed=0)
    assert not report["passed"]
    assert report_text(report) == expected(report)


@pytest.mark.parametrize(
    "value",
    [
        [[1], [True], [1.0]],  # equal and hashing alike, printed 1, true and 1.0
        [[True], [1]],
        [[1, 2], [1, 2.0]],
        [[0, 1], [False, True]],
        [[1], (1,)],
        -0.0,
        [[-0.0, 0.0]],
        math.nan,
        [math.inf, -math.inf, math.nan],
        {"x": [[math.inf]]},
        "café   \U0001f600",
        'quote " backslash \\ newline \n tab \t nul \x00',
        {"line\nbreak": "a\nb", "é": ["\n"]},
        {},
        [],
        [[]],
        [[], []],
        {"a": {}, "b": [], "c": [[]]},
        {"b": {"d": {"e": [[1, 2], [3]]}, "c": 1}, "a": None},
        [[2**70, -(2**70)], [-1, 0], [2**70, -(2**70)]],
        [[-5, 17], [-5, 17], [3, -3]],
        {1: "int key", 2: "sorted as ints"},
        {"outer": {3: [[1]], 1: None}},
        [{"b": 1, "a": [[1, 2]]}],
        [[[1]], [[2]]],
        True,
        None,
        12,
        "",
    ],
)
def test_hand_built_values(value):
    assert report_text(value) == expected(value)


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.lists(st.lists(st.integers(-3, 3) | st.booleans() | st.sampled_from([0.0, 1.0, -0.0]), max_size=3), max_size=6)
    | st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=8)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_any_json_value(value):
    assert report_text(value) == expected(value)


@given(circuits(max_n=4), st.integers(0, 1000))
def test_random_circuit_reports(circuit, seed):
    report = run(circuit, "stabilizer", shots=30, seed=seed)
    assert report_text(report) == expected(report)


def test_ghz12_statevector_report():
    # 4096 [re, im] float pairs: the rows that are not all ints
    circuit = parse("qubits 12\nh 0\n" + "".join(f"cnot {q} {q + 1}\n" for q in range(11)) + "measure 0\n")
    report = run(circuit, "statevector", shots=1, seed=0)
    assert len(report["final"]["statevector"]) == 4096
    assert report_text(report) == expected(report)


@pytest.mark.parametrize(
    "value",
    [
        [[1, 2.5], [], [None, True], [-0.0, math.nan], [math.inf, -math.inf], []],
        [[], [0.5]],
        [[0.5], []],
        [[None]],
        [[False, None, 0]],
        [[1e300, 5e-324, -1e-7, 2**70]],
        [[0.5], (2.5,)],
        {"final": {"statevector": [[0.7071067811865476, 0.0], [-0.0, -0.7071067811865476]]}},
        {"rows": [[1.0]], "deep": {"rows": [[], [math.nan, None]]}},
        (1, 2.5),
        {"t": (1, (2, 3.5))},
        ["a", [1.5]],
        [[["nested"], 1.5]],
        1.5,
        -0.0,
        math.inf,
        False,
    ],
)
def test_rows_of_numbers_and_literals(value):
    assert report_text(value) == expected(value)


number_rows = st.lists(
    st.lists(st.integers(-3, 3) | st.booleans() | st.none() | st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    min_size=1,
    max_size=6,
)


@given(number_rows | st.dictionaries(st.text(max_size=3), number_rows, max_size=3))
def test_any_rows_of_numbers(value):
    assert report_text(value) == expected(value)
