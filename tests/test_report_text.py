"""`cli.report_text` against `json.dumps(value, sort_keys=True, indent=2) + "\\n"`, byte for byte.

A run's records are a uint8 array and a stabilizer run's final lines a bytes
array; the expected text writes an array as the JSON value the report holds
(`oracles.json_ready`).  The writer walks dicts and lists itself, writes a
2-D array of 0s and 1s and the lines through one row-template writer, a
bounded number of bytes at a time, and breaks the compact text of rows of
numbers into lines.  So the values here
cover real run and validate reports, arrays of every shape, layout and
chunking, arrays the template must refuse, the rows json must keep apart
although they compare equal (1, True and 1.0), and arbitrary JSON values.
No report may reach json's pure-Python encoder, the one `indent` selects.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import bladesim.cli
import bladesim.tableau
from bladesim import parse, run, validate
from bladesim.backends import BACKENDS
from bladesim.cli import report_text
from corpus import VALID_FILES, circuits
from oracles import json_ready

CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"
SHIPPED = {p.stem: p.read_text(encoding="utf-8") for p in sorted(CIRCUIT_DIR.glob("*.qc"))}
MANY_MEASURES = "qubits 2\n" + "h 0\ncnot 0 1\nmeasure 0\nmeasure 1\nh 1\n" * 9
NO_MEASURE = "qubits 2\nh 0\ncnot 0 1\n"  # records [[], [], ...]


def expected(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=json_ready) + "\n"


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
        records = report["records"]
        assert records.dtype == np.uint8 and records.shape == (50, circuit.measure_count), backend
        assert report_text(report) == expected(report), backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_records_are_read_only(backend):
    report = run(parse(SHIPPED["teleport_like"]), backend, shots=20, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        report["records"][0, 0] = 1 - report["records"][0, 0]


def test_no_report_reaches_the_indenting_encoder(monkeypatch):
    dumps = json.dumps

    def compact_only(*args, **kwargs):
        assert kwargs.get("indent") is None, "json.dumps called with indent"
        return dumps(*args, **kwargs)

    monkeypatch.setattr(bladesim.cli.json, "dumps", compact_only)
    for src in [*SHIPPED.values(), MANY_MEASURES, NO_MEASURE]:
        circuit = parse(src)
        for backend in BACKENDS:
            report_text(run(circuit, backend, shots=40, seed=2))
        report_text(validate(circuit, shots=100, seed=2))


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
        [{1: "int key in a list"}],
        [{"b": 1, "a": [[1, 2]]}],
        ["+XX", "-iZY"],
        ['quote "', "back\\slash", "new\nline", "caf\u00e9", "line\u2028separator", "\x00\x1f", "\U0001f600"],
        ["one"],
        ["+" + "XYZI" * 32 + "X"] * 128,  # 128 stabilizer lines of 129 letters
        [["a", "b"], "c"],
        ["a", 1],
        ("tu", "ple"),
        [{"name": "a", "passed": True}, {"name": "b", "passed": False}],
        [[], ["a"], [[]], {}],
        [[[1]], [[2]]],
        True,
        None,
        12,
        "",
        np.array([b"+X", b"-"]),  # NUL-padded items: written decoded, not from the template
        np.array([b"a\x00b", b""]),
        np.array([b"+XX", b"-ZZ", b"+YY"])[::2],  # strided lines
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


bit_shapes = st.tuples(st.integers(1, 40), st.integers(0, 70))


@given(
    bit_shapes.flatmap(lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))),
    st.sampled_from(["contiguous", "transposed", "strided"]),
)
def test_bit_arrays(bits, layout):
    if layout == "transposed":
        bits = np.ascontiguousarray(bits.T).T
    elif layout == "strided":
        wide = np.zeros((2 * bits.shape[0], 2 * bits.shape[1] + 1), dtype=np.uint8)
        wide[::2, 1::2] = bits
        bits = wide[::2, 1::2]
    value = {"records": bits, "deeper": [{"records": bits}]}
    assert report_text(value) == expected(value)
    assert report_text(bits) == expected(bits)


@pytest.mark.parametrize(
    "value",
    [
        np.array([[0, 2], [1, 0]], dtype=np.uint8),
        np.array([[255, 0], [1, 1]], dtype=np.uint8),
        np.array([[0, 1], [1, 0]], dtype=np.int64),
        np.array([0, 1, 1], dtype=np.uint8),
        np.array([], dtype=np.uint8),
        np.zeros((0, 4), dtype=np.uint8),
        np.zeros((3, 0), dtype=np.uint8),
        np.array([[[0, 1]], [[1, 0]]], dtype=np.uint8),
        np.array([[0.5, 1.0]]),
        np.array([], dtype="S3"),
    ],
    ids=["a 2", "a 255", "int64", "1-D", "empty 1-D", "no rows", "empty rows", "3-D", "float64", "no lines"],
)
def test_arrays_the_template_does_not_take(value):
    for wrapped in (value, {"records": value}, [[value]]):
        assert report_text(wrapped) == expected(wrapped)


@pytest.mark.parametrize("cells", [1, 2, 56, 57, 58, 114, 200])
def test_template_chunks(monkeypatch, cells):
    # at depth 1 a row of 5 outcomes is 57 bytes with its separator and a
    # line of 5 letters 13, so these limits build one row, two rows or more
    # at a time of either kind, and the lines' last chunk may hold one
    bits = np.arange(45, dtype=np.uint8).reshape(9, 5) % 3 % 2
    lines = np.array([b"+XYZI", b"-IIZX", b"+YYYY"] * 3)
    want = [expected({"records": value}) for value in (bits, lines)]
    monkeypatch.setattr(bladesim.cli, "MAX_SHOTS", cells)
    assert [report_text({"records": value}) for value in (bits, lines)] == want


@pytest.mark.parametrize("limit", [1, 7, 64])
def test_stabilizer_lines_cross_writer_chunks(monkeypatch, limit):
    # a GHZ-n line in a report takes n + 11 bytes with its separator, so under
    # these limits a chunk holds one line or a few, and GHZ-10 ends on a
    # chunk of one
    monkeypatch.setattr(bladesim.cli, "MAX_SHOTS", limit)
    for n in (1, 2, 9, 10, 20, 70):
        body = "h 0\n" + "".join(f"cnot 0 {q}\n" for q in range(1, n)) + "measure 0\n"
        report = run(parse(f"qubits {n}\n" + body), "stabilizer", shots=3, seed=1)
        assert report_text(report) == json.dumps(json_ready(report), sort_keys=True, indent=2) + "\n", n
