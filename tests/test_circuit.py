import pytest
from hypothesis import given

from bladesim import BladesimError, Circuit, GateOp, ParseError, parse, random_clifford_circuit, run, serialize
from bladesim.backends import BACKENDS
from bladesim.circuit import MAX_QUBITS, MAX_SLOTS, TWO_QUBIT_GATES
from corpus import INVALID_FILES, VALID_FILES, circuits


def test_parse_basic():
    c = parse("qubits 2\nh 0\ncnot 0 1")
    assert c.n == 2
    assert c.ops == (GateOp("h", (0,)), GateOp("cnot", (0, 1)))
    assert c.creg == 0
    assert parse(f"qubits {MAX_QUBITS}\n").n == MAX_QUBITS


def test_parse_measure_slots():
    c = parse("qubits 2\nmeasure 0\nmeasure 1\n")
    assert [op.slot for op in c.ops] == [0, 1]
    assert c.creg == 2
    c = parse("qubits 2\nmeasure 0 -> 3\nmeasure 1\n")
    assert [op.slot for op in c.ops] == [3, 4]
    assert c.creg == 5
    c = parse("qubits 1\nmeasure 0 -> 0\nmeasure 0 -> 0\n")
    assert c.creg == 1
    assert parse(f"qubits 1\nmeasure 0 -> {MAX_SLOTS - 1}\n").creg == MAX_SLOTS


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("qubits 1\ncnot 0 0")
    assert (e.value.line, e.value.column, e.value.message) == (2, 8, "'cnot' needs two distinct qubits")
    with pytest.raises(ParseError) as e:
        parse("qubits 2\nh 5")
    assert e.value.line == 2 and e.value.token == "5"
    with pytest.raises(ParseError) as e:
        parse("qubits 2\n  frobnicate 1")
    assert (e.value.line, e.value.column) == (2, 3)
    with pytest.raises(ParseError) as e:
        parse("qubits 100000000\nh 0\n")
    assert (e.value.line, e.value.column, e.value.token) == (1, 8, "100000000")
    with pytest.raises(ParseError) as e:
        parse("qubits 1\nh 0\nmeasure 0 -> 1000000000000\n")
    assert (e.value.line, e.value.column, e.value.token) == (3, 14, "1000000000000")
    with pytest.raises(ParseError) as e:  # an implicit slot past the limit
        parse(f"qubits 1\nmeasure 0 -> {MAX_SLOTS - 1}\nmeasure 0\n")
    assert (e.value.line, e.value.token) == (3, "measure")
    for source, where in (("qubits \uff13\n", (1, 8, "\uff13")), ("qubits 2\nh \u0661\n", (2, 3, "\u0661"))):
        with pytest.raises(ParseError) as e:  # digits outside ASCII are not integers
            parse(source)
        assert (e.value.line, e.value.column, e.value.token) == where
    assert issubclass(ParseError, BladesimError)


def test_circuit_rejects_measurement_outside_its_register():
    # creg defaults to 0, so slot 0 has no register bit to land in
    with pytest.raises(ValueError, match=r"op 1, .*'measure'.*\[0, 0\)"):
        Circuit(1, (GateOp("h", (0,)), GateOp("measure", (0,), 0)))
    assert Circuit(1, (GateOp("h", (0,)), GateOp("measure", (0,), 0)), 1).creg == 1


def test_circuit_rejects_measurement_without_slot():
    with pytest.raises(ValueError, match=r"op 0, .*slot=None"):
        Circuit(1, (GateOp("measure", (0,)),), 1)


def test_circuit_rejects_two_qubit_op_on_one_qubit():
    for kind in TWO_QUBIT_GATES:
        with pytest.raises(ValueError, match=f"op 0, .*'{kind}'.*two distinct qubits"):
            Circuit(2, (GateOp(kind, (1, 1)),))


def _rejected_on_every_backend(ops, match: str):
    # the op never reaches a backend: building the circuit raises
    for backend in BACKENDS:
        with pytest.raises(ValueError, match=match):
            run(Circuit(2, (*ops, GateOp("measure", (1,), 0)), 1), backend)


def test_circuit_rejects_negative_qubit():
    _rejected_on_every_backend([GateOp("h", (-1,))], r"op 0, .*'h'.*qubits must be ints in \[0, 2\)")


def test_circuit_rejects_wrong_arity():
    _rejected_on_every_backend([GateOp("h", (0, 1))], r"op 0, .*'h' takes 1 qubit")
    _rejected_on_every_backend([GateOp("cnot", (0,))], r"op 0, .*'cnot' takes 2 qubit")
    _rejected_on_every_backend([GateOp("measure", (0, 1), 0)], r"op 0, .*'measure' takes 1 qubit")


def test_circuit_rejects_qubit_past_the_register():
    _rejected_on_every_backend([GateOp("h", (2,))], r"op 0, .*'h'.*qubits must be ints in \[0, 2\)")
    _rejected_on_every_backend([GateOp("cz", (0, 2))], r"op 0, .*'cz'.*qubits must be ints in \[0, 2\)")


def test_circuit_rejects_unknown_kind():
    _rejected_on_every_backend([GateOp("t", (0,))], r"op 0, .*'t'.*unknown kind")


def test_valid_corpus_round_trips():
    assert len(VALID_FILES) >= 20
    for source in VALID_FILES:
        c = parse(source)
        again = parse(serialize(c))
        assert again == c, source
        # canonical form is a fixed point
        assert serialize(again) == serialize(c)


def test_invalid_corpus_positions():
    assert len(INVALID_FILES) >= 15
    for source, line in INVALID_FILES:
        with pytest.raises(ParseError) as e:
            parse(source)
        assert e.value.line == line, (source, e.value)
        assert e.value.column >= 1


def test_serialize_canonical_form():
    c = parse("qubits 2\nh 0\nmeasure 0\n")
    assert serialize(c) == "qubits 2\nh 0\nmeasure 0 -> 0\n"
    assert serialize(Circuit(3)) == "qubits 3\n"


def test_crlf_accepted_lf_emitted():
    c = parse("qubits 2\r\nh 0\r\n")
    assert "\r" not in serialize(c)
    assert c.ops == (GateOp("h", (0,)),)


@given(circuits())
def test_round_trip_random_circuits(c):
    assert parse(serialize(c)) == c


def test_random_circuit_reproducible():
    a = random_clifford_circuit(4, 30, seed=9, measure_prob=0.25)
    b = random_clifford_circuit(4, 30, seed=9, measure_prob=0.25)
    assert a == b
    assert all(op.qubits[0] < 4 for op in a.ops)


def test_parse_error_str_is_informative():
    try:
        parse("qubits 2\nh x")
    except ParseError as e:
        text = str(e)
        assert "line 2" in text and "'x'" in text
    else:
        pytest.fail("expected ParseError")
