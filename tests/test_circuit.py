import random
import re

import pytest
from hypothesis import given, strategies as st

from bladesim import BladesimError, Circuit, GateOp, ParseError, parse, random_clifford_circuit, run, serialize
from bladesim.backends import BACKENDS
from bladesim.circuit import _STATEMENT, MAX_QUBITS, MAX_SLOTS, MEASURE, ONE_QUBIT_GATES, TWO_QUBIT_GATES
from corpus import INVALID_FILES, VALID_FILES, circuits
from oracles import reference_parse

# words a mutation inserts: keywords, integers around every limit, digits
# outside ASCII, comments, words of 4300 digits (int()'s default limit) and of
# one more, and the edges of the statement pattern: five and six significant
# digits, leading zeros before a limit, the most leading zeros a number may
# have, and '->' joined to a number
MUTATION_WORDS = (
    "qubits", MEASURE, *ONE_QUBIT_GATES, *TWO_QUBIT_GATES, "->", "-", ">", "t",
    "0", "1", "2", "3", "05", "-1", "+1", "16384", "16385", "65535", "65536",
    "\uff13", "\u0661", "#", "# note", "1#", "->#x",
    "0" * 4299 + "1", "1" * 4301,
    "99999", "100000", "000016384", "0" * 4295 + "1", "->0", "0->",
)
SEPARATORS = (" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2003")


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


@pytest.mark.parametrize(
    "ops, match",
    [
        ([GateOp("h", (False,))], r"op 0, .*'h'.*qubits must be ints in \[0, 2\)"),
        ([GateOp("cnot", (0, True))], r"op 0, .*'cnot'.*qubits must be ints in \[0, 2\)"),
        ([GateOp("measure", (True,), 0)], r"op 0, .*'measure'.*qubits must be ints in \[0, 2\)"),
        ([GateOp("measure", (0,), False)], r"op 0, .*'measure'.*the slot must be an int in \[0, 1\)"),
    ],
    ids=["one-qubit", "two-qubit", "measured-qubit", "slot"],
)
def test_circuit_rejects_bool_qubits_and_slots(ops, match):
    # serialize would write 'h False' or '-> True', which parse refuses
    _rejected_on_every_backend(ops, match)


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


@pytest.mark.parametrize(
    "n, kinds, message",
    [
        (2, ("h", "t"), "unknown gate kind 't'"),
        (2, ("measure",), "unknown gate kind 'measure'"),
        (2, (), "no gate kind"),
        (1, ("cnot", "swap"), "no gate kind"),
    ],
)
def test_random_circuit_refuses_gate_kinds_it_cannot_draw(n, kinds, message):
    with pytest.raises(ValueError, match=message):
        random_clifford_circuit(n, 10, seed=0, gate_kinds=kinds)


def test_parse_error_str_is_informative():
    try:
        parse("qubits 2\nh x")
    except ParseError as e:
        text = str(e)
        assert "line 2" in text and "'x'" in text
    else:
        pytest.fail("expected ParseError")


def _outcome(parser, source: str):
    try:
        return ("Circuit", parser(source))
    except ParseError as err:
        return ("ParseError", err.line, err.column, err.message, err.token)
    except ValueError as err:
        return ("ValueError", str(err))


def assert_parses_like_reference(source: str) -> None:
    """Equal circuits, or equal refusals: (line, column, message, token).

    parse builds its ops and circuit without their __init__ checks, so an
    accepted circuit must equal the one those checks build from its fields,
    and it must have come from one accepting path: one statement pattern
    match per op, none from the word path.
    """
    got, want = _outcome(parse, source), _outcome(reference_parse, source)
    if want[0] == "ValueError":  # the reference's int() past its digit limit
        assert "Exceeds the limit" in want[1], source
        assert got[0] == "ParseError" and got[3].endswith("out of range") and len(got[4]) > 4300, got[:4]
        return
    assert got == want, (source, got, want)
    if got[0] == "Circuit":
        c = got[1]
        checked = Circuit(c.n, c.ops, c.creg)
        assert c == checked and hash(c) == hash(checked), source
        for op in c.ops:
            built = GateOp(op.kind, op.qubits, op.slot)
            assert op == built and hash(op) == hash(built) and type(op.qubits) is tuple, (source, op)
        assert sum(1 for line in source.split("\n") if _STATEMENT.fullmatch(line)) == len(c.ops), source


def _mutate(rng: random.Random, source: str) -> str:
    """Delete, duplicate, insert or replace a few words, rejoined by assorted whitespace."""
    lines = source.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        words = lines[i].split()
        j = rng.randrange(len(words) + 1)
        action = rng.choice(("delete", "duplicate", "insert", "replace"))
        if action == "insert" or j == len(words):
            words.insert(j, rng.choice(MUTATION_WORDS))
        elif action == "delete":
            del words[j]
        elif action == "duplicate":
            words.insert(j, words[j])
        else:
            words[j] = rng.choice(MUTATION_WORDS)
        lines[i] = rng.choice(("", *SEPARATORS)) + "".join(w + rng.choice(SEPARATORS) for w in words)
    return "\n".join(lines)


def test_split_and_the_column_finder_see_the_same_words():
    # parse splits lines with str.split(); a refusal finds its column with the \S+ regex
    text = "x".join(map(chr, range(0x110000)))
    assert text.split() == re.findall(r"\S+", text)


def test_parse_matches_reference_on_the_corpus():
    for source in [*VALID_FILES, *(source for source, _ in INVALID_FILES)]:
        assert_parses_like_reference(source)


@given(circuits(), st.integers(0, 2**32))
def test_parse_matches_reference_on_random_circuits(c, seed):
    assert_parses_like_reference(serialize(c))
    assert_parses_like_reference(_mutate(random.Random(seed), serialize(c)))


def test_parse_matches_reference_on_mutated_lines():
    rng = random.Random(15)
    sources = [*VALID_FILES, *(source for source, _ in INVALID_FILES)]
    sources += [serialize(random_clifford_circuit(4, 12, seed, ONE_QUBIT_GATES + TWO_QUBIT_GATES, 0.3)) for seed in range(40)]
    sources += [  # slots at and past the limit, explicit and implicit
        f"qubits {MAX_QUBITS}\nmeasure 0 -> {MAX_SLOTS - 2}\nmeasure 1\nmeasure 2 -> {MAX_SLOTS - 1}\n",
        f"qubits 2\nh 0\nmeasure 0 -> {MAX_SLOTS - 1}\nmeasure 1\n",
        f"qubits 2\nh 0\nmeasure 1 -> {MAX_SLOTS}\n",
    ] * 10
    for _ in range(3000):
        assert_parses_like_reference(_mutate(rng, rng.choice(sources)))


@pytest.mark.parametrize(
    "source, where",
    [
        ("qubits " + "1" * 5000 + "\n", (1, 8, "qubit count out of range")),
        ("qubits 2\nh 0\ncnot 1 " + "0" * 4301 + "\n", (3, 8, "qubit index out of range")),
        ("qubits 1\nmeasure 0 -> " + "7" * 4301 + " extra\n", (2, 14, "classical slot out of range")),
    ],
    ids=["count", "qubit", "slot"],
)
def test_over_long_integers_are_positioned_parse_errors(source, where):
    with pytest.raises(ParseError) as e:
        parse(source)
    assert (e.value.line, e.value.column, e.value.message) == where
    assert len(e.value.token) > 4300


@pytest.mark.parametrize(
    "source, where",
    [
        ("qubits " + "1" * 2000 + "\n", (1, 8, f"qubit count must be 1..{MAX_QUBITS}")),
        (
            "qubits 2\nh 0\ncnot 1 " + "0" * 900 + "3" * 2000 + "\n",
            (3, 8, f"qubit index {'3' * 2000} out of range for 2 qubit(s)"),
        ),
        ("qubits 1\nmeasure 0 -> " + "7" * 2000 + "\n", (2, 14, f"classical slot must be below {MAX_SLOTS}")),
    ],
    ids=["count", "qubit", "slot"],
)
def test_integers_past_a_lowered_digit_limit_keep_their_messages(source, where, int_digit_limit_1000):
    # int() would refuse these words; parse reads them as it does under the default limit
    with pytest.raises(ParseError) as e:
        parse(source)
    assert (e.value.line, e.value.column, e.value.message) == where
    assert parse("qubits " + "0" * 2000 + "2\nmeasure " + "0" * 2000 + "1 -> " + "0" * 2000 + "4\n") == parse(
        "qubits 2\nmeasure 1 -> 4\n"
    )


def test_a_word_of_4300_digits_still_reads_as_its_value():
    # 4300 digits is int()'s default limit
    assert parse("qubits " + "0" * 4299 + "2\nh " + "0" * 4299 + "1\n") == parse("qubits 2\nh 1\n")


@pytest.mark.parametrize(
    "n, creg, field",
    [
        (0, 0, "n"),
        (-3, 0, "n"),
        (MAX_QUBITS + 1, 0, "n"),
        (2.0, 0, "n"),
        ("2", 0, "n"),
        (None, 0, "n"),
        (1, -1, "creg"),
        (1, MAX_SLOTS + 1, "creg"),
        (1, 2**40, "creg"),
        (1, 1.0, "creg"),
        (True, 0, "n"),
        (1, True, "creg"),
        (1, False, "creg"),
    ],
)
def test_circuit_refuses_n_and_creg_past_the_parser_limits(n, creg, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int in "):
        Circuit(n, (), creg)


def test_circuit_takes_n_and_creg_at_the_parser_limits():
    assert Circuit(MAX_QUBITS).n == MAX_QUBITS
    assert Circuit(1, (GateOp("measure", (0,), MAX_SLOTS - 1),), MAX_SLOTS).creg == MAX_SLOTS
    for backend in BACKENDS:  # a zero-qubit circuit reaches no backend
        with pytest.raises(ValueError, match="^n must be"):
            run(Circuit(0), backend, shots=2)
