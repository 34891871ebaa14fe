"""Line-oriented circuit files.

Grammar, one statement per line, '#' starts a comment, tokens separated by
whitespace, keywords lowercase:

    file      := header statement*
    header    := "qubits" INT
    statement := ("h"|"s"|"sdg"|"x"|"y"|"z") INT
               | ("cnot"|"cz"|"swap") INT INT
               | "measure" INT ["->" INT]

Qubit indices are 0-based.  A measurement without "->" takes the next free
classical slot.  A file declares at most MAX_QUBITS qubits and uses classical
slots below MAX_SLOTS.  Files use UTF-8; LF and CRLF are both accepted on
input and LF is emitted.  Only LF ends a line: any other CR is whitespace,
so a file whose lines end in a lone CR is one line and is refused.
Conventional extension: ".qc".

How `parse` reads a line: one precompiled pattern, `_STATEMENT`, accepts a
statement and reads its keyword and numbers in a single match; parse then
checks the numbers against the header's qubit count and the slot limit and
builds the op.  Words are read (`str.split`) only for the header, for blank
and comment lines, and to refuse a line: `_refuse` finds the line's first
fault in the order the grammar reads it, and that fault's column.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import NoReturn

import numpy as np

from .errors import BladesimError

ONE_QUBIT_GATES = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT_GATES = ("cnot", "cz", "swap")
MEASURE = "measure"

# a tableau holds 2n x 2n bits, stored as 2n columns of 2n bits (128 MB once
# they fill in at 2^14 qubits), so memory, not gate time, stops the parser and
# the tableau-gate bench at 2^14 qubits; 2^16 slots allow four measurements
# per qubit there.  A run holds every shot's draws in one array, made 2^20 cells
# at a time, and its records in a (shots, measurements) byte array, written
# out 2^20 bytes of text at a time, so it takes at most 2^20 shots.
MAX_QUBITS = 1 << 14
MAX_SLOTS = 1 << 16
MAX_SHOTS = 1 << 20

_ARITY = {**{g: 1 for g in ONE_QUBIT_GATES}, **{g: 2 for g in TWO_QUBIT_GATES}, MEASURE: 1}

_TOKEN = re.compile(r"\S+")  # the words str.split() finds, with their positions
_MAX_DIGITS = sys.int_info.default_max_str_digits  # words longer than int()'s default limit read as out of range
_BEYOND = 10**5  # the value of every word with more than five significant digits: past every limit (2^16)
# a statement as parse accepts it, in one match; the keywords come from the
# tuples above.  A number is a word of at most _MAX_DIGITS digits whose value
# has at most five (every limit is below 10^5), and its group holds its last
# one to five digits, which carry the whole value.  Any other digit word fails
# the match and is refused on the word path.
_NUMBER = rf"0{{0,{_MAX_DIGITS - 5}}}([0-9]{{1,5}})"
_STATEMENT = re.compile(
    rf"\s*(?:({'|'.join(ONE_QUBIT_GATES)})\s+{_NUMBER}"
    rf"|({'|'.join(TWO_QUBIT_GATES)})\s+{_NUMBER}\s+{_NUMBER}"
    rf"|{MEASURE}\s+{_NUMBER}(?:\s+->\s+{_NUMBER})?)"
    r"\s*(?:#.*)?"
)


class ParseError(BladesimError):
    """Syntax or validity error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        super().__init__(message)
        self.line = line
        self.column = column
        self.message = message
        self.token = token

    def __str__(self) -> str:
        at = f" near {self.token!r}" if self.token else ""
        return f"line {self.line}, column {self.column}: {self.message}{at}"


@dataclass(frozen=True)
class GateOp:
    """One circuit operation; `slot` is the classical target of a measurement."""

    kind: str
    qubits: tuple[int, ...]
    slot: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))

    @property
    def is_measure(self) -> bool:
        return self.kind == MEASURE


def _is_int(value) -> bool:
    """An int and not a bool: `serialize` would write True as 'True', which no parser reads."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Circuit:
    """A parsed circuit: qubit count, operation list, classical slot count."""

    n: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)
    creg: int = 0

    def __post_init__(self):
        for name, value, low, high in (("n", self.n, 1, MAX_QUBITS), ("creg", self.creg, 0, MAX_SLOTS)):
            if not (_is_int(value) and low <= value <= high):
                raise ValueError(f"{name} must be an int in [{low}, {high}], got {value!r}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for i, op in enumerate(self.ops):
            arity = _ARITY.get(op.kind)
            if arity is None:
                raise ValueError(f"op {i}, {op}: unknown kind, expected one of {tuple(_ARITY)}")
            if len(op.qubits) != arity:
                raise ValueError(f"op {i}, {op}: {op.kind!r} takes {arity} qubit(s)")
            if not all(_is_int(q) and 0 <= q < self.n for q in op.qubits):
                raise ValueError(f"op {i}, {op}: qubits must be ints in [0, {self.n})")
            if op.kind == MEASURE:
                if not (_is_int(op.slot) and 0 <= op.slot < self.creg):
                    raise ValueError(f"op {i}, {op}: the slot must be an int in [0, {self.creg})")
            elif arity == 2 and op.qubits[0] == op.qubits[1]:
                raise ValueError(f"op {i}, {op}: a two-qubit op needs two distinct qubits")

    @property
    def measure_count(self) -> int:
        return sum(1 for op in self.ops if op.is_measure)


def _error(lineno: int, body: str, k: int, message: str, after: bool = False) -> NoReturn:
    """Raise a ParseError at word k of the line's `body`, or just past that word when `after`."""
    word = next(islice(_TOKEN.finditer(body), k, None))
    raise ParseError(lineno, (word.end() if after else word.start()) + 1, message, "" if after else word.group())


def _integer(lineno: int, body: str, words: list[str], k: int, what: str) -> int:
    """Word k as an int: ASCII digits only, since int() also takes other scripts' digits.

    int() sees at most five digits, so no digit limit the interpreter is run
    with can refuse a word; a longer value reads as `_BEYOND`.
    """
    word = words[k]
    if not (word.isascii() and word.isdigit()):
        _error(lineno, body, k, f"expected {what}, found a non-integer token")
    if len(word) > _MAX_DIGITS:
        _error(lineno, body, k, f"{what} out of range")
    digits = _value_text(word)
    return int(digits) if len(digits) <= 5 else _BEYOND


def _value_text(word: str) -> str:
    """A digit word's value as text, without int(): the word minus its leading zeros."""
    return word.lstrip("0") or "0"


def _op(kind: str, qubits: tuple[int, ...], slot: int | None) -> GateOp:
    """A GateOp made without GateOp.__init__, for a statement `parse` has checked."""
    op = object.__new__(GateOp)
    fields = op.__dict__  # a frozen dataclass refuses setattr, not writes to its __dict__
    fields["kind"], fields["qubits"], fields["slot"] = kind, qubits, slot
    return op


def _refuse(lineno: int, body: str, words: list[str], n: int, next_slot: int) -> NoReturn:
    """Raise the ParseError for a statement line that `parse` did not accept.

    `words` is the line's `body`, the part before any '#', split into words;
    `n` is 0 before the header.  The checks run in the order the grammar
    reads the line, so the first fault in a line is the one reported.
    """
    head = words[0]
    if not n:
        _error(lineno, body, 0, "first statement must be the 'qubits' header")
    arity = _ARITY.get(head)
    if arity is None:
        _error(lineno, body, 0, f"unknown keyword {head!r}")
    if len(words) <= arity:
        need = "expected qubit index after 'measure'" if head == MEASURE else f"'{head}' needs {arity} qubit index(es)"
        _error(lineno, body, 0, need, after=True)
    # a gate's extra words are refused before its qubits are read, a measurement's '->' part after
    if head != MEASURE and len(words) > arity + 1:
        _error(lineno, body, arity + 1, "unexpected token")
    qubits = []
    for k in range(1, arity + 1):
        q = _integer(lineno, body, words, k, "qubit index")
        if q >= n:
            _error(lineno, body, k, f"qubit index {_value_text(words[k])} out of range for {n} qubit(s)")
        qubits.append(q)
    if head == MEASURE:
        slot, at = next_slot, 0
        if len(words) > 2:
            if words[2] != "->":
                _error(lineno, body, 2, "expected '->' or end of line")
            if len(words) < 4:
                _error(lineno, body, 2, "expected classical slot after '->'", after=True)
            slot, at = _integer(lineno, body, words, 3, "classical slot"), 3
            if len(words) > 4:
                _error(lineno, body, 4, "unexpected token")
        if slot >= MAX_SLOTS:
            _error(lineno, body, at, f"classical slot must be below {MAX_SLOTS}")
    elif arity == 2 and qubits[0] == qubits[1]:
        _error(lineno, body, 2, f"'{head}' needs two distinct qubits")
    raise AssertionError(f"line {lineno}: {body!r} is a valid statement that _STATEMENT did not accept")


def parse(source: str) -> Circuit:
    """Parse circuit text; raises ParseError with the offending position."""
    n = 0  # the qubit count, 0 until the header is read: no statement before it passes q < n
    ops: list[GateOp] = []
    next_slot = 0
    statement = _STATEMENT.fullmatch

    for lineno, line in enumerate(source.split("\n"), start=1):
        if m := statement(line):
            one, a, two, b, c, measured, slot = m.groups()
            if one:
                q = int(a)
                if q < n:
                    ops.append(_op(one, (q,), None))
                    continue
            elif two:
                q, r = int(b), int(c)
                if q < n and r < n and q != r:
                    ops.append(_op(two, (q, r), None))
                    continue
            else:
                q = int(measured)
                s = next_slot if slot is None else int(slot)
                if q < n and s < MAX_SLOTS:
                    ops.append(_op(MEASURE, (q,), s))
                    next_slot = max(next_slot, s + 1)
                    continue
        # a blank or comment line, the header, or a line to refuse
        body = line.split("#", 1)[0]
        words = body.split()
        if not words:
            continue
        if words[0] != "qubits":
            _refuse(lineno, body, words, n, next_slot)
        if n:
            _error(lineno, body, 0, f"duplicate header (first on line {header_line})")
        if len(words) < 2:
            _error(lineno, body, 0, "expected qubit count after 'qubits'", after=True)
        n, header_line = _integer(lineno, body, words, 1, "qubit count"), lineno
        if not 1 <= n <= MAX_QUBITS:
            _error(lineno, body, 1, f"qubit count must be 1..{MAX_QUBITS}")
        if len(words) > 2:
            _error(lineno, body, 2, "unexpected token after header")

    if not n:
        raise ParseError(1, 1, "missing 'qubits' header")
    circuit = object.__new__(Circuit)  # without Circuit.__post_init__: parse has made each of its checks
    circuit.__dict__.update(n=n, ops=tuple(ops), creg=next_slot)
    return circuit


def serialize(c: Circuit) -> str:
    """Canonical text: explicit slots on every measurement, LF line ends."""
    lines = [f"qubits {c.n}"]
    for op in c.ops:
        if op.is_measure:
            lines.append(f"measure {op.qubits[0]} -> {op.slot}")
        else:
            lines.append(op.kind + " " + " ".join(str(q) for q in op.qubits))
    return "\n".join(lines) + "\n"


def random_clifford_circuit(
    n: int,
    depth: int,
    seed,
    gate_kinds=("h", "s", "cnot", "x", "z"),
    measure_prob: float = 0.0,
) -> Circuit:
    """Random circuit over the given gates, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    if unknown := [g for g in gate_kinds if g not in ONE_QUBIT_GATES + TWO_QUBIT_GATES]:
        raise ValueError(f"unknown gate kind {unknown[0]!r}")
    kinds = [g for g in gate_kinds if _ARITY[g] == 1 or n >= 2]
    if not kinds:
        raise ValueError(f"no gate kind in {tuple(gate_kinds)} applies to {n} qubit(s)")
    ops = []
    next_slot = 0
    for _ in range(depth):
        if measure_prob and rng.random() < measure_prob:
            ops.append(GateOp(MEASURE, (int(rng.integers(n)),), next_slot))
            next_slot += 1
            continue
        kind = kinds[int(rng.integers(len(kinds)))]
        if _ARITY[kind] == 2:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(GateOp(kind, (int(a), int(b))))
        else:
            ops.append(GateOp(kind, (int(rng.integers(n)),)))
    return Circuit(n, tuple(ops), next_slot)
