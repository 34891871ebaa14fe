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
input and LF is emitted.  Conventional extension: ".qc".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BladesimError

ONE_QUBIT_GATES = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT_GATES = ("cnot", "cz", "swap")
MEASURE = "measure"

# a tableau holds 2n x 2n bits, stored as 2n columns of 2n bits (128 MB once
# they fill in at 2^14 qubits), so memory, not gate time, stops the parser and
# the tableau-gate bench at 2^14 qubits; 2^16 slots allow four measurements
# per qubit there.  A run holds every shot's draws in one array, made 2^20 cells
# at a time, and a record list per shot, so it takes at most 2^20 shots.
MAX_QUBITS = 1 << 14
MAX_SLOTS = 1 << 16
MAX_SHOTS = 1 << 20

_ARITY = {**{g: 1 for g in ONE_QUBIT_GATES}, **{g: 2 for g in TWO_QUBIT_GATES}, MEASURE: 1}

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[0-9]+\Z")  # ASCII only: \d and int() also take other scripts' digits


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


@dataclass(frozen=True)
class Circuit:
    """A parsed circuit: qubit count, operation list, classical slot count."""

    n: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)
    creg: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for i, op in enumerate(self.ops):
            arity = _ARITY.get(op.kind)
            if arity is None:
                raise ValueError(f"op {i}, {op}: unknown kind, expected one of {tuple(_ARITY)}")
            if len(op.qubits) != arity:
                raise ValueError(f"op {i}, {op}: {op.kind!r} takes {arity} qubit(s)")
            if not all(isinstance(q, int) and 0 <= q < self.n for q in op.qubits):
                raise ValueError(f"op {i}, {op}: qubits must be ints in [0, {self.n})")
            if op.kind == MEASURE:
                if not (isinstance(op.slot, int) and 0 <= op.slot < self.creg):
                    raise ValueError(f"op {i}, {op}: the slot must be an int in [0, {self.creg})")
            elif arity == 2 and op.qubits[0] == op.qubits[1]:
                raise ValueError(f"op {i}, {op}: a two-qubit op needs two distinct qubits")

    @property
    def measure_count(self) -> int:
        return sum(1 for op in self.ops if op.is_measure)


def _tokens(line: str):
    body = line.split("#", 1)[0]
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]


def _int_token(lineno: int, col: int, tok: str, what: str) -> int:
    if not _INT.match(tok):
        raise ParseError(lineno, col, f"expected {what}, found a non-integer token", tok)
    return int(tok)


def parse(source: str) -> Circuit:
    """Parse circuit text; raises ParseError with the offending position."""
    n: int | None = None
    header_line = 0
    ops: list[GateOp] = []
    next_slot = 0

    for lineno, raw in enumerate(source.split("\n"), start=1):
        toks = _tokens(raw.rstrip("\r"))
        if not toks:
            continue
        col0, head = toks[0]

        if head == "qubits":
            if n is not None:
                raise ParseError(lineno, col0, f"duplicate header (first on line {header_line})", head)
            if len(toks) < 2:
                raise ParseError(lineno, col0 + len(head), "expected qubit count after 'qubits'")
            count = _int_token(lineno, toks[1][0], toks[1][1], "qubit count")
            if not 1 <= count <= MAX_QUBITS:
                raise ParseError(lineno, toks[1][0], f"qubit count must be 1..{MAX_QUBITS}", toks[1][1])
            if len(toks) > 2:
                raise ParseError(lineno, toks[2][0], "unexpected token after header", toks[2][1])
            n = count
            header_line = lineno
            continue

        if n is None:
            raise ParseError(lineno, col0, "first statement must be the 'qubits' header", head)

        if head not in _ARITY:
            raise ParseError(lineno, col0, f"unknown keyword {head!r}", head)

        arity = _ARITY[head]
        args = toks[1:]
        if head == MEASURE:
            if not args:
                raise ParseError(lineno, col0 + len(head), "expected qubit index after 'measure'")
            q = _qubit(lineno, args[0], n)
            slot, at = next_slot, toks[0]
            rest = args[1:]
            if rest:
                if rest[0][1] != "->":
                    raise ParseError(lineno, rest[0][0], "expected '->' or end of line", rest[0][1])
                if len(rest) < 2:
                    raise ParseError(lineno, rest[0][0] + 2, "expected classical slot after '->'")
                slot, at = _int_token(lineno, *rest[1], "classical slot"), rest[1]
                if len(rest) > 2:
                    raise ParseError(lineno, rest[2][0], "unexpected token", rest[2][1])
            if slot >= MAX_SLOTS:
                raise ParseError(lineno, at[0], f"classical slot must be below {MAX_SLOTS}", at[1])
            next_slot = max(next_slot, slot + 1)
            ops.append(GateOp(MEASURE, (q,), slot))
            continue

        if len(args) < arity:
            raise ParseError(lineno, col0 + len(head), f"'{head}' needs {arity} qubit index(es)")
        if len(args) > arity:
            raise ParseError(lineno, args[arity][0], "unexpected token", args[arity][1])
        qubits = tuple(_qubit(lineno, a, n) for a in args)
        if arity == 2 and qubits[0] == qubits[1]:
            raise ParseError(lineno, args[1][0], f"'{head}' needs two distinct qubits", args[1][1])
        ops.append(GateOp(head, qubits))

    if n is None:
        raise ParseError(1, 1, "missing 'qubits' header")
    return Circuit(n, tuple(ops), next_slot)


def _qubit(lineno: int, tok: tuple[int, str], n: int) -> int:
    col, text = tok
    q = _int_token(lineno, col, text, "qubit index")
    if q >= n:
        raise ParseError(lineno, col, f"qubit index {q} out of range for {n} qubit(s)", text)
    return q


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
    kinds = [g for g in gate_kinds if _ARITY[g] == 1 or n >= 2]
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
