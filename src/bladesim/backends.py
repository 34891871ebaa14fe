"""Circuit execution on three backends, plus cross-validation between them.

Backends:
  * "stabilizer":     tableau engine, scales to thousands of qubits.
  * "dense-clifford": the state lives in the algebra's left ideal, carried as
                      its 2**n complex coordinates along B_b and B_b * J;
                      a gate's blade words act on them as signed permutations
                      and a measurement as the outcome projector
                      (1 -+ e1_q)/2; capped where statevector is.
  * "statevector":    plain Hilbert-space simulation; capped at a desk scale.

Every shot draws from its own (seed, shot) stream, the raw PCG64 outputs of
default_rng([seed, shot]), bit for bit.  `_shot_words` computes them with no
numpy.random object.  Above `_PER_SHOT_MAX` shots it takes one array pass for
every shot: numpy's SeedSequence hash on uint32 arrays, then PCG64's LCG jumped
ahead to each output.  A few shots are cheaper one at a time on Python ints
(`_per_shot_words`), the same hash steps and LCG stepped once per output.  A
stabilizer draw is the top bit of a 32-bit half word, a dense `random()` its
top 53 bits.

The dense backends and `born_distribution` share one depth-first walk over
measurement outcomes, `_walk`, given a start state, a gate `step` and a
`project`.  Acting with g on a state prepared by h is preparing with g h, so
each distinct (op, outcome prefix) state is evolved once.  The stabilizer
backend walks the circuit once for all shots (`_pass`): every random outcome
stays a variable and each recorded outcome is a parity of the shot's draws;
`_sample` then only draws the bits and evaluates the parities.  `validate`
checks the records of that pass and sample: it walks the circuit once with
all three in lockstep, and at each measurement the tableau and both dense
backends take the outcome recorded for shot 0.  It steps and measures the
dense states only through the engines `_dense_backend` gives `_walk`, so it
checks the wiring that `run` executes.  Up to the dense-oracle cap it also
steps the 4**n element of the ideal, a `DenseMultivector`, through the
operator pairs, the oracle that the coordinates must match.  Both dense
engines measure with the projector (1 - e1_q)/2 in one place, `_projection`.
"""

from __future__ import annotations

import math
import operator
import time
from collections import Counter
from itertools import permutations

import numpy as np

from . import statevector as sv
from .circuit import MAX_SHOTS, MEASURE, Circuit
from .dense import ORACLE_CAP, check_cap
from .errors import BladesimError, TableauInvariantError
from .gates import gate_to_operator_pair, gate_words, projector_words, qubit_projector
from .ideal import OperatorPair, act, apply, to_statevector, vacuum, word_action
from .tableau import Tableau, _indices, _pack, _unpack

BACKENDS = ("stabilizer", "dense-clifford", "statevector")

EXACT_TOL = 1e-8
STAT_TOL = 0.02
BORN_ENUMERATION_LIMIT = 16
BRANCH_EPS = 1e-12  # Born branches at or below this probability are dropped


# numpy's SeedSequence: a pool of four 32-bit words, a hashmix whose constant
# steps by a fixed multiplier at every call, and a mix of two words
_POOL = 4
_MULT_A = 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_LCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# runs of at most this many shots take the per-shot path (README, "Performance notes")
_PER_SHOT_MAX = 3


def _hash_steps(h: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor word, multiplier) pairs of `count` hashmix calls from constant h."""
    consts = [h]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return list(zip(consts, consts[1:]))


def _columns(steps: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Hash steps as an xor and a multiplier uint32 column, one row per step."""
    return tuple(np.array(steps, dtype=np.uint32).T[..., None])


def _spread(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The steps that mix pool word s into each other word, one row per pool word.

    numpy takes steps 4 + 3s, 4 + 3s + 1 and 4 + 3s + 2 for the other words
    in order; row s gets step 0, and its result is thrown away.
    """
    return _columns([_MIX_STEPS[4 + 3 * s + d - (d > s) if d != s else 0] for d in range(_POOL)])


# the entropy hash's first 16 steps fill the pool and mix each word into the
# other three; the output hash's 8 steps give PCG64's four 64-bit seed words,
# step 4j + k reading pool word k
_MIX_STEPS = _hash_steps(0x43B0D7E5, _MULT_A, _POOL * _POOL)
_OUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_FILL = _columns(_MIX_STEPS[:_POOL])
_SPREADS = [_spread(s) for s in range(_POOL)]
_OUT = tuple(c.reshape(2, _POOL, 1) for c in _columns(_OUT_STEPS))


def _hashmix(value, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_words(seed: int) -> list[int]:
    """A seed's 32-bit words, lowest first, as SeedSequence reads an int."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def _pcg64_words(seed: int, shots: np.ndarray) -> np.ndarray:
    """(len(shots), 4) uint64: the words SeedSequence([seed, shot]) gives PCG64, a row per shot index.

    Each shot index must be below 2^32, one entropy word.  The hash runs for
    all shots at once, one array row per pool word and one column per shot;
    uint32 arithmetic wraps as numpy's own does.  Entropy words past the pool
    are mixed into every pool word at the end.
    """
    entropy = [*_seed_words(seed), np.asarray(shots, dtype=np.uint32)]
    pool = np.zeros((_POOL, len(entropy[-1])), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool = _hashmix(pool, *_FILL)
    for s, steps in enumerate(_SPREADS):
        mixed = _mix(pool, _hashmix(pool[s], *steps))
        mixed[s] = pool[s]
        pool = mixed
    extra = entropy[_POOL:]
    if extra:
        xor, mul = _columns(_hash_steps(_MIX_STEPS[-1][1], _MULT_A, _POOL * len(extra)))
        for i, word in enumerate(extra):
            at = slice(_POOL * i, _POOL * (i + 1))
            pool = _mix(pool, _hashmix(word, xor[at], mul[at]))
    out = _hashmix(pool, *_OUT).reshape(2 * _POOL, -1)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _mul128(a: tuple, b: tuple) -> tuple:
    """a * b mod 2^128 on (high, low) uint64 limbs; the low limbs' high product comes from 32-bit halves."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> 32, al & 0xFFFFFFFF, bl >> 32, bl & 0xFFFFFFFF
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + al * bh + ah * bl, al * bl


def _add128(a: tuple, b: tuple) -> tuple:
    """a + b mod 2^128 on (high, low) uint64 limbs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _shot_words(seed: int, shots: int, count: int) -> np.ndarray:
    """(shots, count) uint64: row s holds the first `count` raw outputs of default_rng([seed, s]).

    PCG64 (O'Neill 2014) steps a 128-bit LCG, state -> mult * state + inc,
    and outputs each new state through XSL-RR.  numpy seeds it from
    `_pcg64_words` with two steps from inc + initstate, so output k is that
    sum jumped j = k + 2 steps (Brown 1994): mult^j * sum + (1 + ... +
    mult^(j-1)) * inc, one array expression on uint64 limbs for every (shot,
    output) cell, MAX_SHOTS cells at a time.  The jumps' two factors are one
    byte table of little-endian 128-bit words, read back as those limbs.
    Nothing to draw hashes nothing.
    The cells are computed as (count, shots) arrays, so each numpy loop runs
    along the shots, and returned transposed.  This array pass has a fixed
    cost of about 0.1 ms, more than a few shots' words cost on Python ints,
    so runs of at most `_PER_SHOT_MAX` shots take `_per_shot_words` instead.
    """
    out = np.empty((count, shots), dtype=np.uint64)
    if not count:
        return out.T
    if shots <= _PER_SHOT_MAX:
        return _per_shot_words(seed, shots, count)
    a, c, table = _LCG_MULT, 1, bytearray()  # one step: a = mult, c = 1
    for _ in range(count):
        a, c = a * _LCG_MULT & _MASK128, (c * _LCG_MULT + 1) & _MASK128
        table += a.to_bytes(16, "little") + c.to_bytes(16, "little")
    a_lo, a_hi, c_lo, c_hi = np.frombuffer(table, dtype="<u8").reshape(count, 4).T[..., None]
    chunk = max(1, MAX_SHOTS // count)
    for first in range(0, shots, chunk):
        w0, w1, w2, w3 = _pcg64_words(seed, np.arange(first, min(first + chunk, shots))).T
        inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
        start = _add128(inc, (w0, w1))
        del w0, w1, w2, w3  # free the hash's words before the wider products
        high, low = _add128(_mul128(start, (a_hi, a_lo)), _mul128(inc, (c_hi, c_lo)))
        value, rot = high ^ low, high >> 58
        out[:, first : first + chunk] = value >> rot | value << (64 - rot & 63)
    return out.T


def _per_shot_words(seed: int, shots: int, count: int) -> np.ndarray:
    """`_shot_words` one shot at a time on Python ints, for a few shots.

    A transliteration of numpy's SeedSequence (`mix_entropy`, then
    `generate_state`) on the array pass's own hash steps, then of PCG64's two
    seeding steps and its XSL-RR output, one LCG step per output.
    """
    mix_l, mix_r = int(_MIX_L), int(_MIX_R)

    def hashmix(value: int, step: tuple[int, int]) -> int:
        value = (value ^ step[0]) * step[1] & 0xFFFFFFFF
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = mix_l * x - mix_r * y & 0xFFFFFFFF
        return r ^ r >> 16

    seed_words, rows = _seed_words(seed), []
    # entropy words past the pool take 4 more steps each
    steps = _MIX_STEPS + _hash_steps(_MIX_STEPS[-1][1], _MULT_A, _POOL * (len(seed_words) + 1 - _POOL))
    for shot in range(shots):
        entropy, step = [*seed_words, shot], iter(steps)
        pool = [hashmix(word, next(step)) for word in (entropy + [0] * _POOL)[:_POOL]]
        for s, d in permutations(range(_POOL), 2):  # word s into each other word d
            pool[d] = mix(pool[d], hashmix(pool[s], next(step)))
        for word in entropy[_POOL:]:
            pool = [mix(p, hashmix(word, next(step))) for p in pool]
        out = [hashmix(pool[i % _POOL], s) for i, s in enumerate(_OUT_STEPS)]
        w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 2 * _POOL, 2))
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        state = ((w0 << 64 | w1) + inc) * _LCG_MULT + inc
        row = []
        for _ in range(count):
            state = (state * _LCG_MULT + inc) & _MASK128
            value, rot = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF, state >> 122
            row.append((value >> rot | value << (64 - rot)) & 0xFFFFFFFFFFFFFFFF)
        rows.append(row)
    return np.array(rows, dtype=np.uint64)


def _check_args(shots: int, seed: int) -> tuple[int, int]:
    """`shots` and `seed` as Python ints; shots must lie in [1, MAX_SHOTS] and seed be non-negative."""
    try:
        shots = operator.index(shots)
    except TypeError:
        raise ValueError(f"shots must be an integer, got {shots!r}") from None
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise BladesimError(f"shots must be at most {MAX_SHOTS} (2^20), got {shots}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return shots, seed


def statevector_pairs(v: np.ndarray) -> list[list[float]]:
    """State vector as JSON-ready [re, im] pairs."""
    v = np.asarray(v, dtype=complex).ravel()
    return np.stack((v.real, v.imag), -1).tolist()


def matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Complex matrix as row-major [re, im] pairs."""
    return [statevector_pairs(row) for row in np.asarray(m)]


CODE_BITS = 64  # columns read as one uint64 code; wider rows take the byte-row Counter


def _codes(records: np.ndarray, columns) -> np.ndarray:
    """One uint64 per row of the records: its bits in `columns`, at most CODE_BITS of them, the first the top bit.

    Codes therefore sort as the rows' bit strings do; `_code_rows` reads them back.
    """
    codes = np.zeros(len(records), dtype=np.uint64)
    for bit, m in zip(range(CODE_BITS - 1, -1, -1), columns):
        column = records[:, m].astype(np.uint64)
        column <<= np.uint64(bit)
        codes |= column
    return codes


def _code_rows(codes: np.ndarray, width: int) -> np.ndarray:
    """(len(codes), width) uint8: the bits `_codes` read into the codes, first column first."""
    return np.unpackbits(codes.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1, count=width)


def _distinct(records: np.ndarray, columns) -> tuple[np.ndarray, list[int]]:
    """The distinct rows of `records[:, columns]` as a (k, len(columns)) uint8 array, and each row's shots.

    Up to CODE_BITS columns each row is one uint64 code (`_codes`) and one
    `np.unique` counts the codes: the rows come in increasing bit-string
    order.  Wider rows are copied out MAX_SHOTS cells at a time as
    C-contiguous byte rows, and one `Counter` counts their void views: the
    rows come in order of first appearance.
    """
    columns = list(columns)
    width = len(columns)
    if width <= CODE_BITS:
        codes, counts = np.unique(_codes(records, columns), return_counts=True)
        return _code_rows(codes, width), counts.tolist()
    tally = Counter()
    chunk = max(1, MAX_SHOTS // width)
    for first in range(0, len(records), chunk):
        rows = np.ascontiguousarray(records[first : first + chunk, columns])
        tally.update(rows.view(f"V{width}").ravel().tolist())
    return np.frombuffer(b"".join(tally), dtype=np.uint8).reshape(-1, width), list(tally.values())


def _counts(circuit: Circuit, records: np.ndarray) -> dict[str, int]:
    """Shots per classical-register string, slot 0 leftmost, from the (shots, measurements) records.

    A slot shows the last measurement that writes it, "0" if none does.
    `_distinct` counts the rows of those last writers, in slot order, so up
    to CODE_BITS written slots the counts come in register order and past
    that in order of first appearance.  A register is built only for each
    distinct row: one `take` gathers it from the row's digits and a trailing
    "0", MAX_SHOTS cells at a time.
    """
    creg = circuit.creg
    if not creg:
        return {"": len(records)}
    writes = (op.slot for op in circuit.ops if op.kind == MEASURE)
    last = {slot: m for m, slot in enumerate(writes)}  # a later write replaces an earlier one
    slots = sorted(last)
    rows, tallies = _distinct(records, [last[slot] for slot in slots])
    source = np.full(creg, len(slots))  # an unwritten slot reads the trailing "0"
    source[slots] = np.arange(len(slots))
    chunk = max(1, MAX_SHOTS // creg)
    keys = []
    for first in range(0, len(rows), chunk):
        part = rows[first : first + chunk]
        digits = np.full((len(part), len(slots) + 1), ord("0"), dtype=np.uint8)
        np.add(part, ord("0"), out=digits[:, :-1])
        keys += digits.take(source, axis=1).view(f"S{creg}").ravel().tolist()
    return {key.decode(): count for key, count in zip(keys, tallies)}


def _tally(records: np.ndarray) -> dict[tuple, int]:
    """{record: shots} over the (shots, measurements) records, in no promised order, counted by `_distinct`.

    A record is a tuple of Python ints, as the report prints it.
    """
    rows, counts = _distinct(records, range(records.shape[1]))
    return {tuple(row): count for row, count in zip(rows.tolist(), counts)}


def _walk(circuit: Circuit, state, step, project, split, weight):
    """Yield (record, weight, state) at every leaf of the tree of measurement outcomes.

    `step(state, op)` is the state after a gate, `project(state, q)` is (p1, a
    map from outcome to collapsed state), and `split(weight, p1, m)` gives
    measurement m's (outcome, weight) branches.  The stack is explicit.
    """
    ops, record = circuit.ops, []
    stack = [(0, 0, (), state, weight)]
    while stack:
        i, m, tail, state, weight = stack.pop()
        record[m:] = tail  # the parent's outcomes record[:m], then this branch's
        while i < len(ops) and not ops[i].is_measure:
            state = step(state, ops[i])
            i += 1
        if i == len(ops):
            yield tuple(record), weight, state
            continue
        p1, collapse = project(state, ops[i].qubits[0])
        for outcome, part in split(weight, p1, len(record)):
            stack.append((i + 1, len(record), (outcome,), collapse(outcome), part))


def _per_op(circuit: Circuit, build) -> dict:
    """{(kind, qubits): build(op)} over the circuit's distinct ops, each built once."""
    return {key: build(op) for key, op in {(op.kind, op.qubits): op for op in circuit.ops}.items()}


def _dense_backend(circuit: Circuit, backend: str) -> tuple:
    """(start state, step, project) of a dense backend, as `_walk` takes them.

    A dense-clifford state is its ideal coordinates, starting from the
    vacuum's, |0...0>; each distinct op's word action is built once, a
    measurement's from the projector (1 - e1_q)/2.
    """
    n = circuit.n
    if backend == "statevector":
        project = lambda v, q: (sv.born_p1(v, q, n), lambda outcome: sv.collapse(v, q, n, outcome))  # noqa: E731
        return sv.zero_state(n), lambda v, op: sv.apply_gate(v, op, n), project
    check_cap(n, "dense-clifford backend", sv.STATEVECTOR_CAP)
    words = lambda op: (projector_words(n, op.qubits[0], 1), ()) if op.is_measure else gate_words(op, n)  # noqa: E731
    actions = _per_op(circuit, lambda op: word_action(n, *words(op)))
    step = lambda v, op: act(actions[(op.kind, op.qubits)], v)  # noqa: E731
    project = lambda v, q: _projection(v, act(actions[(MEASURE, (q,))], v), _norm2)  # noqa: E731
    return sv.zero_state(n), step, project


def _element_backend(circuit: Circuit) -> tuple:
    """(start state, step, project) on 4**n-coefficient elements of the ideal, the dense oracle.

    The state is the element itself, from the vacuum.  Each distinct op's
    operator pair is built once; a measurement's is (1 - e1_q)/2.
    """
    n = circuit.n

    def pair(op) -> OperatorPair:
        if op.is_measure:
            return OperatorPair.real(qubit_projector(n, op.qubits[0], 1))
        return gate_to_operator_pair(op, n)

    pairs = _per_op(circuit, pair)
    norm2 = lambda s: 2**n * float(s.c @ s.c)  # noqa: E731
    step = lambda s, op: apply(pairs[(op.kind, op.qubits)], s)  # noqa: E731
    project = lambda s, q: _projection(s, apply(pairs[(MEASURE, (q,))], s), norm2)  # noqa: E731
    return vacuum(n), step, project


def _pass(circuit: Circuit) -> tuple[Tableau, list[tuple[int, int]], int]:
    """The symbolic tableau pass: the final tableau, each measurement's (constant, mask) outcome, and `draws`.

    Whether a measurement is random depends only on the tableau's x/z bits,
    so every shot draws at the same measurements.  The pass leaves random
    outcome r as variable r, one of `draws`; a shot's outcome is the
    constant XOR the parity of its drawn bits under the mask.
    """
    t = Tableau(circuit.n)
    outcomes = []
    draws = 0  # random outcomes so far, the index of the next variable
    for op in circuit.ops:
        if op.is_measure:
            const, mask, deterministic = t.measure(op.qubits[0], lambda: (0, 1 << draws))
            outcomes.append((const, mask))
            draws += not deterministic
        else:
            t.apply_gate(op)
    return t, outcomes, draws


def _sample(outcomes: list[tuple[int, int]], draws: int, shots: int, seed: int) -> tuple[np.ndarray, int]:
    """Records, a (shots, len(outcomes)) 0/1 uint8 array, and the last shot's draws as one int, bit r for draw r.

    Each shot draws its bits from its (seed, shot) stream; every outcome is
    evaluated for all shots at once, one outcome at a time.
    """
    # draw r is integers(0, 2) on the stream's r-th 32-bit word, the low half
    # of each output first: the word's top bit; bits[r, s] is shot s's draw r
    words = _shot_words(seed, shots, (draws + 1) // 2).T[:, None]
    bits = (words >> np.uint64([[31], [63]]) & 1).astype(np.uint8).reshape(-1, shots)[:draws]
    # each draw's row as one int, bit s for shot s (`_pack`): an outcome's row
    # is its constant XOR the rows its mask selects, 64 shots to a machine word
    drawn = _pack(bits)
    rows = []
    for const, mask in outcomes:
        row = ((1 << shots) - 1) * const
        for r in _indices(mask):
            row ^= drawn[r]
        rows.append(row)
    return _unpack(rows, 0, shots), _pack(bits[:, -1:].T)[0]


def _norm2(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _projection(v, one, norm2) -> tuple:
    """Measure the state v with P1 = (1 - e1_q)/2, given `one` = P1 v: p1 = norm2(one) / norm2(v).

    Each dense engine passes its squared norm: the complex norm on
    coordinates, 2**n times the coefficient norm on the 4**n element.  The
    collapse keeps `one` for outcome 1 and v - one for outcome 0, scaled to
    unit norm; a zero part has no outcome to collapse onto.
    """
    p1 = norm2(one) / norm2(v)

    def collapse(outcome: int):
        part = one if outcome else v - one
        part_norm2 = norm2(part)
        if part_norm2 == 0.0:
            raise ValueError(f"outcome {outcome} has zero norm")
        return part * (1.0 / math.sqrt(part_norm2))

    return p1, collapse


def run(circuit: Circuit, backend: str = "stabilizer", shots: int = 1, seed: int = 0) -> dict:
    """Execute a circuit and return its report, a dict that `cli.report_text` writes as JSON.

    "records" is the sampler's read-only (shots, measurements) uint8 array
    of 0s and 1s, and a stabilizer run's final "stabilizers" the tableau's
    read-only bytes array of lines (`Tableau.stabilizer_lines`); every other
    value is JSON-ready.  The report is identical for identical (circuit,
    backend, shots, seed) except for the "timing" section.
    """
    shots, seed = _check_args(shots, seed)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    t0 = time.perf_counter()
    if backend == "stabilizer":
        t, outcomes, draws = _pass(circuit)
        records, last = _sample(outcomes, draws, shots, seed)
        final = {"stabilizers": t.assign(last).stabilizer_lines()}
    else:
        # shot s takes outcome 1 at measurement m when u[s, m], its m-th random(), is below p1
        u = (_shot_words(seed, shots, circuit.measure_count) >> 11) * 2.0**-53

        def split(idx, p1, m):
            one = u[idx, m] < p1
            return [(outcome, part) for outcome, part in ((0, idx[~one]), (1, idx[one])) if part.size]

        records = np.empty(u.shape, dtype=np.uint8)
        for record, idx, state in _walk(circuit, *_dense_backend(circuit, backend), split, np.arange(shots)):
            records[idx] = record
            if idx[-1] == shots - 1:  # the last shot's state is the report's
                final = {"statevector": statevector_pairs(state)}
    records.flags.writeable = False
    elapsed = time.perf_counter() - t0
    return {
        "backend": backend,
        "n": circuit.n,
        "creg": circuit.creg,
        "shots": shots,
        "seed": seed,
        "records": records,
        "counts": _counts(circuit, records),
        "final": final,
        "timing": {"total_s": elapsed, "per_shot_s": elapsed / shots},
    }


def born_distribution(circuit: Circuit) -> dict:
    """Exact outcome-record distribution by branching the state vector.

    Returns {record tuple: probability}.  Branches at or below BRANCH_EPS
    are dropped, so the cost doubles per random outcome; the cap still counts
    measurements: circuits with more than BORN_ENUMERATION_LIMIT of them are
    rejected.
    """
    if circuit.measure_count > BORN_ENUMERATION_LIMIT:
        raise ValueError(f"cannot enumerate more than {BORN_ENUMERATION_LIMIT} measurements")

    def split(prob, p1, m):
        return [(outcome, prob * p) for outcome, p in ((0, 1.0 - p1), (1, p1)) if p > BRANCH_EPS]

    walk = _walk(circuit, *_dense_backend(circuit, "statevector"), split, 1.0)
    return {record: prob for record, prob, _ in walk}


def validate(circuit: Circuit, shots: int = 10_000, seed: int = 0) -> dict:
    """Cross-check the three backends on one circuit and on its stabilizer records, `run`'s pass and sample.

    Exact checks, on one lockstep walk that takes each outcome from the
    records' shot 0: after every op the tableau invariants hold and the
    algebra-resident state's coordinates equal the state vector (and, up to
    ORACLE_CAP qubits, the 4**n element stepped by the operator pairs equals
    the coordinates); before each measurement and after the last op every
    stabilizer row, applied as a Pauli word, fixes the state vector; each
    recorded outcome has Born probability 1 where the tableau calls it
    deterministic, else 1/2.  A failing detail names the first op that
    failed; a NaN deviation fails.  The walk stops at an outcome the state
    vector gives probability at most BRANCH_EPS, and at a dense collapse
    onto a zero-norm part, which fails the dense check.  Statistical check:
    the records' outcome frequencies against the exact Born distribution,
    within 0.02 at 10^4 shots, widening as four binomial sigmas below that;
    a record of Born probability 0 fails it, and the detail names the
    smallest such record.  One report entry per check.
    """
    shots, seed = _check_args(shots, seed)
    check_cap(circuit.n, "validation", sv.STATEVECTOR_CAP)
    stat_tol = max(STAT_TOL, 4.0 * math.sqrt(0.25 / shots))
    n = circuit.n
    ops = circuit.ops
    records = _sample(*_pass(circuit)[1:], shots, seed)[0]
    shot0 = iter(records[0].tolist())  # shot 0's outcomes, as Python ints
    t = Tableau(n)
    psi, sv_step, sv_project = _dense_backend(circuit, "statevector")
    coords, dense_step, dense_project = _dense_backend(circuit, "dense-clifford")
    element, element_step, element_project = _element_backend(circuit) if n <= ORACLE_CAP else (None,) * 3
    first: dict[str, str] = {}  # check name -> its first failure, naming the op
    rows_dev = dense_dev = 0.0

    def deviation(name: str, where: str, dev: float) -> float:
        if not dev <= EXACT_TOL:
            first.setdefault(name, f"{where}: deviation {dev:.3e}")
        return dev

    def rows_fix(where: str) -> float:
        dev = float(np.max([np.max(np.abs(sv.apply_pauli(psi, row) - psi)) for row in t.stabilizers]))
        return deviation("stabilizer_rows_fix_oracle_state", where, dev)

    for i, op in enumerate(ops):
        where = f"op {i} ({op.kind} {' '.join(map(str, op.qubits))})"
        try:
            if op.is_measure:
                q = op.qubits[0]
                rows_dev = max(rows_dev, rows_fix(where))
                outcome = next(shot0)
                _, _, deterministic = t.measure(q, lambda: (outcome, 0))
                p1, sv_collapse = sv_project(psi, q)
                p = p1 if outcome else 1.0 - p1
                deviation("stabilizer_rows_fix_oracle_state", where, abs(p - (1.0 if deterministic else 0.5)))
                if p <= BRANCH_EPS:
                    break  # no branch to collapse onto
                psi = sv_collapse(outcome)
                try:
                    coords = dense_project(coords, q)[1](outcome)
                    if element is not None:
                        element = element_project(element, q)[1](outcome)
                except ValueError as err:  # a dense state with no part on the recorded outcome
                    first.setdefault("dense_clifford_matches_statevector", f"{where}: {err}")
                    break
            else:
                t.apply_gate(op)
                psi = sv_step(psi, op)
                coords = dense_step(coords, op)
                if element is not None:
                    element = element_step(element, op)
            t.check_invariants()
        except TableauInvariantError as err:
            first.setdefault("tableau_invariants", f"{where}: {err}")
            break
        devs = [np.max(np.abs(coords - psi))]
        if element is not None:
            devs.append(np.max(np.abs(to_statevector(element) - coords)))
        dense_dev = max(dense_dev, deviation("dense_clifford_matches_statevector", where, float(np.max(devs))))
    else:
        if ops:
            rows_dev = max(rows_dev, rows_fix(where))

    passing = {
        "tableau_invariants": "ok",
        "stabilizer_rows_fix_oracle_state": f"max |rho(s) psi - psi| = {rows_dev:.3e}",
        "dense_clifford_matches_statevector": f"max deviation = {dense_dev:.3e}",
    }
    checks = [{"name": k, "passed": k not in first, "detail": first.get(k, v)} for k, v in passing.items()]

    # empirical stabilizer statistics against the exact distribution (or an
    # empirical state-vector reference when there are too many measurements
    # to enumerate every branch)
    if circuit.measure_count:
        counts = _tally(records)
        enumerable = circuit.measure_count <= BORN_ENUMERATION_LIMIT
        if enumerable:
            dist = born_distribution(circuit)
            tol = stat_tol
            impossible = [k for k in counts if k not in dist]
        else:
            sampled = _tally(run(circuit, "statevector", shots=shots, seed=seed)["records"])
            dist = {k: c / shots for k, c in sampled.items()}
            tol = stat_tol * math.sqrt(2.0)  # two sampled sides
            impossible = []
        worst = max(abs(counts.get(k, 0) / shots - dist.get(k, 0.0)) for k in set(dist) | set(counts))
        passed = not impossible and worst <= tol
        ref_name = "exact" if enumerable else "sampled"
        detail = f"max |freq - p| = {worst:.4f} over {len(dist)} records ({ref_name} reference)"
        if impossible:
            detail = f"impossible record observed: {min(impossible)}; " + detail
        checks.append({"name": "measurement_statistics", "passed": passed, "detail": detail})

    return {
        "n": n,
        "shots": shots,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
