"""Independent matrix oracles and slow reference paths used by the tests.

The matrix oracles are built directly from numpy kron/index arithmetic so the
checks do not share code with the kernels they verify.  `per_shot_stabilizer`
is the stabilizer backend's concrete shot loop, the slow path that the
one-pass symbolic `run` must reproduce bit for bit, and `_shot_rng` is a
shot's stream built the slow way, by numpy's own `default_rng([seed, shot])`,
which both paths of `backends._shot_words` must equal: the array pass over
every shot and `_per_shot_words`, one shot at a time.  `RowTableau` is the
row-major stabilizer engine, the slow path that the column `Tableau` must
match step by step.  Its one-qubit rules come from `IMAGES`, a hand-written
table of letter images, which the images the tableau derives from the gates'
blade words must equal.  `set_rows` writes rows into a column tableau.
`product` is the column scan that the stored phases `kz` and `kx` replace:
the phase of an ordered row product, summed column by column.
`product_phases` finds every letter's phase with it, and
`reference_expectation` is `Tableau.expectation` as it was before it merged
the stored phases: the product of the stabilizers the string's destabilizer
bits select, compared with the string.
`interpret_rule` applies a tableau rule entry by entry, the interpreter the
gates ran before each rule was compiled to one straight-line function
(`tableau._compile`); every compiled gate must leave its tableau.
`reference_stabilizer_lines` is `Tableau.stabilizer_lines` as it was before it
built the letters as one byte matrix: each column's bits read as an octal
string, the per-column letters transposed through `zip`.  `reference_rows` is
`Tableau.rows` and its halves as they were before both went through
`tableau._unpack`/`_pack`: each column's bits as a '0'/'1' string
(`_column_bits`), transposed through `zip` (`_transpose`); those two helpers
left `src/` for this file.
`element_from_coordinates` is the 4**n element of the ideal whose coordinates
along B_b and B_b * J are a given complex vector, the carrier the
dense-clifford backend stepped before it kept only the coordinates.
`reference_coordinate_project` and `reference_ideal_project` are the two
projector measurements the dense engines made before both went through
`backends._projection`: one on coordinates in the complex norm, one on the
4**n element in coefficient norms, each normalizing its collapse through
`_normalized`.  p1 and every collapse must give the same bytes.
`reference_gp` is `dense_gp` as it was before its one gather loop: two
mirrored branches, each scattering the sparser operand's terms.
`reference_dense_gp` and `reference_word_action` are `dense_gp` and
`ideal.word_action` as they were before both read their signs from the
cached `dense._parity_signs` tables: every term's parity recomputed with
`np.bitwise_count`; both must give the same bytes.
`kron_basis_columns` is `ideal._basis` as it was before it took products:
B_b as a kron of hand-written per-qubit factors (`_FACTOR1` = e2 P), and
B_b J by `reference_right_mul_j`, right multiplication by J's own index and
sign rule.  With them the basis is not checked against `theta` alone.
`json_ready` turns a report's arrays into the JSON values its text holds.
`per_shot_dense` and `born_stack_walk` are the dense backends' shot loop and
the Born enumeration as they were before both became one walk over outcome
prefixes: every shot evolved on its own, and a stack of state-vector branches.
`per_record_counts` is the register tally as `run` made it before it built the
registers as byte rows: one string per distinct record, slot by slot.
`reference_parse` is the circuit parser as it was before it read lines as
plain words: a (column, token) pair for every word, positions threaded
through its helpers.  Its refusals, their order and their positions are the
ones `parse` must give.  `graded_mul` is the product of the paper's graded
tensor product Cl_{2,0}(R)^(x)n on packed blade words, which bladesim does
not compute: `string_mul`'s ungraded sign times one more popcount.
`apply_gate`, `born_p1` and `collapse` are the statevector oracle as it was
before it read a qubit through the view `state.reshape(2**q, 2, -1)`: a
one-qubit gate moved its axis last on the n-axis tensor (`_apply_1q`), and
halves were picked by index tuples (`_slices`).  The two-qubit gates, the
Born sum and the collapse must give its bytes.
"""

import math
import re
from collections import Counter

import numpy as np

from bladesim.circuit import _ARITY, MAX_QUBITS, MAX_SLOTS, MEASURE, Circuit, GateOp, ParseError
from bladesim.errors import TableauInvariantError
from bladesim.statevector import GATES_1Q
from bladesim.strings import _LETTERS, BladeString, PauliString, _pauli, pauli_mul, string_mul
from bladesim.tableau import _indices

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SY = np.array([[0.0, -1j], [1j, 0.0]])

# real 2x2 images of the four basis blades: 1, e1, e2, e12
BLADE_MATS = (I2, SZ, SX, SZ @ SX)

LETTER_MATS = {"I": np.eye(2, dtype=complex), "X": SX + 0j, "Y": SY, "Z": SZ + 0j}

GATE_MATS_1Q = {
    "h": (SZ + SX) / np.sqrt(2.0) + 0j,
    "s": np.diag([1.0, 1j]),
    "sdg": np.diag([1.0, -1j]),
    "x": SX + 0j,
    "y": SY,
    "z": SZ + 0j,
}


def mv2_matrix(m) -> np.ndarray:
    """Real 2x2 image of a single-qubit multivector."""
    return sum(coef * mat for coef, mat in zip(m.c, BLADE_MATS))


def pauli_matrix_oracle(p) -> np.ndarray:
    """Matrix of a PauliString from its letters, qubit 0 first."""
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        m = np.kron(m, LETTER_MATS[p.letter(j)])
    return (1j**p.k) * m


def blade_string_matrix(b) -> np.ndarray:
    """Matrix of a signed blade string acting from the left."""
    m = np.array([[1.0 + 0j]])
    for code in b.codes:
        m = np.kron(m, BLADE_MATS[code] + 0j)
    return b.sign * m


def dense_matrix(a) -> np.ndarray:
    """Matrix of a dense multivector: kron the blade images term by term."""
    dim = 2**a.n
    out = np.zeros((dim, dim), dtype=complex)
    for idx in np.flatnonzero(a.c):
        term = np.array([[1.0 + 0j]])
        for j in range(a.n):  # qubit 0 becomes the first kron factor
            term = np.kron(term, BLADE_MATS[(int(idx) >> (2 * j)) & 3] + 0j)
        out += a.c[idx] * term
    return out


def gate_unitary(op, n: int) -> np.ndarray:
    """Unitary of one gate, built by explicit basis-state bookkeeping."""
    dim = 2**n
    if op.kind in GATE_MATS_1Q:
        q = op.qubits[0]
        m = np.array([[1.0 + 0j]])
        for j in range(n):
            m = np.kron(m, GATE_MATS_1Q[op.kind] if j == q else np.eye(2, dtype=complex))
        return m
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bits = [(b >> (n - 1 - j)) & 1 for j in range(n)]  # qubit 0 most significant
        phase = 1.0
        if op.kind == "cnot":
            c, t = op.qubits
            bits[t] ^= bits[c]
        elif op.kind == "cz":
            c, t = op.qubits
            if bits[c] and bits[t]:
                phase = -1.0
        elif op.kind == "swap":
            a_, b_ = op.qubits
            bits[a_], bits[b_] = bits[b_], bits[a_]
        else:
            raise ValueError(op.kind)
        target = sum(bit << (n - 1 - j) for j, bit in enumerate(bits))
        u[target, b] = phase
    return u


def circuit_unitary(ops, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for op in ops:
        u = gate_unitary(op, n) @ u
    return u


def random_multivector2(rng):
    from bladesim import Multivector2

    return Multivector2(rng.uniform(-2.0, 2.0, size=4))


def random_dense(n: int, rng, density: float = 1.0):
    from bladesim import DenseMultivector

    c = rng.uniform(-1.0, 1.0, size=4**n)
    if density < 1.0:
        c = np.where(rng.random(4**n) < density, c, 0.0)
    return DenseMultivector(n, c)


def random_blade_string(n: int, rng):
    from bladesim import BladeString

    return BladeString.from_codes(
        [int(code) for code in rng.integers(0, 4, size=n)],
        sign=int(rng.choice((1, -1))),
    )


def random_pauli_string(n: int, rng):
    from bladesim import PauliString

    x = int(rng.integers(0, 2**n))
    z = int(rng.integers(0, 2**n))
    return PauliString(n, x, z, int(rng.integers(0, 4)))


def graded_mul(a, b):
    """a * b in the graded tensor product, where odd blades on different qubits anticommute.

    Moving b's qubit-k factor left past a's factors on the qubits j > k costs
    (-1)^(deg a_j * deg b_k), so the graded sign is `string_mul`'s sign times
    (-1)^sum_{j>k} p_a(j) p_b(k), p the masks of odd-grade qubits (e1 or e2,
    not e12).  Its parity is |p_a & (odd << 1)|, where bit k of `odd` is the
    parity of p_b's bits 0..k: the odd prefix `product` builds.
    """
    ab = string_mul(a, b)
    odd, shift = b.e1 ^ b.e2, 1
    while shift < a.n:
        odd ^= odd << shift
        shift <<= 1
    flips = ((a.e1 ^ a.e2) & (odd << 1)).bit_count()
    return BladeString(a.n, ab.e1, ab.e2, -ab.sign if flips & 1 else ab.sign)


def json_ready(value):
    """A report, or any value in one, with its arrays as the JSON values the written report holds.

    A bytes array (a tableau's stabilizer lines) becomes its items decoded
    and any other array (a run's records) its `tolist()`; dicts and lists are
    walked.  So whole reports compare with ==, and `json.dumps(...,
    default=json_ready)` writes them.
    """
    if isinstance(value, np.ndarray):
        return value.astype(str).tolist() if value.dtype.kind == "S" else value.tolist()
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_ready(v) for v in value]
    return value


def _shot_rng(seed: int, shot: int):
    """Shot `shot`'s stream: numpy's SeedSequence and PCG64 seeding, once per call."""
    return np.random.default_rng([int(seed), int(shot)])


def per_shot_stabilizer(circuit, shots: int, seed: int):
    """(records, final stabilizer lines) from a fresh tableau per shot.

    Every shot walks the whole circuit with `measure_z` on its own
    (seed, shot) stream, drawing one integers(0, 2) at each random outcome.
    """
    from bladesim import Tableau

    records = []
    for shot in range(shots):
        t, rng, rec = Tableau(circuit.n), _shot_rng(seed, shot), []
        for op in circuit.ops:
            if op.is_measure:
                rec.append(t.measure_z(op.qubits[0], rng)[0])
            else:
                t.apply_gate(op)
        records.append(rec)
    return records, t.stabilizer_lines()


def per_shot_dense(circuit, backend: str, shots: int, seed: int):
    """(records, final states) of shots 0..shots-1 on a dense backend, each shot evolved on its own.

    The gates before the first measurement are evolved once; each shot then
    walks the rest with its own (seed, shot) stream and takes outcome 1 where
    its next scalar random() falls below p1.  Shot s's record and state do
    not depend on the shot count, so one call covers every count up to `shots`.
    """
    from bladesim.backends import _dense_backend

    state, step, project = _dense_backend(circuit, backend)
    ops = circuit.ops
    cut = next((i for i, op in enumerate(ops) if op.is_measure), len(ops))
    for op in ops[:cut]:
        state = step(state, op)
    records, finals = [], []
    for shot in range(shots):
        s, rng, rec = state, _shot_rng(seed, shot), []
        for op in ops[cut:]:
            if op.is_measure:
                p1, collapse = project(s, op.qubits[0])
                rec.append(1 if rng.random() < p1 else 0)
                s = collapse(rec[-1])
            else:
                s = step(s, op)
        records.append(rec)
        finals.append(s)
    return records, finals


def per_record_counts(circuit, records) -> dict[str, int]:
    """{register string: shots}, one creg-long string built for each distinct record."""
    counts: dict[str, int] = {}
    slots = [op.slot for op in circuit.ops if op.is_measure]
    for outcomes, count in Counter(map(tuple, records)).items():
        reg = ["0"] * circuit.creg
        for slot, outcome in zip(slots, outcomes):
            reg[slot] = str(outcome)
        key = "".join(reg)  # records that differ only in overwritten slots share it
        counts[key] = counts.get(key, 0) + count
    return counts


def born_stack_walk(circuit) -> dict:
    """{record: probability} by branching the state vector on a stack, outcome 0 pushed first."""
    from bladesim import statevector as sv
    from bladesim.backends import BRANCH_EPS

    n = circuit.n
    out: dict[tuple, float] = {}
    stack = [(sv.zero_state(n), 0, 1.0, ())]
    while stack:
        state, i, prob, rec = stack.pop()
        while i < len(circuit.ops) and not circuit.ops[i].is_measure:
            state = sv.apply_gate(state, circuit.ops[i], n)
            i += 1
        if i == len(circuit.ops):
            out[rec] = out.get(rec, 0.0) + prob
            continue
        q = circuit.ops[i].qubits[0]
        p1 = sv.born_p1(state, q, n)
        for outcome, p in ((0, 1.0 - p1), (1, p1)):
            if p > BRANCH_EPS:
                stack.append((sv.collapse(state, q, n, outcome), i + 1, prob * p, rec + (outcome,)))
    return out


def _apply_1q(state: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    t = np.moveaxis(state.reshape([2] * n), q, -1)
    t = t @ u.T
    return np.moveaxis(t, -1, q).reshape(-1)


def _slices(n: int, fixed: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * n
    for q, v in fixed.items():
        idx[q] = v
    return tuple(idx)


def apply_gate(state: np.ndarray, op: GateOp, n: int) -> np.ndarray:
    """Apply one unitary gate; measurements are not handled here."""
    if op.kind in GATES_1Q:
        return _apply_1q(state, GATES_1Q[op.kind], op.qubits[0], n)
    t = state.reshape([2] * n).copy()
    if op.kind == "cnot":
        c, q = op.qubits
        i10, i11 = _slices(n, {c: 1, q: 0}), _slices(n, {c: 1, q: 1})
        t[i10], t[i11] = t[i11].copy(), t[i10].copy()
    elif op.kind == "cz":
        t[_slices(n, {op.qubits[0]: 1, op.qubits[1]: 1})] *= -1
    elif op.kind == "swap":
        a, b = op.qubits
        i01, i10 = _slices(n, {a: 0, b: 1}), _slices(n, {a: 1, b: 0})
        t[i01], t[i10] = t[i10].copy(), t[i01].copy()
    else:
        raise ValueError(f"unknown gate kind {op.kind!r}")
    return t.reshape(-1)


def born_p1(state: np.ndarray, q: int, n: int) -> float:
    """Probability of outcome 1 on qubit q (state need not be normalized)."""
    w = np.abs(state) ** 2
    total = w.sum()
    if total == 0.0:
        raise ValueError("zero state has no outcome distribution")
    p1 = w.reshape([2] * n)[_slices(n, {q: 1})].sum()
    return float(p1 / total)


def collapse(state: np.ndarray, q: int, n: int, outcome: int) -> np.ndarray:
    """Project qubit q onto the given outcome and renormalize."""
    t = state.reshape([2] * n).copy()
    t[_slices(n, {q: 1 - outcome})] = 0.0
    v = t.reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError(f"outcome {outcome} on qubit {q} has zero probability")
    return v / norm


def set_rows(t, rows) -> None:
    """Write PauliString rows into a column tableau: row i becomes bit i of every column.

    The rows must carry signs only (phase exponent 0 or 2).  Rows past 2n land
    past the tableau's last row, which is how a test plants stray bits.
    """
    if any(row.k % 2 for row in rows):
        raise ValueError("a column tableau holds one sign bit per row")
    t.xs = [sum(((row.x >> q) & 1) << i for i, row in enumerate(rows)) for q in range(t.n)]
    t.zs = [sum(((row.z >> q) & 1) << i for i, row in enumerate(rows)) for q in range(t.n)]
    t.r = sum((row.k >> 1) << i for i, row in enumerate(rows))
    t.kz, t.kx = product_phases(t)


def product(t, rows: int) -> tuple[int, int, int]:
    """Qubit masks x, z and phase exponent k of the product of a column tableau's selected rows.

    The rows multiply in increasing order.  Telescoping `pauli_mul` over
    them gives k = sum k_a + 3 sum |x_a & z_a| + 2 sum_{a<b} |x_a & z_b|
    + |x & z| (mod 4), each sum taken column by column; at one column the
    parity of the pair sum counts the z bits under an odd prefix of x bits.
    """
    k = 2 * (t.r & rows).bit_count()
    x = z = 0
    span = rows.bit_length()
    for j, (cx, cz) in enumerate(zip(t.xs, t.zs)):
        u, w = cx & rows, cz & rows
        if u:
            x |= (u.bit_count() & 1) << j
        if w:
            z |= (w.bit_count() & 1) << j
        if u and w:
            odd, shift = u, 1  # odd prefix: bit b is the parity of u's bits 0..b
            while shift < span:
                odd ^= odd << shift
                shift <<= 1
            k += 3 * (u & w).bit_count() + 2 * ((odd << 1) & w).bit_count()
    k += (x & z).bit_count()
    return x, z, k % 4


def product_phases(t) -> tuple[list[int], list[int]]:
    """Each qubit's (kz, kx): the phases of Z_q and X_q as products of the rows their columns select."""
    return [product(t, t._swap_halves(c))[2] for c in t.xs], [product(t, t._swap_halves(c))[2] for c in t.zs]


def reference_expectation(t, p) -> int:
    """`Tableau.expectation` by the column scan: the product of the stabilizers p's destabilizer bits select.

    Returns 0 when p anticommutes with a stabilizer, else +1 or -1 as that
    product's phase equals p's or not; p must be Hermitian, on t's n qubits.
    """
    n = t.n
    anti = 0  # the rows that anticommute with p
    for q in _indices(p.x):
        anti ^= t.zs[q]
    for q in _indices(p.z):
        anti ^= t.xs[q]
    if anti >> n:
        return 0
    # destabilizer j anticommutes with stabilizer j only, so the bits of a
    # commuting string decompose along the stabilizers its destabilizers flag
    x, z, k = product(t, (anti & ((1 << n) - 1)) << n)
    if x != p.x or z != p.z:
        raise TableauInvariantError("commuting string is outside the stabilizer span")
    return 1 if k == p.k else -1


def interpret_rule(t, kind: str, rule, qubits: tuple):
    """Apply a `tableau._Rule` to a column tableau entry by entry, the loop every gate ran before the rules were compiled.

    The checks come first, in their order: the qubit count or a repeat, then
    each qubit's range.  The kind names the gate in the refusal's message.
    """
    if len(qubits) != rule.arity or len(qubits) == 2 and qubits[0] == qubits[1]:
        raise ValueError(f"{kind} takes {rule.arity} distinct qubit(s), got {qubits}")
    n, xs, zs, kx, kz = t.n, t.xs, t.zs, t.kx, t.kz
    cols, ks = [], []  # per qubit its x and z columns, and its X and Z phases
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
        cols += xs[q], zs[q]
        ks += kx[q], kz[q]
    for monomial in rule.flip:
        m = -1
        for v in monomial:
            m &= cols[v]
        t.r ^= m
    for v, sources in rule.cols:
        c = 0
        for u in sources:
            c ^= cols[u]
        (zs if v & 1 else xs)[qubits[v >> 1]] = c
    for l, e, letters, pairs in rule.phases:
        for u in letters:
            e += ks[u]
        for a, b in pairs:
            e += 2 * (cols[a] & (cols[b] >> n)).bit_count()
        (kz if l & 1 else kx)[qubits[l >> 1]] = e & 3
    return t


def _column_bits(cols: list[int], lo: int, hi: int) -> list[str]:
    """Bits lo..hi-1 of each column as a '0'/'1' string, bit hi-1 first."""
    w = hi - lo
    mask = (1 << w) - 1
    return [format((c >> lo) & mask, f"0{w}b") for c in cols]


def _transpose(text: list[str]) -> list[str]:
    """Per-column strings (last row first) as per-row strings (column 0 first), first row first."""
    return ["".join(chars) for chars in zip(*text)][::-1]


def reference_rows(t, lo: int, hi: int) -> list[PauliString]:
    """Rows lo..hi-1 of a column tableau as PauliStrings, each column's bits transposed as '0'/'1' strings."""
    n = t.n
    xt, zt = _transpose(_column_bits(t.xs, lo, hi)), _transpose(_column_bits(t.zs, lo, hi))
    return [
        _pauli(n, int(x[::-1], 2), int(z[::-1], 2), 2 * ((t.r >> i) & 1)) for i, x, z in zip(range(lo, hi), xt, zt)
    ]


_OCTAL_LETTERS = str.maketrans("0123", "".join(_LETTERS))  # letter code x + 2z as a digit


def reference_stabilizer_lines(t) -> list[str]:
    """One signed line per stabilizer row, from the columns read as octal digit strings."""
    n = t.n
    # read as octal, a column's x and z bit strings add up to one digit x + 2z per row
    letters = [
        format(int(x, 8) + 2 * int(z, 8), f"0{n}o").translate(_OCTAL_LETTERS)
        for x, z in zip(_column_bits(t.xs, n, 2 * n), _column_bits(t.zs, n, 2 * n))
    ]
    return [("-" if (t.r >> i) & 1 else "+") + row for i, row in zip(range(n, 2 * n), _transpose(letters))]


def element_from_coordinates(n: int, v):
    """The element of the ideal with coordinates v: sum of Re v[b] B_b + Im v[b] B_b J, from `ideal._basis`."""
    from bladesim import DenseMultivector
    from bladesim.ideal import _basis

    cols, _ = _basis(n)
    v = np.asarray(v, dtype=complex)
    return DenseMultivector(n, cols @ np.concatenate((v.real, v.imag)))


def _normalized(part, norm2: float, outcome: int):
    """`part` scaled to unit norm, given its squared norm; a zero part has no outcome to collapse onto."""
    if norm2 == 0.0:
        raise ValueError(f"outcome {outcome} has zero norm")
    return part * (1.0 / math.sqrt(norm2))


def reference_coordinate_project(v: np.ndarray, projector: tuple) -> tuple:
    """Measure on ideal coordinates: p1 = |P1 v|^2 / |v|^2 in the complex norm.

    `projector` is the word action of P1 = (1 - e1_q)/2.  The collapse keeps
    `one`, P1 v, or v - one, and normalizes it.
    """
    from bladesim.backends import _norm2
    from bladesim.ideal import act

    one = act(projector, v)
    p1 = _norm2(one) / _norm2(v)

    def collapse(outcome: int) -> np.ndarray:
        part = one if outcome else v - one
        return _normalized(part, _norm2(part), outcome)

    return p1, collapse


def reference_ideal_project(state, projector) -> tuple:
    """Measure inside the algebra: p1 = |P1 psi|^2 / |psi|^2 in coefficient norms.

    The collapse keeps `one`, the outcome-1 part P1 psi, or psi - one; renormalize.
    The ideal basis has squared norm 2**-n, so sum |amp|^2 = 2**n * sum c^2.
    """
    from bladesim.ideal import apply

    one = apply(projector, state)
    p1 = float(one.c @ one.c) / float(state.c @ state.c)

    def collapse(outcome: int):
        part = one if outcome else state - one
        return _normalized(part, 2**state.n * float(part.c @ part.c), outcome)

    return p1, collapse


def reference_gp(a, b):
    """`dense_gp` as it was before its one gather loop: two mirrored branches, each scatter-adding.

    The sparser operand's nonzero terms are scattered over the other operand,
    the sign mask built from the left term's e2 bits or the right term's e1
    bits.  Returns the coefficient array.
    """
    from bladesim.dense import _e1_bits

    idx = np.arange(4**a.n, dtype=np.int64)
    e1bits = _e1_bits(a.n)
    out = np.zeros(4**a.n)
    if np.count_nonzero(a.c) <= np.count_nonzero(b.c):
        for i in np.flatnonzero(a.c):
            im = (int(i) >> 1) & e1bits
            parity = np.bitwise_count(idx & im).astype(np.int64) & 1
            out[int(i) ^ idx] += a.c[i] * b.c * (1 - 2 * parity)
    else:
        for j in np.flatnonzero(b.c):
            jm = (int(j) & e1bits) << 1
            parity = np.bitwise_count(idx & jm).astype(np.int64) & 1
            out[idx ^ int(j)] += a.c * b.c[j] * (1 - 2 * parity)
    return out


def reference_dense_gp(a, b):
    """`dense_gp` as it was before it read cached sign tables: each term's parity rebuilt from its gathered indices.

    Returns the coefficient array.
    """
    from bladesim.dense import _e1_bits

    dim = 4**a.n
    e1bits = _e1_bits(a.n)
    idx = np.arange(dim, dtype=np.int64)
    out = np.zeros(dim)
    left = np.count_nonzero(a.c) <= np.count_nonzero(b.c)
    sparse, other = (a, b) if left else (b, a)
    for i in np.flatnonzero(sparse.c):
        i = int(i)
        mask = (i >> 1) & e1bits if left else (i & e1bits) << 1
        gathered = idx ^ i
        parity = np.bitwise_count(gathered & mask).astype(np.int64) & 1
        out += sparse.c[i] * other.c.take(gathered) * (1 - 2 * parity)
    return out


def reference_word_action(n: int, a, b=()) -> tuple:
    """`ideal.word_action` as it was before it read cached sign tables: every word's signs one array expression."""
    coefs, e1s, e2s = zip(*a, *((1j * coef, e1, e2) for coef, e1, e2 in b))
    idx = np.arange(2**n)
    parity = np.bitwise_count(idx & np.array(e1s)[:, None]) & 1
    terms = np.array(coefs, dtype=complex)[:, None] * (1 - 2 * parity.astype(np.int64))
    masks = sorted(set(e2s))
    diagonals = np.zeros((len(masks), 2**n), dtype=complex)
    for e2, term in zip(e2s, terms):
        diagonals[masks.index(e2)] += term
    return tuple((idx ^ e2 if e2 else None, d) for e2, d in zip(masks, diagonals))


def reference_right_mul_j(c: np.ndarray) -> np.ndarray:
    """Right multiplication by e12 at qubit 0 by its own rule: index ^ 3, sign - where qubit 0 carries e2."""
    idx = np.arange(c.size, dtype=np.int64)
    out = np.empty(c.size)
    out[idx ^ 3] = c * (1 - 2 * ((idx >> 1) & 1))
    return out


# single-qubit dense factors of the two basis states: |0> = P = (1 + e1)/2 and |1> = e2 P = (e2 - e12)/2
_FACTOR0 = np.array([0.5, 0.5, 0.0, 0.0])
_FACTOR1 = np.array([0.0, 0.0, 0.5, -0.5])


def kron_basis_columns(n: int) -> np.ndarray:
    """The ideal basis B_b, then B_b J, as `ideal._basis` built it before it took products.

    B_b is the kron of per-qubit factors, e2 P where b has qubit q's bit (at
    n-1-q) set and P elsewhere; B_b J comes from `reference_right_mul_j`.
    """
    half = 2**n
    cols = np.empty((4**n, 2 * half))
    for b in range(half):
        c = np.array([1.0])
        for q in reversed(range(n)):  # qubit 0 ends up at the low index bits
            c = np.kron(c, _FACTOR1 if (b >> (n - 1 - q)) & 1 else _FACTOR0)
        cols[:, b] = c
        cols[:, half + b] = reference_right_mul_j(c)
    return cols


# the reference images of X, Z, Y under conjugation by each single-qubit gate,
# written by hand; the tableau derives its own from `gates.letter_images`
IMAGES = {
    "h": ("Z", "X", "-Y"),
    "s": ("Y", "Z", "-X"),
    "sdg": ("-Y", "Z", "X"),
    "x": ("X", "-Z", "-Y"),
    "y": ("-X", "-Z", "Y"),
    "z": ("-X", "Z", "-Y"),
}


def _letter_change(code: int, image: str):
    """(x flip, z flip, sign flip) taking a letter to its image; None if it is fixed."""
    d = code ^ _LETTERS.index(image.lstrip("-"))
    change = (d & 1, d >> 1, 2 if image[0] == "-" else 0)
    return change if any(change) else None


# per gate, the change of each letter code 0..3
_ROW_RULES = {gate: (None, *map(_letter_change, (1, 2, 3), images)) for gate, images in IMAGES.items()}


class RowTableau:
    """The row-major stabilizer engine: 2n PauliString rows and their variable masks.

    Rows 0..n-1 are destabilizers.  A single-qubit gate rebuilds each row
    whose letter it changes, CNOT follows the CHP rule row by row, CZ and SWAP
    are composed from H and CNOT, and measurement multiplies whole rows with
    `pauli_mul`.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows = [PauliString(n, 1 << j, 0, 0) for j in range(n)] + [PauliString(n, 0, 1 << j, 0) for j in range(n)]
        self.vars = [0] * (2 * n)

    def _conjugate(self, kind: str, q: int) -> "RowTableau":
        rule, m = _ROW_RULES[kind], 1 << q
        for i, r in enumerate(self.rows):
            change = rule[(1 if r.x & m else 0) | (2 if r.z & m else 0)]
            if change:
                dx, dz, flip = change
                self.rows[i] = PauliString(r.n, r.x ^ dx * m, r.z ^ dz * m, r.k ^ flip)
        return self

    def cnot(self, c: int, t: int) -> "RowTableau":
        mc, mt = 1 << c, 1 << t
        for i, r in enumerate(self.rows):
            xc, zt = r.x & mc, r.z & mt
            if xc or zt:
                k = r.k ^ (2 if xc and zt and bool(r.x & mt) == bool(r.z & mc) else 0)
                self.rows[i] = PauliString(r.n, r.x ^ (mt if xc else 0), r.z ^ (mc if zt else 0), k)
        return self

    def apply_gate(self, op) -> "RowTableau":
        if op.kind == "cnot":
            return self.cnot(*op.qubits)
        if op.kind == "cz":
            c, t = op.qubits
            return self._conjugate("h", t).cnot(c, t)._conjugate("h", t)
        if op.kind == "swap":
            a, b = op.qubits
            return self.cnot(a, b).cnot(b, a).cnot(a, b)
        return self._conjugate(op.kind, op.qubits[0])

    def measure(self, q: int, draw) -> tuple[int, int, bool]:
        """(constant, variable mask, deterministic) of a Z measurement on qubit q."""
        m, n, rows, var = 1 << q, self.n, self.rows, self.vars
        p = next((i for i in range(n, 2 * n) if rows[i].x & m), None)
        if p is not None:
            row_p, var_p = rows[p], var[p]
            for i in range(2 * n):
                if i != p and i != p - n and (rows[i].x & m):
                    rows[i] = pauli_mul(row_p, rows[i])
                    var[i] ^= var_p
            rows[p - n], var[p - n] = row_p, var_p
            const, mask = draw()
            rows[p], var[p] = PauliString(n, 0, m, 2 * const), mask
            return const, mask, False
        acc, mask = PauliString.identity(n), 0
        for j in range(n):
            if rows[j].x & m:
                acc = pauli_mul(acc, rows[j + n])
                mask ^= var[j + n]
        assert acc.x == 0 and acc.z == m, "deterministic outcome did not reduce to a Z letter"
        return (1 if acc.k == 2 else 0), mask, True

    def assign(self, values: int) -> "RowTableau":
        """Substitute bit r of `values` for variable r in every row sign."""
        for i, v in enumerate(self.vars):
            if v:
                if (v & values).bit_count() & 1:
                    self.rows[i] = -self.rows[i]
                self.vars[i] = 0
        return self


_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[0-9]+\Z")  # ASCII only: \d and int() also take other scripts' digits


def _tokens(line: str):
    body = line.split("#", 1)[0]
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]


def _int_token(lineno: int, col: int, tok: str, what: str) -> int:
    if not _INT.match(tok):
        raise ParseError(lineno, col, f"expected {what}, found a non-integer token", tok)
    return int(tok)


def reference_parse(source: str) -> Circuit:
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
