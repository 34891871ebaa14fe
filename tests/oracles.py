"""Independent matrix oracles and slow reference paths used by the tests.

The matrix oracles are built directly from numpy kron/index arithmetic so the
checks do not share code with the kernels they verify.  `per_shot_stabilizer`
is the stabilizer backend's concrete shot loop, the slow path that the
one-pass symbolic `run` must reproduce bit for bit.  `RowTableau` is the
row-major stabilizer engine, the slow path that the column `Tableau` must
match step by step, and `set_rows` writes rows into a column tableau.
"""

import numpy as np

from bladesim.strings import _LETTERS, PauliString, pauli_mul
from bladesim.tableau import _IMAGES

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


def per_shot_stabilizer(circuit, shots: int, seed: int):
    """(records, final stabilizer lines) from a fresh tableau per shot.

    Every shot walks the whole circuit with `measure_z` on its own
    (seed, shot) stream, drawing one integers(0, 2) at each random outcome.
    """
    from bladesim import Tableau
    from bladesim.backends import _shot_rng

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


def _letter_change(code: int, image: str):
    """(x flip, z flip, sign flip) taking a letter to its image; None if it is fixed."""
    d = code ^ _LETTERS.index(image.lstrip("-"))
    change = (d & 1, d >> 1, 2 if image[0] == "-" else 0)
    return change if any(change) else None


# per gate, the change of each letter code 0..3
_ROW_RULES = {gate: (None, *map(_letter_change, (1, 2, 3), images)) for gate, images in _IMAGES.items()}


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
