"""Independent matrix oracles and slow reference paths used by the tests.

The matrix oracles are built directly from numpy kron/index arithmetic so the
checks do not share code with the kernels they verify.  `per_shot_stabilizer`
is the stabilizer backend's concrete shot loop, the slow path that the
one-pass symbolic `run` must reproduce bit for bit.
"""

import numpy as np

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
