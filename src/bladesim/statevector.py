"""Plain complex state-vector simulation, the Hilbert-space oracle.

Statevector indices put qubit 0 at the most significant bit, matching the
leftmost-letter-first text form of Pauli strings.  So qubit q's bit is the
middle axis of the view `state.reshape(2**q, 2, -1)`: the first axis runs
over the qubits before q and the last over the qubits after it.  A one-qubit
gate is its 2x2 matrix times that view, and a measurement reads and zeroes
the view's halves.  The two-qubit gates index the n-axis view
`state.reshape([2] * n)`, one axis per qubit, qubit 0 first.
"""

from __future__ import annotations

import numpy as np

from .circuit import GateOp
from .errors import CapacityError
from .strings import PauliString

STATEVECTOR_CAP = 12

_S2 = 1.0 / np.sqrt(2.0)

GATES_1Q = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)  # i**k

_LETTER_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": GATES_1Q["x"],
    "Y": GATES_1Q["y"],
    "Z": GATES_1Q["z"],
}


def zero_state(n: int) -> np.ndarray:
    if n > STATEVECTOR_CAP:
        raise CapacityError(f"statevector backend supports at most {STATEVECTOR_CAP} qubits")
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return v


def apply_gate(state: np.ndarray, op: GateOp, n: int) -> np.ndarray:
    """Apply one unitary gate; measurements are not handled here."""
    if op.kind in GATES_1Q:
        q = op.qubits[0]
        return (GATES_1Q[op.kind] @ state.reshape(2**q, 2, -1)).reshape(-1)
    if op.kind not in ("cnot", "cz", "swap"):
        raise ValueError(f"unknown gate kind {op.kind!r}")
    a, b = op.qubits
    t = state.reshape([2] * n)
    if op.kind == "swap":
        return t.swapaxes(a, b).reshape(-1)
    one = (slice(None),) * a + (1,)  # the half where qubit a reads 1
    b -= b > a  # qubit b's axis in that half
    out = t.copy()
    if op.kind == "cnot":
        out[one] = np.flip(t[one], b)
    else:  # cz
        out[one][(slice(None),) * b + (1,)] *= -1
    return out.reshape(-1)


def born_p1(state: np.ndarray, q: int, n: int) -> float:
    """Probability of outcome 1 on qubit q (state need not be normalized)."""
    w = np.abs(state) ** 2
    total = w.sum()
    if total == 0.0:
        raise ValueError("zero state has no outcome distribution")
    return float(w.reshape(2**q, 2, -1)[:, 1].sum() / total)


def collapse(state: np.ndarray, q: int, n: int, outcome: int) -> np.ndarray:
    """Project qubit q onto the given outcome and renormalize."""
    v = state.copy()
    v.reshape(2**q, 2, -1)[:, 1 - outcome] = 0.0
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError(f"outcome {outcome} on qubit {q} has zero probability")
    return v / norm


def measure(state: np.ndarray, q: int, n: int, rng) -> tuple[np.ndarray, int]:
    """Sample Z on qubit q, collapse and renormalize.

    Returns (new state, outcome).  A public single-shot helper with no caller
    in bladesim; the benchmark's tracer patches it by name (`--trace 1`).
    """
    p1 = born_p1(state, q, n)
    outcome = 1 if rng.random() < p1 else 0
    return collapse(state, q, n, outcome), outcome


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    """A Pauli string applied to a state without its matrix.

    With x and z in statevector bit order, P|b> = i^(k + |x & z|)
    (-1)^|z & b| |b ^ x|: Z^z reads the bits, X^x flips them, and each Y
    letter is i X Z.
    """
    n = p.n
    x, z = (int(format(mask, f"0{n}b")[::-1], 2) for mask in (p.x, p.z))  # qubit 0 to the top bit
    idx = np.arange(2**n)
    sign = 1 - 2 * (np.bitwise_count(idx & z) & 1).astype(np.int64)
    out = np.empty(2**n, dtype=complex)
    out[idx ^ x] = _PHASES[(p.k + (p.x & p.z).bit_count()) % 4] * sign * state
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, phase included."""
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        m = np.kron(m, _LETTER_MATS[p.letter(j)])
    return (1j**p.k) * m
