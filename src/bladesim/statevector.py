"""Plain complex state-vector simulation, the Hilbert-space oracle.

Statevector indices put qubit 0 at the most significant bit, matching the
leftmost-letter-first text form of Pauli strings.
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


def measure(state: np.ndarray, q: int, n: int, rng) -> tuple[np.ndarray, int]:
    """Sample Z on qubit q, collapse and renormalize.

    Returns (new state, outcome).  A public single-shot helper with no caller
    in bladesim; the benchmark's tracer patches it by name (`--trace 1`).
    """
    p1 = born_p1(state, q, n)
    outcome = 1 if rng.random() < p1 else 0
    return collapse(state, q, n, outcome), outcome


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, phase included."""
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        m = np.kron(m, _LETTER_MATS[p.letter(j)])
    return (1j**p.k) * m
