"""Clifford gates as elements of the algebra.

Most gates are plain left multiplications by a real element: H is
(e1 + e2)/sqrt(2), X is e2, Z is e1, the controlled gates combine projectors
(1 +- e1)/2 on the control with a letter on the target.  The phase gate has
no real left-multiplication form; it splits into the pair
(projector onto 0, projector onto 1) with the second part acting through the
complex unit.
"""

from __future__ import annotations

import math

from . import dense as _dense
from .circuit import GateOp
from .dense import DenseMultivector, dense_gp, local_blade
from .ideal import OperatorPair


def qubit_projector(n: int, q: int, outcome: int) -> DenseMultivector:
    """Projector onto a measurement outcome on one qubit: (1 + e1)/2 for 0, (1 - e1)/2 for 1."""
    return DenseMultivector.scalar(n, 0.5) + local_blade(n, q, 1, 0.5 if outcome == 0 else -0.5)


def gate_to_operator_pair(g: GateOp, n: int) -> OperatorPair:
    """Dense operator pair whose action matches the gate's unitary."""
    _dense.check_cap(n, "gate operator")
    kind = g.kind
    zero = DenseMultivector.zero(n)
    if kind == "h":
        q = g.qubits[0]
        s = 1.0 / math.sqrt(2.0)
        return OperatorPair(n, local_blade(n, q, 1, s) + local_blade(n, q, 2, s), zero)
    if kind == "x":
        return OperatorPair(n, local_blade(n, g.qubits[0], 2), zero)
    if kind == "z":
        return OperatorPair(n, local_blade(n, g.qubits[0], 1), zero)
    if kind == "y":
        # Y = i * (Z X): a pure right-unit action on the blade e1*e2 = -e12
        return OperatorPair(n, zero, local_blade(n, g.qubits[0], 3, -1.0))
    if kind == "s":
        q = g.qubits[0]
        return OperatorPair(n, qubit_projector(n, q, 0), qubit_projector(n, q, 1))
    if kind == "sdg":
        q = g.qubits[0]
        return OperatorPair(n, qubit_projector(n, q, 0), -qubit_projector(n, q, 1))
    if kind in ("cnot", "cz"):
        c, t = g.qubits
        letter = local_blade(n, t, 2 if kind == "cnot" else 1)  # X or Z on the target
        return OperatorPair(n, qubit_projector(n, c, 0) + dense_gp(qubit_projector(n, c, 1), letter), zero)
    if kind == "swap":
        a, b = g.qubits
        half = 0.5
        el = DenseMultivector.scalar(n, half)
        el = el + DenseMultivector.basis_blade(n, (1 << (2 * a)) | (1 << (2 * b)), half)
        el = el + DenseMultivector.basis_blade(n, (2 << (2 * a)) | (2 << (2 * b)), half)
        el = el - DenseMultivector.basis_blade(n, (3 << (2 * a)) | (3 << (2 * b)), half)
        return OperatorPair(n, el, zero)
    raise ValueError(f"no operator form for gate kind {kind!r}")
