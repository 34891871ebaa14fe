"""Qubit simulation on the real geometric algebra of the plane.

The single-qubit algebra is four-dimensional with generators e1, e2 squaring
to +1; states live in the left ideal generated by the projector (1 + e1)/2
and operators act by left multiplication, so symbolic products and unitary
evolution are the same operation.  Across n qubits the product factorizes
per qubit, giving word-parallel Pauli arithmetic and a stabilizer tableau
engine, cross-checked at small n against dense algebra and state-vector
backends.
"""

from .backends import born_distribution, matrix_pairs, run, statevector_pairs, validate
from .circuit import Circuit, GateOp, ParseError, parse, random_clifford_circuit, serialize
from .cl2 import (
    E1,
    E2,
    E12,
    J,
    ONE,
    Multivector2,
    SignedBlade,
    blade_mul,
    gp,
    grade,
    idempotent_p,
    inner,
    reverse,
    wedge,
)
from .dense import (
    DenseMultivector,
    dense_gp,
    local_blade,
    reverse_dense,
    tensor,
)
from .errors import (
    BladesimError,
    CapacityError,
    DegenerateStateError,
    DimensionMismatchError,
    NotInIdealError,
    TableauInvariantError,
)
from .gates import gate_to_operator_pair, qubit_projector
from .ideal import (
    OperatorPair,
    apply,
    conjugate_evolution_check,
    density_from_generator,
    project_v,
    rho_matrix,
    theta,
    to_statevector,
    vacuum,
)
from .statevector import pauli_matrix
from .strings import (
    BladeString,
    PauliString,
    blade_to_pauli,
    commutes,
    pauli_mul,
    pauli_to_blade,
    reverse_string,
    string_mul,
)
from .tableau import Tableau

__version__ = "0.1.0"

__all__ = [
    "BladeString",
    "BladesimError",
    "CapacityError",
    "Circuit",
    "DegenerateStateError",
    "DenseMultivector",
    "DimensionMismatchError",
    "E1",
    "E12",
    "E2",
    "GateOp",
    "J",
    "Multivector2",
    "NotInIdealError",
    "ONE",
    "OperatorPair",
    "ParseError",
    "PauliString",
    "SignedBlade",
    "Tableau",
    "TableauInvariantError",
    "apply",
    "blade_mul",
    "blade_to_pauli",
    "born_distribution",
    "commutes",
    "conjugate_evolution_check",
    "dense_gp",
    "density_from_generator",
    "gate_to_operator_pair",
    "gp",
    "grade",
    "idempotent_p",
    "inner",
    "local_blade",
    "matrix_pairs",
    "parse",
    "pauli_matrix",
    "pauli_mul",
    "pauli_to_blade",
    "project_v",
    "qubit_projector",
    "random_clifford_circuit",
    "reverse",
    "reverse_dense",
    "reverse_string",
    "rho_matrix",
    "run",
    "serialize",
    "statevector_pairs",
    "string_mul",
    "tensor",
    "theta",
    "to_statevector",
    "vacuum",
    "validate",
    "wedge",
]
