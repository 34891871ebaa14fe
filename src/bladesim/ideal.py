"""States as algebra elements: vacuum idempotent, left ideal, complex structure.

The n-qubit vacuum is the tensor product of the single-qubit projector
(1 + e1)/2.  Multiplying the algebra onto it from the left sweeps out a
2**n-dimensional real space; the complex unit is right multiplication by the
qubit-0 bivector e12 (any single local bivector squares to -1 and commutes
with every left action; qubit 0 is fixed for determinism).  Stacking the two
gives the 2**(n+1)-dimensional real carrier of the complex state space.

The complex basis vector for bitstring b is

    B_b = (product over set bits j of e2 at qubit j) * vacuum,

and the amplitude of |b> in a state is its coefficient along B_b plus i times
its coefficient along B_b * e12^(0).  Bitstrings put qubit 0 at the most
significant position, matching the text form of Pauli strings.

With that dictionary, left multiplication by e1/e2/e12 at qubit j acts as the
Pauli Z/X/iY matrix on qubit j, and preparing a state with some element and
then acting with another is the same as acting first and preparing once:
left actions and state preparation commute through the product.

Nothing here is normalized: preparing with g yields a state whose norm
depends on g.  The basis has squared norm 2**-n, so sum |amp|^2 = 2**n * sum c^2,
and the dense backend measures with (1 -+ e1_q)/2 in coefficient norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dense as _dense
from .cl2 import E2, gp, idempotent_p
from .dense import DenseMultivector, dense_gp, reverse_dense
from .errors import DegenerateStateError, DimensionMismatchError, NotInIdealError

# single-qubit dense factors of the two basis states: |0> = P and |1> = e2 P
_FACTOR0 = idempotent_p().c
_FACTOR1 = gp(E2, idempotent_p()).c

MEMBERSHIP_TOL = 1e-10


def vacuum(n: int) -> DenseMultivector:
    """Tensor power of the primitive idempotent; 2**n coefficients of 2**-n."""
    if n < 1:
        raise ValueError("need at least one qubit")
    _dense.check_cap(n, "vacuum")
    c = np.array([1.0])
    for _ in range(n):
        c = np.kron(_FACTOR0, c)
    return DenseMultivector(n, c)


def right_mul_j(s: DenseMultivector) -> DenseMultivector:
    """Right multiplication by the qubit-0 bivector (the complex unit)."""
    dim = 4**s.n
    idx = np.arange(dim, dtype=np.int64)
    # per term: blade * e12 at qubit 0 flips sign iff the term carries e2 there
    sign = 1 - 2 * ((idx >> 1) & 1)
    out = np.empty(dim)
    out[idx ^ 3] = s.c * sign
    return DenseMultivector(s.n, out)


@lru_cache(maxsize=None)
def _basis(n: int):
    """Columns: dense coefficients of B_b for all b, then of B_b * J.

    The columns are pairwise orthogonal (their per-qubit support classes
    differ, or the overlapping factors (e2 - e12)/2 and (e2 + e12)/2 are
    orthogonal) with squared norm 2**-n, so the dual basis is the scaled
    transpose and expansion coefficients come out exact for exact inputs.

    Returns (columns matrix, dual matrix).
    """
    dim = 4**n
    half = 2**n
    cols = np.empty((dim, 2 * half))
    for b in range(half):
        c = np.array([1.0])
        for j in reversed(range(n)):  # qubit 0 ends up at the low index bits
            bit = (b >> (n - 1 - j)) & 1
            c = np.kron(c, _FACTOR1 if bit else _FACTOR0)
        cols[:, b] = c
    for b in range(half):
        cols[:, half + b] = right_mul_j(DenseMultivector(n, cols[:, b])).c
    dual = cols.T * float(2**n)
    cols.flags.writeable = False
    dual.flags.writeable = False
    return cols, dual


@dataclass(frozen=True)
class IdealState:
    """A state carried inside the algebra as a dense element of the ideal."""

    n: int
    psi: DenseMultivector

    def __post_init__(self):
        if self.psi.n != self.n:
            raise DimensionMismatchError(f"element on {self.psi.n} qubits, state on {self.n}")

    @classmethod
    def zero_state(cls, n: int) -> "IdealState":
        """|0...0>, the vacuum itself."""
        return cls(n, vacuum(n))


def theta(g: DenseMultivector) -> IdealState:
    """Prepare a state from an algebra element: multiply onto the vacuum."""
    return IdealState(g.n, dense_gp(g, vacuum(g.n)))


def to_statevector(s: IdealState) -> np.ndarray:
    """Complex amplitudes of a state, unnormalized.

    Raises NotInIdealError when the element is farther than MEMBERSHIP_TOL from
    its expansion over the ideal basis (it then does not encode a state).
    """
    cols, dual = _basis(s.n)
    coef = dual @ s.psi.c
    residual = np.linalg.norm(cols @ coef - s.psi.c, np.inf)
    if residual > MEMBERSHIP_TOL:
        raise NotInIdealError(f"element is {residual:.3e} away from the state space (tol {MEMBERSHIP_TOL:g})")
    half = 2**s.n
    return coef[:half] + 1j * coef[half:]


def project_v(a: DenseMultivector) -> DenseMultivector:
    """Orthogonal projection onto the state-space carrier."""
    cols, dual = _basis(a.n)
    return DenseMultivector(a.n, cols @ (dual @ a.c))


def rho_matrix(g: DenseMultivector) -> np.ndarray:
    """Matrix of left multiplication by g on the complex basis."""
    _dense.check_cap(g.n, "rho matrix")
    half = 2**g.n
    cols, dual = _basis(g.n)
    out = np.empty((half, half), dtype=complex)
    for b in range(half):
        image = dense_gp(g, DenseMultivector(g.n, cols[:, b]))
        coef = dual @ image.c
        out[:, b] = coef[:half] + 1j * coef[half:]
    return out


@dataclass(frozen=True)
class OperatorPair:
    """Complex-linear operator a*psi + b*psi*J built from two elements.

    Left multiplications alone give only real matrices; pairing one with a
    right multiplication by the complex unit covers gates such as the phase
    gate.  b = 0 recovers a plain left action.
    """

    n: int
    a: DenseMultivector
    b: DenseMultivector

    def __post_init__(self):
        if self.a.n != self.n or self.b.n != self.n:
            raise DimensionMismatchError("operator parts must match the qubit count")

    @classmethod
    def real(cls, a: DenseMultivector) -> "OperatorPair":
        return cls(a.n, a, DenseMultivector.zero(a.n))

    @classmethod
    def identity(cls, n: int) -> "OperatorPair":
        return cls.real(DenseMultivector.scalar(n, 1.0))

    def matrix(self) -> np.ndarray:
        """Complex matrix of the operator: rho(a) + i * rho(b)."""
        return rho_matrix(self.a) + 1j * rho_matrix(self.b)


def apply(op: OperatorPair, s: IdealState) -> IdealState:
    """Act on a state: a*psi plus (b*psi) times the complex unit."""
    if op.n != s.n:
        raise DimensionMismatchError(f"operator on {op.n} qubits, state on {s.n}")
    out = dense_gp(op.a, s.psi)
    if op.b.c.any():
        out = out + right_mul_j(dense_gp(op.b, s.psi))
    return IdealState(s.n, out)


def density_from_generator(a: DenseMultivector, normalize: bool = True) -> np.ndarray:
    """Projector onto the state prepared by `a`, as a complex matrix.

    Computed entirely inside the algebra as the left action of
    a * vacuum * reverse(a); with `normalize` the trace is scaled to 1,
    which matches the outer product of the normalized state vector.
    """
    p = vacuum(a.n)
    gen = dense_gp(dense_gp(a, p), reverse_dense(a))
    mat = rho_matrix(gen)
    if not normalize:
        return mat
    tr = float(np.trace(mat).real)
    if abs(tr) < 1e-14:
        raise DegenerateStateError("generator annihilates the vacuum, no projector exists")
    return mat / tr


def conjugate_evolution_check(
    a: DenseMultivector, x: DenseMultivector, tol: float = 1e-10
) -> tuple[bool, float]:
    """Check that conjugating the projector of x equals the projector of a*x.

    Compares rho(a) Pi rho(a)^dagger against the projector generated by the
    product a*x, both unnormalized.  Returns (passed, max deviation).
    """
    pi_x = density_from_generator(x, normalize=False)
    ra = rho_matrix(a)
    lhs = ra @ pi_x @ ra.conj().T
    rhs = density_from_generator(dense_gp(a, x), normalize=False)
    dev = float(np.max(np.abs(lhs - rhs)))
    return dev <= tol, dev
