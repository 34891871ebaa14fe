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
significant position, matching the text form of Pauli strings.  Both are
computed as the products they are defined as: B_b is `theta` of the e2 word
of b, and the complex unit is `dense_gp` with e12 at qubit 0 on the right,
so the algebra's one sign rule stays in `dense_gp`.

With that dictionary, left multiplication by e1/e2/e12 at qubit j acts as the
Pauli Z/X/iY matrix on qubit j, and preparing a state with some element and
then acting with another is the same as acting first and preparing once:
left actions and state preparation commute through the product.

A state is its element: `theta`, `apply` and `to_statevector` take or
return the `DenseMultivector` in the ideal itself, with no wrapper, and
`to_statevector` is where membership is checked.  Nothing here is
normalized: preparing with g yields a state whose norm depends on g.  The
basis has squared norm 2**-n, so sum |amp|^2 = 2**n * sum c^2.

A state's coordinates along B_b and B_b * J are one complex 2**n array,
which is the state vector.  On coordinates a blade word, the product of e1 at
the qubits of one mask and e2 at those of another (statevector bit order),
is a signed permutation: e2 flips the bits of its mask and e1 then reads its
own, so out[b] = (-1)^|e1 & b| * v[b ^ e2].  Blades on different qubits
commute (the product is the ungraded tensor product), which is what lets a
word act mask-wide.  Right multiplication by J multiplies the coordinates by
i.  `word_action` and `act` are the dense-clifford backend's engine; the
4**n elements stay as the oracle that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dense as _dense
from .cl2 import idempotent_p
from .dense import DenseMultivector, _dense_bits, dense_gp, reverse_dense
from .errors import DegenerateStateError, DimensionMismatchError, NotInIdealError

# single-qubit dense factor of the vacuum, P = (1 + e1)/2
_FACTOR0 = idempotent_p().c

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
    """Right multiplication by the complex unit, the qubit-0 bivector e12 (index 3): a product."""
    return dense_gp(s, DenseMultivector.basis_blade(s.n, 3))


@lru_cache(maxsize=None)
def _basis(n: int):
    """Columns: dense coefficients of B_b for all b, then of B_b * J.

    Each is the product it is defined as: B_b is `theta` of the e2 word of b
    and B_b * J is its `right_mul_j`.  The columns are pairwise orthogonal (their per-qubit support classes differ,
    or the overlapping factors (e2 - e12)/2 and (e2 + e12)/2 are orthogonal)
    with squared norm 2**-n, so the dual basis is the scaled transpose and
    expansion coefficients come out exact for exact inputs.

    Returns (columns matrix, dual matrix).
    """
    _dense.check_cap(n, "ideal basis")
    half = 2**n
    cols = np.empty((4**n, 2 * half))
    for b in range(half):
        state = theta(DenseMultivector.basis_blade(n, _dense_bits(n, b, 2)))
        cols[:, b] = state.c
        cols[:, half + b] = right_mul_j(state).c
    dual = cols.T * float(2**n)
    cols.flags.writeable = False
    dual.flags.writeable = False
    return cols, dual


def theta(g: DenseMultivector) -> DenseMultivector:
    """Prepare a state from an algebra element: g times the vacuum, an element of the ideal."""
    return dense_gp(g, vacuum(g.n))


def to_statevector(s: DenseMultivector) -> np.ndarray:
    """Complex amplitudes of the state that the element s of the ideal is, unnormalized.

    Raises NotInIdealError when the element is farther than MEMBERSHIP_TOL from
    its expansion over the ideal basis (it then does not encode a state).
    """
    cols, dual = _basis(s.n)
    coef = dual @ s.c
    residual = np.abs(cols @ coef - s.c).max()
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


def apply(op: OperatorPair, s: DenseMultivector) -> DenseMultivector:
    """Act on the state s, an element of the ideal: a*s plus (b*s) times the complex unit."""
    if op.n != s.n:
        raise DimensionMismatchError(f"operator on {op.n} qubits, state on {s.n}")
    out = dense_gp(op.a, s)
    if op.b.c.any():
        out = out + right_mul_j(dense_gp(op.b, s))
    return out


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


def word_action(n: int, a, b=()) -> tuple:
    """The operator a*psi + (b*psi)*J on ideal coordinates, a and b as signed blade words.

    Each word (coef, e1, e2) is the signed permutation coef * (-1)^|e1 & b| *
    v[b ^ e2]; the b words are also multiplied by i.  Words that share an e2
    mask share one gather index and add into one complex diagonal, so the
    action is (gather, diagonal) pairs, one per distinct e2 mask in increasing
    order, the gather None for the mask 0.  Each word's signs are the cached
    `dense._parity_signs` table of its e1 mask.
    """
    words = (*a, *((1j * coef, e1, e2) for coef, e1, e2 in b))
    masks = sorted({e2 for _, _, e2 in words})
    diagonals = np.zeros((len(masks), 2**n), dtype=complex)
    for coef, e1, e2 in words:
        diagonals[masks.index(e2)] += complex(coef) * _dense._parity_signs(n, e1)
    idx = _dense._index(n)
    return tuple((idx ^ e2 if e2 else None, d) for e2, d in zip(masks, diagonals))


def act(action: tuple, v: np.ndarray) -> np.ndarray:
    """Apply a `word_action` to coordinates: the sum of diagonal * v[gather] over its pairs."""
    out = None
    for gather, diagonal in action:
        term = diagonal * (v if gather is None else v[gather])
        out = term if out is None else out + term
    return out
