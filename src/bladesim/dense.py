"""Dense elements of the n-qubit blade algebra (the small-n oracle).

A general element carries 4**n real coefficients, indexed by packing the
per-qubit blade index of each factor into two bits: qubit j occupies bits
2j and 2j+1, with bit 2j flagging e1 and bit 2j+1 flagging e2.  The blade
index of a product term is then the XOR of the operand indices, and the sign
is a parity of colliding (e2 left, e1 right) bits, exactly as for packed
strings but summed over all coefficient pairs; each mask's signs are one
cached table (`_parity_signs`), read at the gathered index.

Products cost 16**n coefficient pairs, so everything here is capped at
ORACLE_CAP qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .strings import BladeString

ORACLE_CAP = 5


def check_cap(n: int, what: str = "dense oracle", cap: int = ORACLE_CAP) -> None:
    if n > cap:
        raise CapacityError(f"{what} supports at most {cap} qubits, got {n}")


@lru_cache(maxsize=None)
def _e1_bits(n: int) -> int:
    # mask of the e1 flag bit of every qubit: bits 0, 2, 4, ...
    return sum(1 << (2 * q) for q in range(n))


@lru_cache(maxsize=None)
def _index(bits: int) -> np.ndarray:
    """Read-only int64 0, 1, ..., 2**bits - 1."""
    idx = np.arange(2**bits, dtype=np.int64)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=256)
def _parity_signs(bits: int, mask: int) -> np.ndarray:
    """Read-only float64 (-1)**popcount(i & mask) for every i < 2**bits.

    Products and word actions take bits <= 12, so a table is at most 32 KB and
    the 256 cached tables 8 MB; a whole run touches a few dozen masks.
    """
    signs = 1.0 - 2.0 * (np.bitwise_count(_index(bits) & mask) & 1)
    signs.flags.writeable = False
    return signs


@dataclass(frozen=True, eq=False)
class DenseMultivector:
    """Element of the n-qubit algebra with all 4**n coefficients stored."""

    n: int
    c: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        c = np.array(self.c, dtype=np.float64)
        if c.shape != (4**self.n,):
            raise ValueError(f"expected 4**{self.n} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @classmethod
    def zero(cls, n: int) -> "DenseMultivector":
        return cls(n, np.zeros(4**n))

    @classmethod
    def scalar(cls, n: int, value: float) -> "DenseMultivector":
        return cls.basis_blade(n, 0, value)

    @classmethod
    def basis_blade(cls, n: int, index: int, coeff: float = 1.0) -> "DenseMultivector":
        c = np.zeros(4**n)
        c[index] = coeff
        return DenseMultivector(n, c)

    @classmethod
    def from_blade_string(cls, b: BladeString) -> "DenseMultivector":
        index = 0
        for j, code in enumerate(b.codes):
            index |= code << (2 * j)
        return cls.basis_blade(b.n, index, float(b.sign))

    def __add__(self, other: "DenseMultivector") -> "DenseMultivector":
        _same_n(self, other)
        return DenseMultivector(self.n, self.c + other.c)

    def __sub__(self, other: "DenseMultivector") -> "DenseMultivector":
        _same_n(self, other)
        return DenseMultivector(self.n, self.c - other.c)

    def __neg__(self) -> "DenseMultivector":
        return DenseMultivector(self.n, -self.c)

    def __mul__(self, other):
        if isinstance(other, DenseMultivector):
            return dense_gp(self, other)
        return DenseMultivector(self.n, self.c * float(other))

    def __rmul__(self, other) -> "DenseMultivector":
        return DenseMultivector(self.n, self.c * float(other))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMultivector)
            and self.n == other.n
            and np.array_equal(self.c, other.c)
        )

    def __hash__(self):
        return hash((self.n, self.c.tobytes()))

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self.c))
        return f"DenseMultivector(n={self.n}, nnz={nnz})"


def _same_n(a: DenseMultivector, b: DenseMultivector) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"dense elements on {a.n} and {b.n} qubits")


def local_blade(n: int, qubit: int, code: int, coeff: float = 1.0) -> DenseMultivector:
    """A single-qubit blade embedded at `qubit`, identity elsewhere."""
    if not 0 <= code <= 3:
        raise ValueError(f"blade index out of range: {code}")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return DenseMultivector.basis_blade(n, code << (2 * qubit), coeff)


def _dense_bits(n: int, mask: int, code: int) -> int:
    """Dense index bits of blade `code` (1 = e1, 2 = e2) at every qubit of a statevector-order mask."""
    return sum(code << (2 * q) for q in range(n) if (mask >> (n - 1 - q)) & 1)


def dense_gp(a: DenseMultivector, b: DenseMultivector) -> DenseMultivector:
    """Geometric product: all coefficient pairs, XOR index, parity sign.

    One loop over the sparser operand's nonzero terms i, each adding a
    vectorized gather of the other operand at o ^ i into out[o].  Only the
    collision mask depends on i's side (its e2 bits moved onto e1 on the
    left, its e1 bits onto e2 on the right); the other operand is signed by
    the mask's table before the gather, so the sign is read at the gathered index.
    """
    _same_n(a, b)
    check_cap(a.n, "dense product")
    bits = 2 * a.n
    e1bits = _e1_bits(a.n)
    idx = _index(bits)
    out = np.zeros(4**a.n)
    left = np.count_nonzero(a.c) <= np.count_nonzero(b.c)
    sparse, other = (a, b) if left else (b, a)
    for i in np.flatnonzero(sparse.c):
        i = int(i)
        mask = (i >> 1) & e1bits if left else (i & e1bits) << 1
        out += sparse.c[i] * (other.c * _parity_signs(bits, mask)).take(idx ^ i)
    return DenseMultivector(a.n, out)


def tensor(a: DenseMultivector, b: DenseMultivector) -> DenseMultivector:
    """Graft `b`'s qubits after `a`'s: coefficients multiply, indices concatenate."""
    # result index = a-index | (b-index << 2*a.n), which is a Kronecker layout
    return DenseMultivector(a.n + b.n, np.kron(b.c, a.c))


def reverse_dense(a: DenseMultivector) -> DenseMultivector:
    """Reversion applied factor by factor: sign flip per local e12."""
    idx = np.arange(4**a.n, dtype=np.int64)
    flips = np.bitwise_count(idx & (idx >> 1) & _e1_bits(a.n)).astype(np.int64) & 1
    return DenseMultivector(a.n, a.c * (1 - 2 * flips))
