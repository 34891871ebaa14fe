"""The four-dimensional real algebra of the Euclidean plane: the one-qubit case of `dense`.

Generators e1, e2 square to +1 and anticommute; the basis blades are indexed
0..3 as {1, e1, e2, e12} with e12 = e1*e2.  Bit 0 of a blade index flags an e1
factor and bit 1 an e2 factor, which is the n = 1 layout of `dense`.  The
product, its sign rule, right multiplication by J and reversion are therefore
not written here: `gp` and `reverse` are `dense_gp` and `reverse_dense`,
right multiplication by J is `ideal.right_mul_j`, a `dense_gp` with e12 on
the right, and `blade_mul` is the packed `string_mul` on one-qubit blade
strings.  What exists only for a single factor (grades, the outer and inner
products, the projector) stays in this module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dense import DenseMultivector, dense_gp, reverse_dense
from .errors import DimensionMismatchError
from .strings import BladeString, string_mul

BLADE_NAMES = ("1", "e1", "e2", "e12")

# grade = popcount of the blade index
GRADES = (0, 1, 1, 2)


class SignedBlade(NamedTuple):
    sign: int
    blade: int


def blade_mul(a: int, b: int) -> SignedBlade:
    """Product of two basis blades as a signed blade."""
    if not (0 <= a <= 3 and 0 <= b <= 3):
        raise ValueError(f"blade index out of range: {a}, {b}")
    p = string_mul(BladeString.from_codes((a,)), BladeString.from_codes((b,)))
    return SignedBlade(p.sign, p.codes[0])


class Multivector2(DenseMultivector):
    """General element c[0]*1 + c[1]*e1 + c[2]*e2 + c[3]*e12 (a dense element at n = 1)."""

    def __init__(self, c):
        super().__init__(1, c)

    @classmethod
    def zero(cls) -> "Multivector2":
        return cls(np.zeros(4))

    @classmethod
    def blade(cls, code: int, coeff: float = 1.0) -> "Multivector2":
        c = np.zeros(4)
        c[code] = coeff
        return cls(c)

    def __repr__(self) -> str:
        terms = [
            f"{coef:+g}*{name}" if name != "1" else f"{coef:+g}"
            for coef, name in zip(self.c, BLADE_NAMES)
            if coef != 0.0
        ]
        return "Multivector2(" + (" ".join(terms) or "0") + ")"


ONE = Multivector2.blade(0)
E1 = Multivector2.blade(1)
E2 = Multivector2.blade(2)
E12 = Multivector2.blade(3)
J = E12

gp = dense_gp
reverse = reverse_dense


def grade(x: DenseMultivector, k: int) -> Multivector2:
    """Projection onto the grade-k part."""
    if x.n != 1:
        raise DimensionMismatchError(f"grades are of one-qubit elements, got {x.n} qubits")
    if k not in (0, 1, 2):
        raise ValueError(f"grade must be 0, 1 or 2, got {k}")
    out = np.where([g == k for g in GRADES], x.c, 0.0)
    return Multivector2(out)


def wedge(x: DenseMultivector, y: DenseMultivector) -> DenseMultivector:
    """Outer product: grade-(r+s) part of the product of grade components."""
    ys = [grade(y, s) for s in range(3)]  # every grade of y, so that a wrong y raises even for x = 0
    out = Multivector2.zero()
    for r in range(3):
        xr = grade(x, r)
        if not xr.c.any():
            continue
        for s in range(3 - r):
            out = out + grade(gp(xr, ys[s]), r + s)
    return out


def inner(x: DenseMultivector, y: DenseMultivector) -> DenseMultivector:
    """Inner product: grade-|r-s| part of the product of grade components."""
    ys = [grade(y, s) for s in range(3)]  # every grade of y, so that a wrong y raises even for x = 0
    out = Multivector2.zero()
    for r in range(3):
        xr = grade(x, r)
        if not xr.c.any():
            continue
        for s in range(3):
            out = out + grade(gp(xr, ys[s]), abs(r - s))
    return out


def idempotent_p() -> Multivector2:
    """The primitive idempotent (1 + e1)/2; squares to itself."""
    return Multivector2((0.5, 0.5, 0.0, 0.0))
