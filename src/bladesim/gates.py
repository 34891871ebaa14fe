"""Clifford gates as elements of the algebra, each written once as signed blade words.

A gate is the operator pair a*psi + (b*psi)*J, and a and b are short sums of
signed blade words.  A word (coef, e1, e2) is coef times the product of e1 at
every qubit of the e1 mask and e2 at every qubit of the e2 mask, the e1
factors first; masks are in statevector bit order, qubit q at bit n-1-q.

Most gates are plain left multiplications by a real element: H is
(e1 + e2)/sqrt(2), X is e2, Z is e1, the controlled gates combine projectors
(1 +- e1)/2 on the control with a letter on the target.  The phase gate has
no real left-multiplication form; it splits into the pair
(projector onto 0, projector onto 1) with the second part acting through the
complex unit.

The same words feed three consumers: `gate_to_operator_pair` sums them into
4**n-coefficient elements (the dense oracle), `ideal.word_action` turns them
into signed permutations of 2**n ideal coordinates (dense-clifford), and
`letter_images` conjugates Pauli words by them (the tableau's rules).
"""

from __future__ import annotations

import math

import numpy as np

from . import dense as _dense
from .circuit import ONE_QUBIT_GATES, GateOp
# `dense_gp` stays a module global, unused here: perfbench/tracing.py patches it by name
from .dense import DenseMultivector, _dense_bits, dense_gp  # noqa: F401
from .ideal import OperatorPair
from .strings import BladeString, reverse_string, string_mul

def projector_words(n: int, q: int, outcome: int) -> tuple:
    """Projector onto a measurement outcome on qubit q: (1 + e1)/2 for 0, (1 - e1)/2 for 1."""
    return (0.5, 0, 0), (0.5 if outcome == 0 else -0.5, 1 << (n - 1 - q), 0)


def gate_words(g: GateOp, n: int) -> tuple[tuple, tuple]:
    """(a words, b words) of the gate's operator pair a*psi + (b*psi)*J."""
    kind = g.kind
    bits = [1 << (n - 1 - q) for q in g.qubits]
    if kind == "h":
        s = 1.0 / math.sqrt(2.0)
        return ((s, bits[0], 0), (s, 0, bits[0])), ()
    if kind == "x":
        return ((1.0, 0, bits[0]),), ()
    if kind == "z":
        return ((1.0, bits[0], 0),), ()
    if kind == "y":
        # Y = i * (Z X): a pure right-unit action on the blade e1*e2 = -e12
        return (), ((-1.0, bits[0], bits[0]),)
    if kind in ("s", "sdg"):
        q = g.qubits[0]
        unit = 1.0 if kind == "s" else -1.0
        return projector_words(n, q, 0), tuple((unit * c, e1, e2) for c, e1, e2 in projector_words(n, q, 1))
    if kind in ("cnot", "cz"):
        c, t = bits
        e1, e2 = (0, t) if kind == "cnot" else (t, 0)  # X or Z on the target
        # (1 + e1_c)/2 + (1 - e1_c)/2 * letter_t
        return ((0.5, 0, 0), (0.5, c, 0), (0.5, e1, e2), (-0.5, c | e1, e2)), ()
    if kind == "swap":
        ab = bits[0] | bits[1]
        # (1 + e1_a e1_b + e2_a e2_b - e12_a e12_b)/2; blades on different qubits commute
        return ((0.5, 0, 0), (0.5, ab, 0), (0.5, 0, ab), (-0.5, ab, ab)), ()
    raise ValueError(f"no operator form for gate kind {kind!r}")


def letter_images(kind: str) -> tuple[tuple, tuple]:
    """Images U P U^dagger and U^dagger P U of the Pauli words P on a k-qubit gate U's qubits.

    Word c, 0 < c < 4^k, holds X (bit 2i of c), Z (bit 2i + 1) or Y = i X Z
    (both) at the gate's i-th qubit; image (c, e) is i^e times the X^x Z^z of
    those bits.  U is the a words plus i times the b words, and U^dagger is
    U's words reversed, coefficients conjugated.  For a Clifford U the
    products sum to one word coef E1 E2, with Z X = -X Z.
    """
    k = 1 if kind in ONE_QUBIT_GATES else 2
    a, b = gate_words(GateOp(kind, tuple(range(k))[::-1]), k)  # the gate's i-th qubit at statevector bit i
    u = [(unit * coef, BladeString(k, e1, e2)) for unit, words in ((1, a), (1j, b)) for coef, e1, e2 in words]
    dagger = [(coef.conjugate(), reverse_string(w)) for coef, w in u]

    def image(left, right, c):
        x, z = (sum((c >> 2 * i + j & 1) << i for i in range(k)) for j in (0, 1))
        w, cw = BladeString(k, z, x), (-1j) ** (x & z).bit_count()  # X = e2, Z = e1, Y = -i e1 e2
        terms: dict = {}
        for cl, wl in left:
            lw = string_mul(wl, w)
            for cr, wr in right:
                p = string_mul(lw, wr)
                terms[p.e1, p.e2] = terms.get((p.e1, p.e2), 0) + cl * cw * cr * p.sign
        (((e1, e2), coef),) = [t for t in terms.items() if abs(t[1]) > 0.5]
        code = sum((e2 >> i & 1) << 2 * i | (e1 >> i & 1) << 2 * i + 1 for i in range(k))
        return code, ((1, 1j, -1, -1j).index(complex(round(coef.real), round(coef.imag))) + 2 * (e1 & e2).bit_count()) % 4

    return tuple(tuple(image(left, right, c) for c in range(1, 4**k)) for left, right in ((u, dagger), (dagger, u)))


def word_element(n: int, words) -> DenseMultivector:
    """The dense element sum of coef * E1 * E2 over the words, E1 and E2 the blades of their masks.

    With every e1 factor left of every e2 factor no (e2 left, e1 right) pair
    collides, so E1 * E2 is the basis blade of the two masks' index bits, sign +.
    """
    c = np.zeros(4**n)
    for coef, e1, e2 in words:
        c[_dense_bits(n, e1, 1) | _dense_bits(n, e2, 2)] += coef
    return DenseMultivector(n, c)


def qubit_projector(n: int, q: int, outcome: int) -> DenseMultivector:
    """Projector onto a measurement outcome on one qubit: (1 + e1)/2 for 0, (1 - e1)/2 for 1."""
    return word_element(n, projector_words(n, q, outcome))


def gate_to_operator_pair(g: GateOp, n: int) -> OperatorPair:
    """Dense operator pair whose action matches the gate's unitary."""
    _dense.check_cap(n, "gate operator")
    a, b = gate_words(g, n)
    return OperatorPair(n, word_element(n, a), word_element(n, b))
