"""The paper's graded tensor product against bladesim's ungraded one.

bladesim multiplies blade words in the ungraded tensor product, where blades
on different qubits commute and e1_j, e2_j act as Z_j, X_j.  The paper builds
on the graded product, in which odd blades on different qubits anticommute:
`oracles.graded_mul`.  There the local e1_j and e2_j are no qubit's Z and X.
Dressed with a Jordan-Wigner string and a complex unit,

    D(e1_j) = i^j e12_0 ... e12_{j-1} e1_j,    D(e2_j) = i^j e12_0 ... e12_{j-1} e2_j,

they are, and D extends to every word as a multiplicative map.  The complex
unit is J acting from the right, which is i on the ideal's coordinates, so a
graded image is carried as (k, word) for i^k times the word.  A graded word
is read as a matrix through the signed Jordan-Wigner Majoranas

    G(e1_j) = (-1)^j Y_0 ... Y_{j-1} Z_j,    G(e2_j) = (-1)^j Y_0 ... Y_{j-1} X_j,

which anticommute pairwise and square to 1, so G represents the graded
algebra; G(D(w)) must be the ungraded dictionary's matrix of w.  Every word
and pair of words is checked at n <= 3, and random words at n = 2^10.
"""

import itertools
import random

import numpy as np
import pytest

from bladesim.strings import BladeString, PauliString, blade_to_pauli, pauli_mul, string_mul
from oracles import blade_string_matrix, graded_mul, pauli_matrix_oracle

BIG_N = 2**10


def words(n: int) -> list:
    return [BladeString(n, e1, e2) for e1, e2 in itertools.product(range(2**n), repeat=2)]


def random_words(n: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [BladeString(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))) for _ in range(count)]


def complex_mul(a: tuple, b: tuple) -> tuple:
    """(k, word) for i^k * word, the word's sign folded into k, multiplied in the graded product."""
    w = graded_mul(a[1], b[1])
    return (a[0] + b[0] + (2 if w.sign < 0 else 0)) % 4, BladeString(w.n, w.e1, w.e2)


def generator_images(n: int, j: int) -> tuple:
    """D(e1_j) and D(e2_j) as (k, word)."""
    string = (1 << j) - 1  # e12 on every qubit below j: e1 and e2 masks alike
    return (j % 4, BladeString(n, string | 1 << j, string)), (j % 4, BladeString(n, string, string | 1 << j))


def dressed(w: BladeString) -> tuple:
    """D(w): the product of the generators' images in w's order, qubit by qubit, e1 before e2."""
    image = (0 if w.sign > 0 else 2, BladeString.identity(w.n))
    for j in range(w.n):
        d1, d2 = generator_images(w.n, j)
        if w.e1 >> j & 1:
            image = complex_mul(image, d1)
        if w.e2 >> j & 1:
            image = complex_mul(image, d2)
    return image


def majorana(w: BladeString, k: int = 0) -> PauliString:
    """G(i^k * w) as a Pauli string: the product of the generators' Majoranas in w's order."""
    n = w.n
    out = PauliString(n, 0, 0, (k + (0 if w.sign > 0 else 2)) % 4)
    for j in range(n):
        string = (1 << j) - 1  # Y on every qubit below j
        if w.e1 >> j & 1:
            out = pauli_mul(out, PauliString(n, string, string | 1 << j, 2 * j % 4))
        if w.e2 >> j & 1:
            out = pauli_mul(out, PauliString(n, string | 1 << j, string, 2 * j % 4))
    return out


def test_graded_sign_by_hand():
    e1_0, e2_0, e1_1, e12_1 = (BladeString(2, *m) for m in ((1, 0), (0, 1), (2, 0), (2, 2)))
    # odd blades on different qubits anticommute; an even one commutes with everything
    assert graded_mul(e1_0, e1_1) == BladeString(2, 3, 0)
    assert graded_mul(e1_1, e1_0) == BladeString(2, 3, 0, -1)
    assert graded_mul(e12_1, e2_0) == graded_mul(e2_0, e12_1) == BladeString(2, 2, 3)
    # on one qubit the graded product is the ungraded one
    assert graded_mul(e2_0, e1_0) == string_mul(e2_0, e1_0) == BladeString(2, 1, 1, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majoranas_represent_the_graded_product(n):
    # G(a) G(b) = G(a b) on every pair, so `graded_mul` is the product of Cl(2n, 0)
    images = {w: majorana(w) for w in words(n)}
    for a, b in itertools.product(images, repeat=2):
        assert pauli_mul(images[a], images[b]) == majorana(graded_mul(a, b)), (a, b)


def test_majoranas_represent_the_graded_product_at_2_to_the_10():
    a_words, b_words = random_words(BIG_N, 4, 1), random_words(BIG_N, 4, 2)
    for a, b in zip(a_words, b_words):
        assert pauli_mul(majorana(a), majorana(b)) == majorana(graded_mul(a, b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_undressed_generators_are_not_qubits(n):
    # under the graded sign, e1_j and e1_k (j < k) anticommute; the string
    # alone restores that, but squares Z_j to (-1)^j
    for j, k in itertools.combinations(range(n), 2):
        a, b = BladeString(n, 1 << j, 0), BladeString(n, 1 << k, 0)
        assert graded_mul(a, b).sign == -graded_mul(b, a).sign
    for j in range(n):
        undressed = generator_images(n, j)[0][1]
        assert graded_mul(undressed, undressed) == BladeString(n, 0, 0, (-1) ** j)
        image = generator_images(n, j)[0]
        assert complex_mul(image, image) == (0, BladeString.identity(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dressed_map_is_multiplicative(n):
    signed = [s for w in words(n) for s in (w, -w)]
    image = {w: dressed(w) for w in signed}
    for a, b in itertools.product(signed, repeat=2):
        assert image[string_mul(a, b)] == complex_mul(image[a], image[b]), (a, b)


def test_dressed_map_is_multiplicative_at_2_to_the_10():
    for a, b in zip(random_words(BIG_N, 3, 3), random_words(BIG_N, 3, 4)):
        assert dressed(string_mul(a, b)) == complex_mul(dressed(a), dressed(b))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dressed_images_have_the_ungraded_matrices(n):
    # J read as i: G(i^k * word) is the ungraded dictionary's real matrix of w
    for w in (s for w in words(n) for s in (w, -w)):
        k, word = dressed(w)
        assert np.array_equal(pauli_matrix_oracle(majorana(word, k)), blade_string_matrix(w)), w


def test_dressed_images_have_the_ungraded_matrices_at_2_to_the_10():
    for w in random_words(BIG_N, 4, 5):
        k, word = dressed(w)
        assert majorana(word, k) == blade_to_pauli(w)
