"""Signed blade strings and Pauli strings over packed bit masks.

A simple tensor of unit blades across n qubits is stored as two n-bit integer
masks (which qubits carry an e1 factor, which an e2 factor) plus a global
sign.  A Pauli word is stored the same way as x/z masks plus a mod-4 phase
exponent.  Products then cost one XOR per mask and a couple of popcounts,
independent of how the bits are spread across the string, so a single product
is word-parallel in n.

Conventions:
  * qubit j lives at bit j of every mask; in text form qubit 0 is the
    leftmost letter.
  * PauliString(n, x, z, k) encodes i**k times the tensor product of letters
    I (x=0,z=0), X (1,0), Z (0,1), Y (1,1), with Y meaning the genuine Pauli
    Y.  Internally a Y letter is the product Z*X = i*Y, and the stray factors
    of i are folded into k by the arithmetic below.
  * the blade letters correspond as 1<->I, e1<->Z, e2<->X, e12<->i*Y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError

_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit + 2*z_bit
_DIGIT_LETTERS = {(str(c & 1), str(c >> 1)): letter for c, letter in enumerate(_LETTERS)}  # by (x, z) digit


def _check_mask(n: int, mask: int, name: str) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"{name} mask {mask:#x} does not fit in {n} bits")


@dataclass(frozen=True)
class BladeString:
    """Signed tensor product of unit blades, one per qubit."""

    n: int
    e1: int
    e2: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        _check_mask(self.n, self.e1, "e1")
        _check_mask(self.n, self.e2, "e2")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def identity(cls, n: int) -> "BladeString":
        return cls(n, 0, 0, 1)

    @classmethod
    def from_codes(cls, codes, sign: int = 1) -> "BladeString":
        """Build from a sequence of per-qubit blade indices 0..3."""
        codes = tuple(codes)
        e1 = e2 = 0
        for j, code in enumerate(codes):
            if not 0 <= code <= 3:
                raise ValueError(f"blade index out of range at qubit {j}: {code}")
            e1 |= (code & 1) << j
            e2 |= ((code >> 1) & 1) << j
        return cls(len(codes), e1, e2, sign)

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(((self.e1 >> j) & 1) | (((self.e2 >> j) & 1) << 1) for j in range(self.n))

    def __mul__(self, other: "BladeString") -> "BladeString":
        return string_mul(self, other)

    def __neg__(self) -> "BladeString":
        return BladeString(self.n, self.e1, self.e2, -self.sign)

    def __repr__(self) -> str:
        names = ("1", "e1", "e2", "e12")
        body = "(x)".join(names[c] for c in self.codes)
        return f"BladeString({'+' if self.sign > 0 else '-'}{body})"


def string_mul(a: BladeString, b: BladeString) -> BladeString:
    """Componentwise blade product; sign flips once per (e2 left, e1 right) pair."""
    if a.n != b.n:
        raise DimensionMismatchError(f"blade strings on {a.n} and {b.n} qubits")
    flips = (a.e2 & b.e1).bit_count()
    sign = a.sign * b.sign * (-1 if flips & 1 else 1)
    return _blade(a.n, a.e1 ^ b.e1, a.e2 ^ b.e2, sign)


def reverse_string(b: BladeString) -> BladeString:
    """Reversion: each local e12 factor contributes one sign flip."""
    flips = (b.e1 & b.e2).bit_count()
    return _blade(b.n, b.e1, b.e2, b.sign * (-1 if flips & 1 else 1))


def _blade(n: int, e1: int, e2: int, sign: int) -> BladeString:
    """A BladeString built without `__post_init__`'s range checks.

    Only for fields the caller knows are in range, such as XORs of in-range
    masks; `string_mul`'s products and `reverse_string`'s reversions are
    built this way.
    """
    b = object.__new__(BladeString)
    d = b.__dict__
    d["n"], d["e1"], d["e2"], d["sign"] = n, e1, e2, sign
    return b


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli word i**k * (letter_0 (x) ... (x) letter_{n-1})."""

    n: int
    x: int
    z: int
    k: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        _check_mask(self.n, self.x, "x")
        _check_mask(self.n, self.z, "z")
        if not 0 <= self.k <= 3:
            raise ValueError(f"phase exponent must be 0..3, got {self.k}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    def letter(self, qubit: int) -> str:
        return _LETTERS[((self.x >> qubit) & 1) | (((self.z >> qubit) & 1) << 1)]

    def with_phase(self, k: int) -> "PauliString":
        return PauliString(self.n, self.x, self.z, k % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def __neg__(self) -> "PauliString":
        return self.with_phase(self.k + 2)

    def __repr__(self) -> str:
        return f"PauliString({self.to_text()!r})"

    def to_text(self) -> str:
        """Phase prefix ('', 'i', '-', '-i') then letters, qubit 0 first."""
        xs, zs = (format(mask, f"0{self.n}b")[::-1] for mask in (self.x, self.z))
        return _PHASE_PREFIX[self.k] + "".join(map(_DIGIT_LETTERS.__getitem__, zip(xs, zs)))

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        s = text.strip()
        k = 0
        if s.startswith("-i"):
            k, s = 3, s[2:]
        elif s.startswith("+i") or s.startswith("i"):
            k, s = 1, s.lstrip("+")[1:]
        elif s.startswith("-"):
            k, s = 2, s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        x = z = 0
        for j, ch in enumerate(s):
            if ch == "X":
                x |= 1 << j
            elif ch == "Z":
                z |= 1 << j
            elif ch == "Y":
                x |= 1 << j
                z |= 1 << j
            elif ch != "I":
                raise ValueError(f"unknown Pauli letter {ch!r} in {text!r}")
        return cls(len(s), x, z, k)


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Product via mask XOR plus phase bookkeeping.

    Rewriting each operand as i**k' * (Z-part)(X-part) costs 3 per Y letter,
    commuting the left X-part through the right Z-part costs 2 per colliding
    bit, and reading the result back in letter form gains 1 per resulting Y.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"Pauli strings on {a.n} and {b.n} qubits")
    x = a.x ^ b.x
    z = a.z ^ b.z
    k = (
        a.k
        + b.k
        + 3 * ((a.x & a.z).bit_count() + (b.x & b.z).bit_count())
        + 2 * (a.x & b.z).bit_count()
        + (x & z).bit_count()
    ) % 4
    return _pauli(a.n, x, z, k)


def _pauli(n: int, x: int, z: int, k: int) -> PauliString:
    """A PauliString built without `__post_init__`'s range checks.

    Only for fields the caller knows are in range, such as XORs of in-range
    masks; the tableau's row views and `pauli_mul`'s products are built this way.
    """
    p = object.__new__(PauliString)
    d = p.__dict__
    d["n"], d["x"], d["z"], d["k"] = n, x, z, k
    return p


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the operators commute (symplectic product is even)."""
    if a.n != b.n:
        raise DimensionMismatchError(f"Pauli strings on {a.n} and {b.n} qubits")
    return ((a.x & b.z).bit_count() + (b.x & a.z).bit_count()) % 2 == 0


def blade_to_pauli(b: BladeString) -> PauliString:
    """The operator a signed blade string acts as, in Pauli form.

    Each local e12 is i*Y, so the phase exponent picks up one unit per e12
    factor, plus two if the global sign is negative.
    """
    k = ((b.e1 & b.e2).bit_count() + (0 if b.sign > 0 else 2)) % 4
    return PauliString(b.n, b.e2, b.e1, k)


def pauli_to_blade(p: PauliString) -> tuple[BladeString, int]:
    """Blade string acting like `p`, plus the leftover power of i.

    Returns (blades, r) with operator(p) == i**r * operator(blades); the blade
    string carries sign +1 and r is 0..3.  The result is a purely real blade
    action only when r is even.
    """
    r = (p.k + 3 * (p.x & p.z).bit_count()) % 4
    return BladeString(p.n, p.z, p.x, 1), r
