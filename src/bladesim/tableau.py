"""Stabilizer tableau engine stored by qubit column.

State of n qubits as 2n generator rows: rows 0..n-1 are destabilizers, rows
n..2n-1 stabilizers.  The fresh state |0...0> has destabilizer j = X_j and
stabilizer j = Z_j, all signs +.  The rows are stored by qubit, as in CHP
(Aaronson & Gottesman, quant-ph/0406196): bit i of the integers `xs[q]` and
`zs[q]` is row i's x and z bit at qubit q, and bit i of the integer `r` is
row i's sign (set for -).  A gate on qubit q rewrites only q's columns, a few
operations on 2n-bit integers whatever the rows hold.

A row's sign is its constant bit times (-1) to the parity of a GF(2)
variable mask, `vars[i]`: bit r of the mask stands for the r-th random
outcome.  Gates flip only the constant; row products XOR the masks.  Whether
a measurement is random depends only on the x/z bits, so a circuit measured
once with every random outcome left as a fresh variable gives each outcome of
every shot as a parity of that shot's draws.  A tableau measured only through
`measure_z` keeps every mask 0.

A single-qubit gate is its table of signed images of the letters X, Z, Y.
Each image bit and each sign flip is a boolean function of a row's x and z
bits at the qubit, so the gate's new columns and sign flips are XORs of x, z
and x & z with coefficients read off the table: H swaps the columns and flips
the Y rows' signs.  CNOT, CZ and SWAP are column formulas too.  Measurement
follows the standard destabilizer bookkeeping, bit-parallel across rows: a
random outcome multiplies the first anticommuting stabilizer (by row index)
into every other anticommuting row one column at a time, counting each row's
phase mod 4 in two bit-sliced integers, then replaces that stabilizer; a
deterministic outcome is the sign of the ordered product of the stabilizers
the destabilizer bits select, summed column by column, and leaves the tableau
untouched.  `measure` is that routine, once; `measure_z` is `measure` with a
drawn bit for each random outcome.

`rows`, `destabilizers` and `stabilizers` are read-only PauliString views,
built by transposing the columns.
"""

from __future__ import annotations

from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, GateOp
from .errors import DimensionMismatchError, TableauInvariantError

# `pauli_mul` stays a module global, unused here: perfbench/tracing.py patches it by name
from .strings import _LETTERS, PauliString, _pauli, pauli_mul  # noqa: F401

# conjugation images of X, Z, Y, i.e. of the letter codes 1, 2, 3
_IMAGES = {
    "h": ("Z", "X", "-Y"),
    "s": ("Y", "Z", "-X"),
    "sdg": ("-Y", "Z", "X"),
    "x": ("X", "-Z", "-Y"),
    "y": ("-X", "-Z", "Y"),
    "z": ("-X", "Z", "-Y"),
}


def _rule(images) -> tuple:
    """Masks (a, b, c) of the new x bit, the new z bit and the sign flip.

    Each is a boolean function f of a row's (x, z) bits with f(I) = 0, read
    off the images of X, Z and Y, and written f = (x & a) ^ (z & b) ^ (x & z & c)
    with each mask 0 or -1.
    """
    codes = [_LETTERS.index(image.lstrip("-")) for image in images]
    bits = ([c & 1 for c in codes], [c >> 1 for c in codes], [int(image[0] == "-") for image in images])
    return tuple((-fx, -fz, -(fx ^ fz ^ fy)) for fx, fz, fy in bits)


_RULES = {gate: _rule(images) for gate, images in _IMAGES.items()}
_OCTAL_LETTERS = str.maketrans("0123", "".join(_LETTERS))  # letter code x + 2z as a digit


def _indices(mask: int):
    """The positions of the set bits of a nonnegative mask, lowest first."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _column_bits(cols: list[int], lo: int, hi: int) -> list[str]:
    """Bits lo..hi-1 of each column as a '0'/'1' string, bit hi-1 first."""
    w = hi - lo
    mask = (1 << w) - 1
    return [format((c >> lo) & mask, f"0{w}b") for c in cols]


def _transpose(text: list[str]) -> list[str]:
    """Per-column strings (last row first) as per-row strings (column 0 first), first row first."""
    return ["".join(chars) for chars in zip(*text)][::-1]


class Tableau:
    """Mutable stabilizer state; deep-copy before sharing.

    `xs[q]` and `zs[q]` hold qubit q's column of the 2n generators and `r`
    their constant signs, row i at bit i; `vars[i]` is the GF(2) variable
    mask of row i's sign, 0 until `measure` is given a fresh variable for a
    random outcome.
    """

    __slots__ = ("n", "xs", "zs", "r", "vars")

    _GATE_METHODS = frozenset(ONE_QUBIT_GATES + TWO_QUBIT_GATES)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.xs: list[int] = [1 << j for j in range(n)]
        self.zs: list[int] = [1 << (n + j) for j in range(n)]
        self.r = 0
        self.vars: list[int] = [0] * (2 * n)

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n, t.xs, t.zs, t.r, t.vars = self.n, list(self.xs), list(self.zs), self.r, list(self.vars)
        return t

    def _rows(self, lo: int, hi: int) -> list[PauliString]:
        n = self.n
        xt, zt = _transpose(_column_bits(self.xs, lo, hi)), _transpose(_column_bits(self.zs, lo, hi))
        return [
            _pauli(n, int(x[::-1], 2), int(z[::-1], 2), 2 * ((self.r >> i) & 1))
            for i, x, z in zip(range(lo, hi), xt, zt)
        ]

    @property
    def rows(self) -> list[PauliString]:
        return self._rows(0, 2 * self.n)

    @property
    def destabilizers(self) -> list[PauliString]:
        return self._rows(0, self.n)

    @property
    def stabilizers(self) -> list[PauliString]:
        return self._rows(self.n, 2 * self.n)

    def stabilizer_lines(self) -> list[str]:
        """One row per line with explicit sign, e.g. '+XX'."""
        n = self.n
        # read as octal, a column's x and z bit strings add up to one digit x + 2z per row
        letters = [
            format(int(x, 8) + 2 * int(z, 8), f"0{n}o").translate(_OCTAL_LETTERS)
            for x, z in zip(_column_bits(self.xs, n, 2 * n), _column_bits(self.zs, n, 2 * n))
        ]
        return [("-" if (self.r >> i) & 1 else "+") + row for i, row in zip(range(n, 2 * n), _transpose(letters))]

    def __str__(self) -> str:
        return "\n".join(self.stabilizer_lines())

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError("control and target must differ")

    def _conjugate(self, rule: tuple, q: int) -> "Tableau":
        self._check(q)
        x, z = self.xs[q], self.zs[q]
        y = x & z
        self.xs[q], self.zs[q], flip = [(x & a) ^ (z & b) ^ (y & c) for a, b, c in rule]
        self.r ^= flip
        return self

    def h(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["h"], q)

    def s(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["s"], q)

    def sdg(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["sdg"], q)

    def x(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["x"], q)

    def y(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["y"], q)

    def z(self, q: int) -> "Tableau":
        return self._conjugate(_RULES["z"], q)

    def cnot(self, c: int, t: int) -> "Tableau":
        # X_c -> X_c X_t, Z_t -> Z_c Z_t; sign flips when x_c z_t (x_t == z_c)
        self._check(c, t)
        xs, zs = self.xs, self.zs
        self.r ^= xs[c] & zs[t] & ~(xs[t] ^ zs[c])
        xs[t] ^= xs[c]
        zs[c] ^= zs[t]
        return self

    def cz(self, c: int, t: int) -> "Tableau":
        # X_c -> X_c Z_t, X_t -> Z_c X_t; sign flips when x_c x_t (z_c != z_t)
        self._check(c, t)
        xs, zs = self.xs, self.zs
        self.r ^= xs[c] & xs[t] & (zs[c] ^ zs[t])
        zs[c] ^= xs[t]
        zs[t] ^= xs[c]
        return self

    def swap(self, a: int, b: int) -> "Tableau":
        self._check(a, b)
        xs, zs = self.xs, self.zs
        xs[a], xs[b], zs[a], zs[b] = xs[b], xs[a], zs[b], zs[a]
        return self

    def apply_gate(self, op: GateOp) -> "Tableau":
        """Apply one unitary gate; use `measure_z` for measurements."""
        if op.is_measure:
            raise ValueError("measurements need a random stream, use measure_z")
        if op.kind not in self._GATE_METHODS:
            raise ValueError(f"unknown gate kind {op.kind!r}")
        return getattr(self, op.kind)(*op.qubits)

    def _product(self, rows: int) -> tuple[int, int, int]:
        """Qubit masks x, z and phase exponent k of the product of the selected rows.

        The rows multiply in increasing order.  Telescoping `pauli_mul` over
        them gives k = sum k_a + 3 sum |x_a & z_a| + 2 sum_{a<b} |x_a & z_b|
        + |x & z| (mod 4), each sum taken column by column; at one column the
        parity of the pair sum counts the z bits under an odd prefix of x bits.
        """
        k = 2 * (self.r & rows).bit_count()
        x = z = 0
        span = rows.bit_length()
        for j, (cx, cz) in enumerate(zip(self.xs, self.zs)):
            u, w = cx & rows, cz & rows
            if u:
                x |= (u.bit_count() & 1) << j
            if w:
                z |= (w.bit_count() & 1) << j
            if u and w:
                odd, shift = u, 1  # odd prefix: bit b is the parity of u's bits 0..b
                while shift < span:
                    odd ^= odd << shift
                    shift <<= 1
                k += 3 * (u & w).bit_count() + 2 * ((odd << 1) & w).bit_count()
        k += (x & z).bit_count()
        return x, z, k % 4

    def measure(self, q: int, draw) -> tuple[int, int, bool]:
        """Measure Z on qubit q; returns (constant, variable mask, deterministic flag).

        The outcome is the constant bit XOR the parity of the variables the
        mask selects.  A random outcome is the (constant, mask) pair `draw()`
        returns: a drawn bit with mask 0, or a fresh variable.  It becomes the
        sign of the new stabilizer Z_q.  A deterministic outcome is the sign
        of the product of stabilizers selected by the destabilizer bits, and
        leaves the tableau untouched.
        """
        self._check(q)
        n, xs, zs, var = self.n, self.xs, self.zs, self.vars
        anti = xs[q]  # the rows that anticommute with Z_q
        stab = anti >> n
        if stab:
            p = n + (stab & -stab).bit_length() - 1
            bp, bd = 1 << p, 1 << (p - n)
            moved = bp | bd
            keep, targets = ~moved, anti & ~moved
            lo = hi = 0  # bit-sliced phase of each target row's product, mod 4
            for j in range(n):
                x, z = xs[j], zs[j]
                if not (x & moved or z & moved):  # column q always has row p's x bit
                    continue
                px, pz = (x >> p) & 1, (z >> p) & 1
                if px or pz:
                    tx, tz = x & targets, z & targets
                    # letter of row p times the target's letter: +1 (i) or +3 (-i)
                    if px and pz:  # Y: YZ = iX, YX = -iZ
                        plus, minus = tz & ~tx, tx & ~tz
                    elif px:  # X: XY = iZ, XZ = -iY
                        plus, minus = tx & tz, tz & ~tx
                    else:  # Z: ZX = iY, ZY = -iX
                        plus, minus = tx & ~tz, tx & tz
                    step = plus | minus
                    hi ^= (lo & step) ^ minus
                    lo ^= step
                    if px:
                        x ^= targets
                    if pz:
                        z ^= targets
                # row p moves to row p - n, and row p becomes Z_q
                xs[j] = (x & keep) | (px << (p - n))
                zs[j] = (z & keep) | (pz << (p - n)) | (bp if j == q else 0)
            if lo:
                raise TableauInvariantError("a row product left an imaginary phase")
            sign_p, var_p = (self.r >> p) & 1, var[p]
            if var_p:
                for i in _indices(targets):
                    var[i] ^= var_p
            const, mask = draw()
            self.r = (self.r ^ hi ^ (targets if sign_p else 0)) & keep | (sign_p << (p - n)) | (const << p)
            var[p - n], var[p] = var_p, mask
            return const, mask, False
        selected = (anti & ((1 << n) - 1)) << n
        x, z, k = self._product(selected)
        if x != 0 or z != 1 << q:
            raise TableauInvariantError("deterministic outcome did not reduce to a Z letter")
        mask = 0
        for i in _indices(selected):
            mask ^= var[i]
        return k >> 1, mask, True

    def measure_z(self, q: int, rng) -> tuple[int, bool]:
        """Measure Z on qubit q; returns (outcome, deterministic flag).

        This is `measure` with each random outcome one bit drawn from `rng`
        (anything with an `integers` method, e.g. numpy Generator), so on a
        tableau without variables every mask stays 0 and the outcome is the
        constant.  Random outcomes update the tableau; deterministic ones
        leave it untouched.
        """
        outcome, _, deterministic = self.measure(q, lambda: (int(rng.integers(0, 2)), 0))
        return outcome, deterministic

    def assign(self, values: int) -> "Tableau":
        """Substitute bit r of `values` for variable r in every row sign."""
        for i, v in enumerate(self.vars):
            if v:
                if (v & values).bit_count() & 1:
                    self.r ^= 1 << i
                self.vars[i] = 0
        return self

    def expectation(self, p: PauliString) -> int:
        """Expectation of a signed Pauli string: +1, -1 or 0.

        +1/-1 when the string (with its sign) lies in the stabilizer group,
        0 when it anticommutes with some stabilizer.  Reads the constant
        signs only, so it is meant for a tableau without variables.
        """
        if p.n != self.n:
            raise DimensionMismatchError(f"string on {p.n} qubits, tableau on {self.n}")
        if p.k % 2:
            raise ValueError("expectation needs a Hermitian string (even phase exponent)")
        n = self.n
        anti = 0  # the rows that anticommute with p
        for q in _indices(p.x):
            anti ^= self.zs[q]
        for q in _indices(p.z):
            anti ^= self.xs[q]
        if anti >> n:
            return 0
        # destabilizer j anticommutes with stabilizer j only, so the bits of a
        # commuting string decompose along the stabilizers its destabilizers flag
        x, z, k = self._product((anti & ((1 << n) - 1)) << n)
        if x != p.x or z != p.z:
            raise TableauInvariantError("commuting string is outside the stabilizer span")
        return 1 if k == p.k else -1

    def check_invariants(self) -> None:
        """Raise TableauInvariantError unless the group structure is intact."""
        n = self.n
        if any(c >> (2 * n) for c in (self.r, *self.xs, *self.zs)):
            raise TableauInvariantError(f"bits set past row {2 * n - 1}")
        for i in range(2 * n):
            anti = 0  # the rows that anticommute with row i
            for x, z in zip(self.xs, self.zs):
                if (x >> i) & 1:
                    anti ^= z
                if (z >> i) & 1:
                    anti ^= x
            wrong = (anti ^ (1 << (i + n) % (2 * n))) >> (i + 1)
            if wrong:
                j = (wrong & -wrong).bit_length() + i
                which = "anticommute" if (anti >> j) & 1 else "commute"
                raise TableauInvariantError(f"rows {i} and {j} unexpectedly {which}")
        # the column rank of the 2n x 2n bit matrix is its row rank
        pivots: dict[int, int] = {}
        for cur in (*self.xs, *self.zs):
            while cur:
                b = cur.bit_length() - 1
                if b in pivots:
                    cur ^= pivots[b]
                else:
                    pivots[b] = cur
                    break
        if len(pivots) != 2 * n:
            raise TableauInvariantError("generator rows are linearly dependent over GF(2)")
