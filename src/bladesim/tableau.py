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
the destabilizer bits select, and leaves the tableau untouched.  `measure` is
that routine, once; `measure_z` is `measure` with a drawn bit for each random
outcome.

The tableau is symplectic, so its inverse needs no columns of its own: with
the two halves of `xs[q]` exchanged, it selects the rows whose product is
Z_q, and those of `zs[q]` give X_q.  Only the inverse's signs are kept, as
in Stim (Gidney, arXiv:2103.02202): the phases `kz[q]` and `kx[q]` mod 4 of
those two products, so that a deterministic outcome reads `kz[q]` and scans
no column.  A gate G changes the phases of its own qubits' letters only,
each to the phase of the backward image G^-1 L G, the forward image of the
inverse gate: a letter's phase, or for a two-letter image both phases plus
the sign of reordering the two row products, one popcount.  A random outcome
updates the phases of the letters that anticommute with the pivot row inside
its column loop.  `_product`, the column scan, stays for `expectation` and
as the tests' reference.

`rows`, `destabilizers` and `stabilizers` are read-only PauliString views,
built by transposing the columns.
"""

from __future__ import annotations

import numpy as np

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


def _phase_rule(images) -> tuple:
    """Per letter X, Z: (code c of its image, -e mod 4) for an image i^e X^(c & 1) Z^(c >> 1).

    A minus sign is e = 2, and Y = i X Z adds 1.
    """
    codes = [_LETTERS.index(image.lstrip("-")) for image in images[:2]]
    return tuple((c, -(2 * (image[0] == "-") + (c == 3)) % 4) for c, image in zip(codes, images))


_INVERSE = {"s": "sdg", "sdg": "s"}  # every other single-qubit gate is its own inverse
# per gate, the column rule read off its images and the phase rule read off its
# backward images G^-1 L G, which are the images of the inverse gate
_RULES = {gate: (_rule(images), _phase_rule(_IMAGES[_INVERSE.get(gate, gate)])) for gate, images in _IMAGES.items()}
_SIGN_BYTES = np.frombuffer(b"+-", dtype=np.uint8)
# entry a: the eight bits of byte a, bit k in byte k of one 8-byte word
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little").view("<u8").ravel()
# a letter's byte from its x and z bits is I + 15x + 17z - 16xz (I, X, Z, Y
# are 73, 88, 90, 89); no byte leaves 0..255, so a word computes eight at once
_EIGHT_I = np.uint64(int.from_bytes(b"I" * 8, "little"))


def _indices(mask: int):
    """The positions of the set bits of a nonnegative mask, lowest first."""
    if not mask & (mask - 1):  # zero or one set bit: no bin() over the whole bit length
        if mask:
            yield mask.bit_length() - 1
        return
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
    random outcome.  Bit i of `live` is set for every row whose mask may be
    nonzero, so that a deterministic outcome visits only those rows' masks.
    `kz[q]` and `kx[q]` are the inverse tableau's signs: the ordered product of
    the rows `_swap_halves(xs[q])` selects is i^kz[q] Z_q with the constant
    signs, and that of `_swap_halves(zs[q])` is i^kx[q] X_q.
    """

    __slots__ = ("n", "xs", "zs", "r", "vars", "live", "kz", "kx")

    _GATE_METHODS = frozenset(ONE_QUBIT_GATES + TWO_QUBIT_GATES)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.xs: list[int] = [1 << j for j in range(n)]
        self.zs: list[int] = [1 << (n + j) for j in range(n)]
        self.r = 0
        self.vars: list[int] = [0] * (2 * n)
        self.live = 0
        self.kz: list[int] = [0] * n
        self.kx: list[int] = [0] * n

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n, t.xs, t.zs, t.r, t.vars, t.live = self.n, list(self.xs), list(self.zs), self.r, list(self.vars), self.live
        t.kz, t.kx = list(self.kz), list(self.kx)
        return t

    def _swap_halves(self, c: int) -> int:
        """A 2n-bit row mask with its destabilizer and stabilizer halves exchanged.

        Applied to a column, it selects the rows whose product is that
        column's letter: Z_q for `xs[q]`, X_q for `zs[q]`.
        """
        n = self.n
        return ((c & ((1 << n) - 1)) << n) | (c >> n)

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
        """One row per line with explicit sign, e.g. '+XX'.

        The stabilizer halves of the columns, and of the signs, become one
        byte matrix with a row per byte index: byte j of a column holds
        stabilizers 8j..8j+7.  A column's x byte and z byte give those eight
        rows' letters at once, as the bytes of one word, and a transpose puts
        them in row order.  The text is decoded once and cut into lines.
        """
        n = self.n
        size = (n + 7) // 8
        data = b"".join((c >> n).to_bytes(size, "little") for c in (*self.xs, *self.zs, self.r))
        cols = np.ascontiguousarray(np.frombuffer(data, dtype=np.uint8).reshape(-1, size).T)
        x, z = _BITS[cols[:, :n]], _BITS[cols[:, n : 2 * n]]
        letters = _EIGHT_I + np.uint64(15) * x + np.uint64(17) * z - np.uint64(16) * (x & z)
        lines = np.empty((n, n + 1), dtype=np.uint8)
        lines[:, 0] = _SIGN_BYTES[np.unpackbits(cols[:, 2 * n], count=n, bitorder="little")]
        lines[:, 1:] = letters.view(np.uint8).reshape(size, n, 8).transpose(0, 2, 1).reshape(8 * size, n)[:n]
        text = lines.tobytes().decode()
        return [text[i : i + n + 1] for i in range(0, n * (n + 1), n + 1)]

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
        masks, ((cx, ex), (cz, ez)) = rule
        x, z = self.xs[q], self.zs[q]
        y = x & z
        self.xs[q], self.zs[q], flip = [(x & a) ^ (z & b) ^ (y & c) for a, b, c in masks]
        self.r ^= flip
        # k[c]: the phase of X^(c & 1) Z^(c >> 1) as a product of rows; X Z's
        # adds a - for each stabilizer of X's whose destabilizer is one of Z's,
        # the pairs that anticommute when the two products merge into row order
        k = [0, self.kx[q], self.kz[q], 0]
        if cx == 3 or cz == 3:
            k[3] = k[1] + k[2] + 2 * (z & (x >> self.n)).bit_count()
        self.kx[q], self.kz[q] = (k[cx] + ex) & 3, (k[cz] + ez) & 3
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
        xs, zs, kx, kz, n = self.xs, self.zs, self.kx, self.kz, self.n
        kz[t] = (kz[c] + kz[t] + 2 * (xs[c] & (xs[t] >> n)).bit_count()) & 3
        kx[c] = (kx[c] + kx[t] + 2 * (zs[c] & (zs[t] >> n)).bit_count()) & 3
        self.r ^= xs[c] & zs[t] & ~(xs[t] ^ zs[c])
        xs[t] ^= xs[c]
        zs[c] ^= zs[t]
        return self

    def cz(self, c: int, t: int) -> "Tableau":
        # X_c -> X_c Z_t, X_t -> Z_c X_t; sign flips when x_c x_t (z_c != z_t)
        self._check(c, t)
        xs, zs, kx, kz, n = self.xs, self.zs, self.kx, self.kz, self.n
        kx[c], kx[t] = (
            (kx[c] + kz[t] + 2 * (zs[c] & (xs[t] >> n)).bit_count()) & 3,
            (kz[c] + kx[t] + 2 * (xs[c] & (zs[t] >> n)).bit_count()) & 3,
        )
        self.r ^= xs[c] & xs[t] & (zs[c] ^ zs[t])
        zs[c] ^= xs[t]
        zs[t] ^= xs[c]
        return self

    def swap(self, a: int, b: int) -> "Tableau":
        self._check(a, b)
        xs, zs, kx, kz = self.xs, self.zs, self.kx, self.kz
        xs[a], xs[b], zs[a], zs[b] = xs[b], xs[a], zs[b], zs[a]
        kx[a], kx[b], kz[a], kz[b] = kx[b], kx[a], kz[b], kz[a]
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
        sign of the new stabilizer Z_q; `draw` is called once, before the
        tableau changes.  A deterministic outcome is the sign of the
        product of stabilizers selected by the destabilizer bits: the stored
        phase `kz[q]` for the constant, and the masks of the selected live
        rows; it leaves the tableau untouched.
        """
        self._check(q)
        n, xs, zs, var, kx, kz = self.n, self.xs, self.zs, self.vars, self.kx, self.kz
        anti = xs[q]  # the rows that anticommute with Z_q
        stab = anti >> n
        if stab:
            p = n + (stab & -stab).bit_length() - 1
            bp, bd = 1 << p, 1 << (p - n)
            moved = bp | bd
            keep, targets = ~moved, anti & ~moved
            const, mask = draw()
            # a letter that anticommutes with row p gains Z_q's old phase, the new
            # sign, and the sign of merging its rows with Z_q's (one popcount)
            gain = kz[q] + 2 * const
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
                    if px:  # Z_j anticommutes with row p
                        kz[j] = (kz[j] + gain + 2 * (x & stab).bit_count()) & 3
                        x ^= targets
                    if pz:  # so does X_j
                        kx[j] = (kx[j] + gain + 2 * (z & stab).bit_count()) & 3
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
                self.live |= targets | bd
            self.r = (self.r ^ hi ^ (targets if sign_p else 0)) & keep | (sign_p << (p - n)) | (const << p)
            var[p - n], var[p] = var_p, mask
            if mask:
                self.live |= bp
            return const, mask, False
        mask = 0
        for i in _indices((anti << n) & self.live):  # the stabilizers whose product is +-Z_q
            mask ^= var[i]
        return kz[q] >> 1, mask, True

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
        flipped = 0
        for i, v in enumerate(self.vars):
            if v:
                if (v & values).bit_count() & 1:
                    flipped |= 1 << i
                self.vars[i] = 0
        self.r ^= flipped
        self.live = 0
        if flipped:  # a letter's phase counts the flipped rows _swap_halves(column) selects
            flipped = self._swap_halves(flipped)
            self.kz = [(k + 2 * (c & flipped).bit_count()) & 3 for k, c in zip(self.kz, self.xs)]
            self.kx = [(k + 2 * (c & flipped).bit_count()) & 3 for k, c in zip(self.kx, self.zs)]
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
