"""Stabilizer tableau engine stored by qubit column.

State of n qubits as 2n generator rows: rows 0..n-1 are destabilizers, rows
n..2n-1 stabilizers.  The fresh state |0...0> has destabilizer j = X_j and
stabilizer j = Z_j, all signs +.  The rows are stored by qubit, as in CHP
(Aaronson & Gottesman, quant-ph/0406196): bit i of the integers `xs[q]` and
`zs[q]` is row i's x and z bit at qubit q, and bit i of the integer `r` is
row i's sign (set for -).  A gate rewrites only its qubits' columns, a few
operations on 2n-bit integers whatever the rows hold, read once off its blade
words (`gates.letter_images`): XORs of the old columns, and a sign flip that
is an XOR of their ANDs (H swaps the columns and flips the Y rows' signs).

A row's sign is its constant bit times (-1) to the parity of a GF(2)
variable mask, `vars[i]`: bit r of the mask stands for the r-th random
outcome.  Gates flip only the constant; row products XOR the masks.  Whether
a measurement is random depends only on the x/z bits, so a circuit measured
once with every random outcome left as a fresh variable gives each outcome of
every shot as a parity of that shot's draws.  A tableau measured only through
`measure_z` keeps every mask 0.

Measurement follows the standard destabilizer bookkeeping, bit-parallel
across rows: a random outcome multiplies the first anticommuting stabilizer
(by row index) into every other anticommuting row one column at a time,
counting each row's phase mod 4 in two bit-sliced integers, then replaces
that stabilizer; a deterministic outcome is the sign of the ordered product
of the stabilizers the destabilizer bits select, and leaves the tableau
untouched.  `measure` is that routine, once; `measure_z` is `measure` with a
drawn bit for each random outcome.

The tableau is symplectic, so its inverse needs no columns of its own: with
the two halves of `xs[q]` exchanged, it selects the rows whose product is
Z_q, and those of `zs[q]` give X_q.  Only the inverse's signs are kept, as
in Stim (Gidney, arXiv:2103.02202): the phases `kz[q]` and `kx[q]` mod 4 of
those two products, so that a deterministic outcome reads `kz[q]` and scans
no column.  A gate G changes the phases of its own qubits' letters only,
each to the phase of the backward image G^-1 L G as a product of the old
letters, one popcount per pair of letters.  A random outcome updates the
phases of the letters that anticommute with the pivot row inside its column
loop.  `_product`, the column scan, stays for `expectation` and as the tests'
reference.

`rows`, `destabilizers` and `stabilizers` are read-only PauliString views,
built by transposing the columns.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

import numpy as np

from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, GateOp
from .errors import DimensionMismatchError, TableauInvariantError
from .gates import letter_images

# `pauli_mul` stays a module global, unused here: perfbench/tracing.py patches it by name
from .strings import PauliString, _pauli, pauli_mul  # noqa: F401


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


_Rule = namedtuple("_Rule", "arity cols flip phases")


def _rule(forward, backward) -> _Rule:
    """A k-qubit gate's rewrite of its qubits' columns, signs and phases, read off its letter images.

    A row's variable v is its x (even v) or z (odd v) bit at the gate's qubit
    v >> 1, a bit of its word in `gates.letter_images`.  Words map linearly,
    so each changed column (v, sources) is the XOR of the old columns whose
    forward images G L G^-1 hold bit v.  The sign flips where a row's word
    maps to minus a word, Y = i X Z taking one i: the XOR over `flip` of each
    monomial's AND of old columns, the Moebius transform of those signs.
    Letter l is X or Z like variable l, its rows selected by column l ^ 1.
    Each changed phase (l, e, letters, pairs) is that of the backward image
    G^-1 L G: e plus the old phases of `letters` plus 2 popcount(col_a &
    (col_b >> n)) for each (a, b) in `pairs`, their columns in order.
    """
    width = (len(forward) + 1).bit_length() - 1
    sources = [tuple(u for u in range(width) if forward[(1 << u) - 1][0] >> v & 1) for v in range(width)]
    minus = [0] + [(e - (c & c >> 1 & 0x55).bit_count()) % 4 // 2 for c, e in forward]
    flip = tuple(tuple(_indices(c)) for c in range(len(minus)) if sum(minus[d] for d in range(c + 1) if d & c == d) % 2)
    images = [backward[(1 << l) - 1] for l in range(width)]
    phases = tuple(
        (l, -e % 4, tuple(_indices(c)), tuple((a ^ 1, b ^ 1) for a, b in combinations(_indices(c), 2)))
        for l, (c, e) in enumerate(images)
        if (c, e) != (1 << l, 0)
    )
    return _Rule(width // 2, tuple((v, s) for v, s in enumerate(sources) if s != (v,)), flip, phases)


_RULES = {gate: _rule(*letter_images(gate)) for gate in ONE_QUBIT_GATES + TWO_QUBIT_GATES}


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

    def _conjugate(self, kind: str, qubits: tuple) -> "Tableau":
        rule = _RULES[kind]
        if len(qubits) != rule.arity or len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{kind} takes {rule.arity} distinct qubit(s), got {qubits}")
        n, xs, zs, kx, kz = self.n, self.xs, self.zs, self.kx, self.kz
        cols, ks = [], []  # per qubit its x and z columns, and its X and Z phases
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for n={n}")
            cols += xs[q], zs[q]
            ks += kx[q], kz[q]
        for monomial in rule.flip:
            m = -1
            for v in monomial:
                m &= cols[v]
            self.r ^= m
        for v, sources in rule.cols:
            c = 0
            for u in sources:
                c ^= cols[u]
            (zs if v & 1 else xs)[qubits[v >> 1]] = c
        for l, e, letters, pairs in rule.phases:
            for u in letters:
                e += ks[u]
            for a, b in pairs:
                e += 2 * (cols[a] & (cols[b] >> n)).bit_count()
            (kz if l & 1 else kx)[qubits[l >> 1]] = e & 3
        return self

    def h(self, q: int) -> "Tableau":
        return self._conjugate("h", (q,))

    def s(self, q: int) -> "Tableau":
        return self._conjugate("s", (q,))

    def sdg(self, q: int) -> "Tableau":
        return self._conjugate("sdg", (q,))

    def x(self, q: int) -> "Tableau":
        return self._conjugate("x", (q,))

    def y(self, q: int) -> "Tableau":
        return self._conjugate("y", (q,))

    def z(self, q: int) -> "Tableau":
        return self._conjugate("z", (q,))

    def cnot(self, c: int, t: int) -> "Tableau":
        return self._conjugate("cnot", (c, t))

    def cz(self, c: int, t: int) -> "Tableau":
        return self._conjugate("cz", (c, t))

    def swap(self, a: int, b: int) -> "Tableau":
        return self._conjugate("swap", (a, b))

    def apply_gate(self, op: GateOp) -> "Tableau":
        """Apply one unitary gate; use `measure_z` for measurements."""
        if op.kind not in _RULES:
            raise ValueError(f"unknown gate kind {op.kind!r} (measurements use measure_z)")
        return self._conjugate(op.kind, op.qubits)

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
        n, xs, zs, var, kx, kz = self.n, self.xs, self.zs, self.vars, self.kx, self.kz
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
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
        """Raise TableauInvariantError unless the group structure is intact.

        Row i must anticommute with row (i + n) mod 2n and commute with every
        other row.  The scan checks each pair i < j once, which covers the
        symmetric Gram matrix of the rows' symplectic form.  A Gram matrix
        equal to the invertible standard form makes the 2n rows independent
        over GF(2), so no rank check follows.
        """
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
