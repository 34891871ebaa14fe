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
Each rule (`_RULES`, data) is written out at import as one straight-line
Python function (`_source`, then `_compile`), which binds the old columns
and phases it reads, XORs its flip monomials into `r` and writes each changed
column and phase in one statement; `_GATES` holds these, and every gate call
runs one.  SWAP comes out as eight copies and nothing else.

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
loop.  `expectation` reads the same phases: it merges its letters' ordered
row products, one popcount per letter, and reads no column outside the
string's support.

`rows`, `destabilizers` and `stabilizers` are read-only PauliString views,
and `stabilizer_lines` their text, one read-only bytes array: both unpack
their rows from the columns as a 0/1 matrix (`_unpack`).  A view packs its x
and z halves back (`_pack`); the lines write each block of rows' letters
into one byte matrix, whose rows the array views.
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
# stabilizer_lines unpacks this many rows at a time: 64 bytes of each column
_LINE_BLOCK = 512


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


def _unpack(ints, lo: int, count: int) -> np.ndarray:
    """Bits lo..lo+count-1 of nonnegative ints as a (count, len(ints)) 0/1 uint8 array, row i from bit lo + i.

    Each int's bits become bytes, byte j holding rows 8j..8j+7, and the
    bytes a matrix with a row per byte index; that matrix shifted right by
    k = 0..7 gives rows 8j + k, already in order.
    """
    size = (count + 7) // 8
    mask = (1 << count) - 1
    data = b"".join(((c >> lo) & mask).to_bytes(size, "little") for c in ints)
    # a contiguous copy, so that the shifts read along rows: 5x faster on 1000 ints of 10^4 bits
    cols = np.ascontiguousarray(np.frombuffer(data, dtype=np.uint8).reshape(-1, size).T)
    bits = cols[:, None, :] >> np.arange(8, dtype=np.uint8)[:, None]
    bits &= 1
    return bits.reshape(8 * size, -1)[:count]


def _pack(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as one int, column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * size : (i + 1) * size], "little") for i in range(len(packed))]


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


def _refuse(kind: str, arity: int, n: int, qubits: tuple) -> None:
    """Raise the ValueError for a gate call on bad qubits: a wrong count or a repeat first, then the first out of range."""
    if len(qubits) != arity or len(set(qubits)) != arity:
        raise ValueError(f"{kind} takes {arity} distinct qubit(s), got {qubits}")
    q = next(q for q in qubits if not 0 <= q < n)
    raise ValueError(f"qubit {q} out of range for n={n}")


def _source(kind: str, rule: _Rule) -> str:
    """The Python text of `def kind(t, qubits)`, the rule written out as straight-line code.

    After the checks (`_refuse` on failure) it binds `c{v}`, the old column
    of variable v, and `k{l}`, the old phase of letter l, for those the rule
    reads; then it XORs the flip monomials into `t.r`, writes each changed
    column as an XOR of old columns and each changed phase as its sum mod 4.
    A column or phase that only moves is a plain copy, so SWAP is eight
    assignments.
    """
    arity = rule.arity
    qs = [f"q{i}" for i in range(arity)]
    reads = {v for monomial in rule.flip for v in monomial}
    reads.update(u for _, sources in rule.cols for u in sources)
    reads.update(v for *_, pairs in rule.phases for pair in pairs for v in pair)
    letters = sorted({u for _, _, used, _ in rule.phases for u in used})
    lists = sorted({v & 1 for v in reads} | {v & 1 for v, _ in rule.cols})
    signs = sorted({l & 1 for l in letters} | {l & 1 for l, *_ in rule.phases})

    cols, ks = ("xs", "zs"), ("kx", "kz")

    def cell(names, v):  # variable or letter v: its x (even v) or z (odd v) entry at the gate's qubit v >> 1
        return f"{names[v & 1]}[q{v >> 1}]"

    in_range = " and ".join(f"0 <= {q} < n" for q in qs)
    checks = [f"not ({in_range})"] + [f"{a} == {b}" for a, b in combinations(qs, 2)]
    lines = [
        f"def {kind}(t, qubits):",
        f"    if len(qubits) != {arity}:",
        f"        _refuse({kind!r}, {arity}, t.n, qubits)",
        f"    {', '.join(qs)}{',' if arity == 1 else ''} = qubits",
        "    n = t.n",
        f"    if {' or '.join(checks)}:",
        f"        _refuse({kind!r}, {arity}, n, qubits)",
    ]
    lines += [f"    {cols[i]} = t.{cols[i]}" for i in lists]
    lines += [f"    {ks[i]} = t.{ks[i]}" for i in signs]
    lines += [f"    c{v} = {cell(cols, v)}" for v in sorted(reads)]
    lines += [f"    k{l} = {cell(ks, l)}" for l in letters]
    if rule.flip:
        terms = [" & ".join(f"c{v}" for v in monomial) for monomial in rule.flip]
        if len(terms) > 1:
            terms = [f"({m})" if " " in m else m for m in terms]
        lines.append(f"    t.r ^= {' ^ '.join(terms)}")
    lines += [f"    {cell(cols, v)} = {' ^ '.join(f'c{u}' for u in sources)}" for v, sources in rule.cols]
    for l, e, used, pairs in rule.phases:
        terms = [f"k{u}" for u in used] + [f"2 * (c{a} & (c{b} >> n)).bit_count()" for a, b in pairs]
        if e or not terms:
            terms.append(str(e))
        value = terms[0] if len(terms) == 1 and not pairs else f"({' + '.join(terms)}) & 3"
        lines.append(f"    {cell(ks, l)} = {value}")
    lines.append("    return t")
    return "\n".join(lines) + "\n"


def _compile(kind: str, rule: _Rule):
    """The gate function `_source` writes for the rule, built by `exec` as `dataclasses` builds its methods."""
    namespace = {"_refuse": _refuse}
    exec(compile(_source(kind, rule), f"<tableau rule {kind}>", "exec"), namespace)
    return namespace[kind]


# every gate call, through `apply_gate` or a named method, runs its kind's function here
_GATES = {kind: _compile(kind, rule) for kind, rule in _RULES.items()}


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
        bits = _unpack((*self.xs, *self.zs, self.r), lo, hi - lo)
        signs = bits[:, 2 * n].tolist()
        return [_pauli(n, x, z, 2 * s) for x, z, s in zip(_pack(bits[:, :n]), _pack(bits[:, n : 2 * n]), signs)]

    @property
    def rows(self) -> list[PauliString]:
        return self._rows(0, 2 * self.n)

    @property
    def destabilizers(self) -> list[PauliString]:
        return self._rows(0, self.n)

    @property
    def stabilizers(self) -> list[PauliString]:
        return self._rows(self.n, 2 * self.n)

    def stabilizer_lines(self) -> np.ndarray:
        """One row per line with explicit sign, e.g. b'+XX': a read-only 1-D array of dtype S{n+1}.

        The array is a view of one (n, n + 1) uint8 letter matrix, filled
        _LINE_BLOCK rows at a time: each block of stabilizers is unpacked
        from the columns and the signs to a 0/1 matrix (`_unpack`), so only
        one block's bits are held beside the letters.  A letter's byte from
        its x and z bits is 73 + 15x + 17z - 16xz, which gives I, X, Z and Y.
        `.astype(str)` gives the lines as str.
        """
        n = self.n
        cols = (*self.xs, *self.zs, self.r)
        letters = np.empty((n, n + 1), dtype=np.uint8)
        for lo in range(0, n, _LINE_BLOCK):
            count = min(_LINE_BLOCK, n - lo)
            bits = _unpack(cols, n + lo, count)
            x, z = bits[:, :n], bits[:, n : 2 * n]
            block = letters[lo : lo + count]
            block[:, 0] = _SIGN_BYTES[bits[:, 2 * n]]
            block[:, 1:] = 73 + 15 * x + 17 * z - 16 * (x & z)
        lines = letters.view(f"S{n + 1}").reshape(n)
        lines.flags.writeable = False
        return lines

    def __str__(self) -> str:
        return b"\n".join(self.stabilizer_lines().tolist()).decode()

    def h(self, q: int) -> "Tableau":
        return _GATES["h"](self, (q,))

    def s(self, q: int) -> "Tableau":
        return _GATES["s"](self, (q,))

    def sdg(self, q: int) -> "Tableau":
        return _GATES["sdg"](self, (q,))

    def x(self, q: int) -> "Tableau":
        return _GATES["x"](self, (q,))

    def y(self, q: int) -> "Tableau":
        return _GATES["y"](self, (q,))

    def z(self, q: int) -> "Tableau":
        return _GATES["z"](self, (q,))

    def cnot(self, c: int, t: int) -> "Tableau":
        return _GATES["cnot"](self, (c, t))

    def cz(self, c: int, t: int) -> "Tableau":
        return _GATES["cz"](self, (c, t))

    def swap(self, a: int, b: int) -> "Tableau":
        return _GATES["swap"](self, (a, b))

    def apply_gate(self, op: GateOp) -> "Tableau":
        """Apply one unitary gate; use `measure_z` for measurements."""
        gate = _GATES.get(op.kind)
        if gate is None:
            raise ValueError(f"unknown gate kind {op.kind!r} (measurements use measure_z)")
        return gate(self, op.qubits)

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
        0 when it anticommutes with some stabilizer.  X_q is i^-kx[q] times
        the ordered product of the rows `_swap_halves(zs[q])` selects, Z_q
        likewise with kz[q] and xs[q], and Y = i X Z.  Rows i < j anticommute
        only when j = i + n, so merging a letter's ordered product into the
        running one costs one popcount: O(weight) operations on 2n-bit
        integers, reading only the columns and phases of the string's
        support.  The tableau is trusted, not checked (`check_invariants`
        finds corruption).  Reads the constant signs only, so it is meant
        for a tableau without variables.
        """
        if p.n != self.n:
            raise DimensionMismatchError(f"string on {p.n} qubits, tableau on {self.n}")
        if p.k % 2:
            raise ValueError("expectation needs a Hermitian string (even phase exponent)")
        n = self.n
        # `rows`, the XOR of the letters' columns, holds the rows that anticommute
        # with p; its halves exchanged select the rows whose product is +-p
        rows, phase = 0, p.k + (p.x & p.z).bit_count()
        for cols, ks, mask in ((self.zs, self.kx, p.x), (self.xs, self.kz, p.z)):
            for q in _indices(mask):
                c = cols[q]  # each stabilizer b + n merged so far passes destabilizer b of c's product
                phase += 2 * (rows & (c >> n)).bit_count() - ks[q]
                rows ^= c
        if rows >> n:  # a stabilizer anticommutes with p
            return 0
        return 1 - (phase & 2)

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
