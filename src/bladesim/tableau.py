"""Stabilizer tableau engine with word-packed Pauli rows.

State of n qubits as 2n generator rows: rows 0..n-1 are destabilizers, rows
n..2n-1 stabilizers.  The fresh state |0...0> has destabilizer j = X_j and
stabilizer j = Z_j, all signs +.  Rows are PauliString values whose phase
exponent stays in {0, 2} (sign +1/-1); row products reuse the mod-4 phase
arithmetic of `pauli_mul`, which keeps that restriction automatically because
only commuting rows are ever multiplied.

A row's sign is its constant phase times (-1) to the parity of a GF(2)
variable mask, `vars[i]`: bit r of the mask stands for the r-th random
outcome.  Gates flip only the constant; row products XOR the masks.  Whether
a measurement is random depends only on the x/z bits (Aaronson & Gottesman,
quant-ph/0406196), so a circuit measured once with every random outcome left
as a fresh variable gives each outcome of every shot as a parity of that
shot's draws.  A tableau measured only through `measure_z` keeps every mask 0.

A single-qubit gate is its table of signed images of the letters X, Z, Y; it
rebuilds only the rows whose letter at its qubit it changes, as does CNOT by
the CHP rule.  CZ and SWAP are composed from CNOT and H.  A rebuilt row costs
O(n/w) words.  Measurement follows the standard destabilizer bookkeeping: a
random outcome replaces the first anticommuting stabilizer (by row index)
after multiplying it into the other anticommuting rows; a deterministic
outcome is read off the product of stabilizers selected by the destabilizer
bits, without touching the tableau.  `measure` is that routine, once;
`measure_z` is `measure` with a drawn bit for each random outcome.
"""

from __future__ import annotations

from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, GateOp
from .errors import DimensionMismatchError, TableauInvariantError
from .strings import _LETTERS, PauliString, _pauli, commutes, pauli_mul

# conjugation images of X, Z, Y, i.e. of the letter codes 1, 2, 3
_IMAGES = {
    "h": ("Z", "X", "-Y"),
    "s": ("Y", "Z", "-X"),
    "sdg": ("-Y", "Z", "X"),
    "x": ("X", "-Z", "-Y"),
    "y": ("-X", "-Z", "Y"),
    "z": ("-X", "Z", "-Y"),
}


def _change(code: int, image: str):
    """(x bit flip, z bit flip, sign flip) taking a letter to its image; None if it is fixed."""
    d = code ^ _LETTERS.index(image.lstrip("-"))
    change = (d & 1, d >> 1, 2 if image[0] == "-" else 0)
    return change if any(change) else None


_RULES = {gate: (None, *map(_change, (1, 2, 3), images)) for gate, images in _IMAGES.items()}


class Tableau:
    """Mutable stabilizer state; deep-copy before sharing.

    `rows` holds the 2n generators with their constant signs; `vars[i]` is
    the GF(2) variable mask of row i's sign, 0 until `measure` is given a
    fresh variable for a random outcome.
    """

    __slots__ = ("n", "rows", "vars")

    _GATE_METHODS = frozenset(ONE_QUBIT_GATES + TWO_QUBIT_GATES)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.rows: list[PauliString] = [_pauli(n, 1 << j, 0, 0) for j in range(n)] + [
            _pauli(n, 0, 1 << j, 0) for j in range(n)
        ]
        self.vars: list[int] = [0] * (2 * n)

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.rows = list(self.rows)
        t.vars = list(self.vars)
        return t

    @property
    def destabilizers(self) -> list[PauliString]:
        return self.rows[: self.n]

    @property
    def stabilizers(self) -> list[PauliString]:
        return self.rows[self.n :]

    def stabilizer_lines(self) -> list[str]:
        """One row per line with explicit sign, e.g. '+XX'."""
        return [("+" if r.k == 0 else "") + r.to_text() for r in self.stabilizers]

    def __str__(self) -> str:
        return "\n".join(self.stabilizer_lines())

    def _mask(self, q: int) -> int:
        """The mask bit of qubit q, after checking that q is in range."""
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")
        return 1 << q

    def _conjugate(self, rule: tuple, q: int) -> "Tableau":
        m = self._mask(q)
        for i, r in enumerate(self.rows):
            change = rule[(1 if r.x & m else 0) | (2 if r.z & m else 0)]
            if change:
                dx, dz, flip = change
                self.rows[i] = _pauli(r.n, r.x ^ dx * m, r.z ^ dz * m, r.k ^ flip)
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
        mc, mt = self._mask(c), self._mask(t)
        if c == t:
            raise ValueError("control and target must differ")
        for i, r in enumerate(self.rows):
            xc, zt = r.x & mc, r.z & mt
            if xc or zt:
                k = r.k ^ (2 if xc and zt and bool(r.x & mt) == bool(r.z & mc) else 0)
                self.rows[i] = _pauli(r.n, r.x ^ (mt if xc else 0), r.z ^ (mc if zt else 0), k)
        return self

    def cz(self, c: int, t: int) -> "Tableau":
        return self.h(t).cnot(c, t).h(t)

    def swap(self, a: int, b: int) -> "Tableau":
        return self.cnot(a, b).cnot(b, a).cnot(a, b)

    def apply_gate(self, op: GateOp) -> "Tableau":
        """Apply one unitary gate; use `measure_z` for measurements."""
        if op.is_measure:
            raise ValueError("measurements need a random stream, use measure_z")
        if op.kind not in self._GATE_METHODS:
            raise ValueError(f"unknown gate kind {op.kind!r}")
        return getattr(self, op.kind)(*op.qubits)

    def measure(self, q: int, draw) -> tuple[int, int, bool]:
        """Measure Z on qubit q; returns (constant, variable mask, deterministic flag).

        The outcome is the constant bit XOR the parity of the variables the
        mask selects.  A random outcome is the (constant, mask) pair `draw()`
        returns: a drawn bit with mask 0, or a fresh variable.  It becomes the
        sign of the new stabilizer Z_q.  A deterministic outcome is the sign
        of the product of stabilizers selected by the destabilizer bits, and
        leaves the tableau untouched.
        """
        m = self._mask(q)
        n, rows, var = self.n, self.rows, self.vars
        p = next((i for i in range(n, 2 * n) if rows[i].x & m), None)
        if p is not None:
            row_p, var_p = rows[p], var[p]
            for i in range(2 * n):
                if i != p and i != p - n and (rows[i].x & m):
                    rows[i] = pauli_mul(row_p, rows[i])
                    var[i] ^= var_p
            rows[p - n], var[p - n] = row_p, var_p
            const, mask = draw()
            rows[p], var[p] = _pauli(n, 0, m, 2 * const), mask
            return const, mask, False
        acc, mask = PauliString.identity(n), 0
        for j in range(n):
            if rows[j].x & m:
                acc = pauli_mul(acc, rows[j + n])
                mask ^= var[j + n]
        if acc.x != 0 or acc.z != m:
            raise TableauInvariantError("deterministic outcome did not reduce to a Z letter")
        return (1 if acc.k == 2 else 0), mask, True

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
                r = self.rows[i]
                if (v & values).bit_count() & 1:
                    self.rows[i] = _pauli(r.n, r.x, r.z, r.k ^ 2)
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
        for s in self.stabilizers:
            if not commutes(p, s):
                return 0
        # destabilizer j anticommutes with stabilizer j only, so the bits of a
        # commuting string decompose along the stabilizers its destabilizers flag
        acc = PauliString.identity(self.n)
        for j in range(self.n):
            if not commutes(p, self.rows[j]):
                acc = pauli_mul(acc, self.rows[j + self.n])
        if acc.x != p.x or acc.z != p.z:
            raise TableauInvariantError("commuting string is outside the stabilizer span")
        return 1 if acc.k == p.k else -1

    def check_invariants(self) -> None:
        """Raise TableauInvariantError unless the group structure is intact."""
        n = self.n
        for r in self.rows:
            if r.k not in (0, 2):
                raise TableauInvariantError(f"row phase exponent {r.k} is not a sign")
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                anti = not commutes(self.rows[i], self.rows[j])
                if anti != (j - i == n):
                    which = "commute" if anti else "anticommute"
                    raise TableauInvariantError(f"rows {i} and {j} unexpectedly {which}")
        pivots: dict[int, int] = {}
        for r in self.rows:
            cur = r.x | (r.z << n)
            while cur:
                b = cur.bit_length() - 1
                if b in pivots:
                    cur ^= pivots[b]
                else:
                    pivots[b] = cur
                    break
        if len(pivots) != 2 * n:
            raise TableauInvariantError("generator rows are linearly dependent over GF(2)")
