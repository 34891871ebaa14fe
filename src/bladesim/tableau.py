"""Stabilizer tableau engine with word-packed Pauli rows.

State of n qubits as 2n generator rows: rows 0..n-1 are destabilizers, rows
n..2n-1 stabilizers.  The fresh state |0...0> has destabilizer j = X_j and
stabilizer j = Z_j, all signs +.  Rows are PauliString values whose phase
exponent stays in {0, 2} (sign +1/-1); row products reuse the mod-4 phase
arithmetic of `pauli_mul`, which keeps that restriction automatically because
only commuting rows are ever multiplied.

Gate updates conjugate every row in place: a single- or two-qubit gate costs
a constant number of mask operations per row, each word-parallel in n, so a
gate is O(n) row updates of O(n/w) words.  CZ and SWAP are composed from
CNOT and H.  Measurement follows the standard destabilizer bookkeeping: a
random outcome replaces the first anticommuting stabilizer (by row index)
after multiplying it into the other anticommuting rows; a deterministic
outcome is read off the product of stabilizers selected by the destabilizer
bits, without touching the tableau.
"""

from __future__ import annotations

from .circuit import GateOp
from .errors import DimensionMismatchError, TableauInvariantError
from .strings import PauliString, commutes, pauli_mul


class Tableau:
    """Mutable stabilizer state; deep-copy before sharing."""

    __slots__ = ("n", "rows")

    _GATE_METHODS = frozenset(("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap"))

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.rows: list[PauliString] = [PauliString(n, 1 << j, 0, 0) for j in range(n)] + [
            PauliString(n, 0, 1 << j, 0) for j in range(n)
        ]

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.rows = list(self.rows)
        return t

    @property
    def destabilizers(self) -> list[PauliString]:
        return self.rows[: self.n]

    @property
    def stabilizers(self) -> list[PauliString]:
        return self.rows[self.n :]

    def stabilizer_lines(self) -> list[str]:
        """One row per line with explicit sign, e.g. '+XX'."""
        out = []
        for r in self.stabilizers:
            body = "".join(r.letter(j) for j in range(r.n))
            out.append(("+" if r.k == 0 else "-") + body)
        return out

    def __str__(self) -> str:
        return "\n".join(self.stabilizer_lines())

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")

    # gate conjugation rules; phase exponents flip by 2 (sign flip)

    def h(self, q: int) -> "Tableau":
        # X <-> Z, Y -> -Y
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            xb, zb = r.x & m, r.z & m  # each is 0 or the mask bit
            k = r.k ^ (2 if xb and zb else 0)
            self.rows[i] = PauliString(r.n, (r.x & ~m) | zb, (r.z & ~m) | xb, k)
        return self

    def s(self, q: int) -> "Tableau":
        # X -> Y, Y -> -X, Z -> Z
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            k = r.k ^ (2 if (r.x & m) and (r.z & m) else 0)
            self.rows[i] = PauliString(r.n, r.x, r.z ^ (r.x & m), k)
        return self

    def sdg(self, q: int) -> "Tableau":
        # X -> -Y, Y -> X, Z -> Z
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            k = r.k ^ (2 if (r.x & m) and not (r.z & m) else 0)
            self.rows[i] = PauliString(r.n, r.x, r.z ^ (r.x & m), k)
        return self

    def x(self, q: int) -> "Tableau":
        # Z -> -Z, Y -> -Y
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            if r.z & m:
                self.rows[i] = r.with_phase(r.k + 2)
        return self

    def y(self, q: int) -> "Tableau":
        # X -> -X, Z -> -Z, Y -> Y
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            if bool(r.x & m) != bool(r.z & m):
                self.rows[i] = r.with_phase(r.k + 2)
        return self

    def z(self, q: int) -> "Tableau":
        # X -> -X, Y -> -Y
        self._check_qubit(q)
        m = 1 << q
        for i, r in enumerate(self.rows):
            if r.x & m:
                self.rows[i] = r.with_phase(r.k + 2)
        return self

    def cnot(self, c: int, t: int) -> "Tableau":
        # X_c -> X_c X_t, Z_t -> Z_c Z_t; sign flips when x_c z_t (x_t == z_c)
        self._check_qubit(c)
        self._check_qubit(t)
        if c == t:
            raise ValueError("control and target must differ")
        mc, mt = 1 << c, 1 << t
        for i, r in enumerate(self.rows):
            xc, zc = bool(r.x & mc), bool(r.z & mc)
            xt, zt = bool(r.x & mt), bool(r.z & mt)
            k = r.k ^ (2 if xc and zt and (xt == zc) else 0)
            self.rows[i] = PauliString(r.n, r.x ^ (mt if xc else 0), r.z ^ (mc if zt else 0), k)
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

    def measure_z(self, q: int, rng) -> tuple[int, bool]:
        """Measure Z on qubit q; returns (outcome, deterministic flag).

        Random outcomes draw one bit from `rng` (anything with an
        `integers` method, e.g. numpy Generator) and update the tableau;
        deterministic outcomes leave it untouched.
        """
        self._check_qubit(q)
        m = 1 << q
        n = self.n
        p = next((i for i in range(n, 2 * n) if self.rows[i].x & m), None)
        if p is not None:
            row_p = self.rows[p]
            for i in range(2 * n):
                if i != p and i != p - n and (self.rows[i].x & m):
                    self.rows[i] = pauli_mul(row_p, self.rows[i])
            self.rows[p - n] = row_p
            outcome = int(rng.integers(0, 2))
            self.rows[p] = PauliString(n, 0, m, 2 * outcome)
            return outcome, False
        acc = PauliString.identity(n)
        for j in range(n):
            if self.rows[j].x & m:
                acc = pauli_mul(acc, self.rows[j + n])
        if acc.x != 0 or acc.z != m:
            raise TableauInvariantError("deterministic outcome did not reduce to a Z letter")
        return (1 if acc.k == 2 else 0), True

    def expectation(self, p: PauliString) -> int:
        """Expectation of a signed Pauli string: +1, -1 or 0.

        +1/-1 when the string (with its sign) lies in the stabilizer group,
        0 when it anticommutes with some stabilizer.
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
