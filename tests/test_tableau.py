import itertools
import random
import time

import numpy as np
import pytest

from bladesim import (
    DimensionMismatchError,
    GateOp,
    PauliString,
    Tableau,
    TableauInvariantError,
    random_clifford_circuit,
)
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, Circuit
from bladesim.gates import gate_words, letter_images
from bladesim.strings import BladeString, reverse_string, string_mul
from bladesim.tableau import _RULES, _indices
from oracles import IMAGES, RowTableau, gate_unitary, pauli_matrix_oracle, reference_stabilizer_lines, set_rows

ALL_KINDS = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")


def assert_phases(t: Tableau, where) -> None:
    """Every stored phase is the one `_product` finds for its letter, and the columns select that letter."""
    for q in range(t.n):
        assert t._product(t._swap_halves(t.xs[q])) == (0, 1 << q, t.kz[q]), (where, "Z", q)
        assert t._product(t._swap_halves(t.zs[q])) == (1 << q, 0, t.kx[q]), (where, "X", q)


def assert_lockstep(circuit, seed: int) -> None:
    """Walk the column tableau and the row engine together; every step must agree exactly.

    Each random outcome is a drawn constant plus a fresh variable, so signs
    and variable masks both move.  After every op all 2n rows (with signs),
    the variable masks and each measurement's (const, mask, deterministic)
    triple must be equal, and every stored letter phase must be `_product`'s;
    so must the rows and the phases once the variables are assigned, and the
    stabilizer lines must equal the row engine's text.
    """
    n = circuit.n
    cols, rows = Tableau(n), RowTableau(n)
    rng, draws = random.Random(seed), []

    def fresh():
        draws.append((rng.getrandbits(1), 1 << len(draws)))
        return draws[-1]

    for i, op in enumerate(circuit.ops):
        where = (seed, i, op)
        if op.is_measure:
            got = cols.measure(op.qubits[0], fresh)
            assert got == rows.measure(op.qubits[0], lambda: draws[-1]), where
        else:
            cols.apply_gate(op)
            rows.apply_gate(op)
        assert cols.rows == rows.rows and cols.vars == rows.vars, where
        assert_phases(cols, where)
    values = rng.getrandbits(max(len(draws), 1))
    assert cols.assign(values).rows == rows.assign(values).rows, seed
    assert_phases(cols, (seed, "assign"))
    assert cols.stabilizer_lines() == [("+" if r.k == 0 else "") + r.to_text() for r in rows.rows[n:]], seed
    cols.check_invariants()


def test_columns_match_row_engine_on_random_circuits():
    for seed in range(300):
        n = 1 + seed % 9
        assert_lockstep(random_clifford_circuit(n, 40, seed, gate_kinds=ALL_KINDS, measure_prob=0.25), seed)


def test_columns_match_row_engine_on_wide_circuits():
    # GHZ-n, a random all-kinds block U and U^-1, every qubit measured; and a
    # h/s/cnot scramble with every qubit measured twice in a row
    for seed in range(3):
        rng, n = random.Random(seed), 24
        u = [
            GateOp(k, tuple(rng.sample(range(n), 2 if k in ("cnot", "cz", "swap") else 1)))
            for k in rng.sample(ALL_KINDS * 4, 36)
        ]
        undo = {"s": "sdg", "sdg": "s"}
        ops = [GateOp("h", (0,))] + [GateOp("cnot", (q, q + 1)) for q in range(n - 1)]
        ops += u + [GateOp(undo.get(g.kind, g.kind), g.qubits) for g in reversed(u)]
        ops += [GateOp("measure", (q,), q) for q in range(n)]
        assert_lockstep(Circuit(n, tuple(ops), n), seed)
        scramble = random_clifford_circuit(n, 4 * n, seed, gate_kinds=("h", "s", "cnot"))
        twice = [GateOp("measure", (q // 2,), q) for q in range(2 * n)]
        assert_lockstep(Circuit(n, scramble.ops + tuple(twice), 2 * n), seed)


def test_stabilizer_lines_match_the_octal_transpose():
    # the byte-matrix letters against the per-column octal strings, on random
    # tableaux (gates and random and deterministic measurements, so signs and
    # every letter occur) and on GHZ-n, across byte boundaries of n
    rng = np.random.default_rng(5)
    for n in (*range(1, 18), 31, 32, 33, 64, 65, 127, 128, 129, 300):
        t = Tableau(n)
        for op in random_clifford_circuit(n, 4 * n, seed=n, gate_kinds=ALL_KINDS, measure_prob=0.2).ops:
            if op.is_measure:
                t.measure_z(op.qubits[0], rng)
            else:
                t.apply_gate(op)
        assert t.stabilizer_lines() == reference_stabilizer_lines(t), n
        ghz = Tableau(n).h(0)
        for q in range(n - 1):
            ghz.cnot(q, q + 1)
        assert ghz.stabilizer_lines() == reference_stabilizer_lines(ghz), n


def test_native_cz_and_swap_match_their_compositions():
    for seed in range(60):
        n = 2 + seed % 6
        t = Tableau(n)
        for op in random_clifford_circuit(n, 30, seed, gate_kinds=ALL_KINDS, measure_prob=0.2).ops:
            if op.is_measure:
                t.measure(op.qubits[0], lambda: (seed & 1, 1 << seed))
            else:
                t.apply_gate(op)
        a, b = random.Random(seed).sample(range(n), 2)
        assert t.copy().cz(a, b).rows == t.copy().h(b).cnot(a, b).h(b).rows, seed
        assert t.copy().swap(a, b).rows == t.copy().cnot(a, b).cnot(b, a).cnot(a, b).rows, seed


def test_fresh_tableau():
    t = Tableau(1)
    assert t.stabilizer_lines() == ["+Z"]
    assert [r.to_text() for r in t.destabilizers] == ["X"]
    t3 = Tableau(3)
    assert t3.stabilizer_lines() == ["+ZII", "+IZI", "+IIZ"]
    with pytest.raises(ValueError):
        Tableau(0)


def test_letter_images_equal_the_reference_table():
    # the tableau's rules come from these images, the row engine's from the table
    inverse = {"s": "sdg", "sdg": "s"}  # every other one-qubit gate is its own inverse

    def text(c, e):  # i^e X^(c & 1) Z^(c >> 1) as a signed letter, Y = i X Z
        return PauliString(1, c & 1, c >> 1, (e - (c == 3)) % 4).to_text()

    assert set(IMAGES) == set(ONE_QUBIT_GATES)
    for kind in ONE_QUBIT_GATES:
        forward, backward = letter_images(kind)
        assert tuple(text(*image) for image in forward) == IMAGES[kind], kind
        assert tuple(text(*image) for image in backward) == IMAGES[inverse.get(kind, kind)], kind


def test_compiled_rules_hold_no_extra_operations():
    # variables v = 2i + (0 for x, 1 for z) at the gate's i-th qubit: x_c, z_c,
    # x_t, z_t = 0, 1, 2, 3; a letter's phase is listed only if it changes
    assert list(_RULES) == list(ONE_QUBIT_GATES + TWO_QUBIT_GATES)
    assert [_RULES[kind].arity for kind in ALL_KINDS] == [1] * 6 + [2] * 3
    assert _RULES["h"].flip == ((0, 1),)  # x z
    # x_c z_t (1 + x_t + z_c) over GF(2); X_c -> X_c X_t and Z_t -> Z_c Z_t, one popcount each
    assert _RULES["cnot"] == (
        2,
        ((1, (1, 3)), (2, (0, 2))),
        ((0, 3), (0, 1, 3), (0, 2, 3)),
        ((0, 0, (0, 2), ((1, 3),)), (3, 0, (1, 3), ((0, 2),))),
    )
    assert _RULES["cz"].flip == ((0, 1, 2), (0, 2, 3))  # x_c x_t (z_c + z_t)
    # the exchange alone: each column and phase copied from the other qubit
    assert _RULES["swap"] == (
        2,
        ((0, (2,)), (1, (3,)), (2, (0,)), (3, (1,))),
        (),
        tuple((v, 0, (v ^ 2,), ()) for v in range(4)),
    )


def test_single_qubit_conjugation_against_oracle():
    kinds = ("h", "s", "sdg", "x", "y", "z")
    rows = [PauliString(2, x, z, k) for x in range(4) for z in range(4) for k in (0, 2)]
    for kind in kinds:
        for q in (0, 1):
            u = gate_unitary(GateOp(kind, (q,)), 2)
            for row in rows:
                t = Tableau(2)
                set_rows(t, [row] * 4)  # structure is irrelevant for conjugation rules
                t.apply_gate(GateOp(kind, (q,)))
                expected = u @ pauli_matrix_oracle(row) @ u.conj().T
                assert np.allclose(pauli_matrix_oracle(t.rows[0]), expected, atol=1e-12), (kind, q, row)
                assert t.rows[0].letter(1 - q) == row.letter(1 - q)


def test_two_qubit_conjugation_against_oracle():
    kinds = ("cnot", "cz", "swap")
    rows = [PauliString(2, x, z, k) for x in range(4) for z in range(4) for k in (0, 2)]
    for kind in kinds:
        for qubits in ((0, 1), (1, 0)):
            u = gate_unitary(GateOp(kind, qubits), 2)
            for row in rows:
                t = Tableau(2)
                set_rows(t, [row] * 4)
                t.apply_gate(GateOp(kind, qubits))
                expected = u @ pauli_matrix_oracle(row) @ u.conj().T
                assert np.allclose(pauli_matrix_oracle(t.rows[0]), expected, atol=1e-12)


def _to_statevector_order(mask: int, n: int) -> int:
    """A qubit mask (bit q for qubit q) in statevector bit order (bit n-1-q), and back."""
    return sum(1 << (n - 1 - q) for q in range(n) if mask >> q & 1)


def test_two_qubit_column_formulas_match_blade_word_conjugation():
    # U P U^dagger for all 16 two-letter words P, with U the a words plus i
    # times the b words of `gate_words` and U^dagger its words reversed and
    # conjugated, the string_mul sums `letter_images` takes; P is one word,
    # X = e2, Z = e1 and Y = -i e1 e2 on each qubit, the e1 factors first
    n = 2
    for kind in ("cnot", "cz", "swap"):
        for qubits in ((0, 1), (1, 0)):
            a, b = gate_words(GateOp(kind, qubits), n)
            u = [(unit * coef, BladeString(n, e1, e2)) for unit, words in ((1, a), (1j, b)) for coef, e1, e2 in words]
            dagger = [(coef.conjugate(), reverse_string(w)) for coef, w in u]
            for row in (PauliString(n, x, z, k) for x in range(4) for z in range(4) for k in (0, 2)):
                word = BladeString(n, _to_statevector_order(row.z, n), _to_statevector_order(row.x, n))
                coef = 1j**row.k * (-1j) ** (row.x & row.z).bit_count()
                terms: dict = {}
                for cl, wl in u:
                    for cr, wr in dagger:
                        p = string_mul(string_mul(wl, word), wr)
                        terms[p.e1, p.e2] = terms.get((p.e1, p.e2), 0) + cl * coef * cr * p.sign
                images = [(masks, c) for masks, c in terms.items() if c != 0]
                assert len(images) == 1, (kind, qubits, row, terms)
                ((e1, e2), c) = images[0]
                x, z = _to_statevector_order(e2, n), _to_statevector_order(e1, n)
                k = ((1, 1j, -1, -1j).index(c) + (x & z).bit_count()) % 4
                t = Tableau(n)
                set_rows(t, [row] * 4)
                t.apply_gate(GateOp(kind, qubits))
                assert t.rows[0] == PauliString(n, x, z, k), (kind, qubits, row)


def test_hadamard_and_bell():
    assert Tableau(1).h(0).stabilizer_lines() == ["+X"]
    bell = Tableau(2).h(0).cnot(0, 1)
    assert bell.stabilizer_lines() == ["+XX", "+ZZ"]
    assert str(bell) == "+XX\n+ZZ"
    bell.check_invariants()


def test_x_then_measure_is_one():
    t = Tableau(1).x(0)
    outcome, deterministic = t.measure_z(0, np.random.default_rng(0))
    assert (outcome, deterministic) == (1, True)


def test_fresh_measure_is_zero():
    outcome, deterministic = Tableau(1).measure_z(0, np.random.default_rng(0))
    assert (outcome, deterministic) == (0, True)


def test_random_outcome_statistics_and_collapse():
    ones = 0
    shots = 2000
    for seed in range(shots):
        t = Tableau(1).h(0)
        rng = np.random.default_rng(seed)
        outcome, deterministic = t.measure_z(0, rng)
        assert not deterministic
        ones += outcome
        again, det2 = t.measure_z(0, rng)
        assert det2 and again == outcome  # collapsed
    assert abs(ones / shots - 0.5) < 0.05


def test_bell_correlations():
    for seed in range(200):
        t = Tableau(2).h(0).cnot(0, 1)
        rng = np.random.default_rng(seed)
        a, det_a = t.measure_z(0, rng)
        b, det_b = t.measure_z(1, rng)
        assert not det_a and det_b
        assert a == b


def test_measurement_updates_keep_invariants():
    circuit = random_clifford_circuit(4, 60, seed=123, measure_prob=0.2)
    t = Tableau(4)
    rng = np.random.default_rng(7)
    for op in circuit.ops:
        if op.is_measure:
            t.measure_z(op.qubits[0], rng)
        else:
            t.apply_gate(op)
        t.check_invariants()


def test_rows_equal_checked_pauli_strings():
    # gates, row products and measurements build rows without the
    # constructor's range checks; each must equal, and hash like, the
    # checked value with the same fields
    kinds = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")
    for seed in range(20):
        circuit = random_clifford_circuit(5, 60, seed=seed, gate_kinds=kinds, measure_prob=0.2)
        concrete, symbolic = Tableau(5), Tableau(5)
        rng = np.random.default_rng(seed)
        draws = 0
        for op in circuit.ops:
            if op.is_measure:
                concrete.measure_z(op.qubits[0], rng)
                draws += not symbolic.measure(op.qubits[0], lambda: (0, 1 << draws))[2]
            else:
                concrete.apply_gate(op)
                symbolic.apply_gate(op)
        for t in (concrete, symbolic.assign(seed * 0x9E3779B9)):
            assert t.vars == [0] * 10
            for r in t.rows:
                checked = PauliString(r.n, r.x, r.z, r.k)
                assert type(r) is PauliString and r == checked and hash(r) == hash(checked)
            t.check_invariants()


def test_determinism_per_seed():
    circuit = random_clifford_circuit(3, 40, seed=5, measure_prob=0.3)

    def outcomes(seed):
        t = Tableau(3)
        rng = np.random.default_rng(seed)
        rec = []
        for op in circuit.ops:
            if op.is_measure:
                rec.append(t.measure_z(op.qubits[0], rng)[0])
            else:
                t.apply_gate(op)
        return rec

    assert outcomes(42) == outcomes(42)


def test_expectation_values():
    t = Tableau(1)
    assert t.expectation(PauliString.from_text("Z")) == 1
    assert t.expectation(PauliString.from_text("-Z")) == -1
    assert t.expectation(PauliString.from_text("X")) == 0
    bell = Tableau(2).h(0).cnot(0, 1)
    assert bell.expectation(PauliString.from_text("XX")) == 1
    assert bell.expectation(PauliString.from_text("ZZ")) == 1
    assert bell.expectation(PauliString.from_text("-ZZ")) == -1
    assert bell.expectation(PauliString.from_text("XI")) == 0
    assert bell.expectation(PauliString.from_text("YY")) == -1
    with pytest.raises(ValueError):
        bell.expectation(PauliString.from_text("iXX"))
    with pytest.raises(DimensionMismatchError):
        bell.expectation(PauliString.from_text("X"))


def test_expectation_matches_statevector_oracle():
    # random circuit, then expectations of random strings against <psi|P|psi>
    from bladesim import statevector as sv

    circuit = random_clifford_circuit(3, 30, seed=17)
    t = Tableau(3)
    psi = sv.zero_state(3)
    for op in circuit.ops:
        t.apply_gate(op)
        psi = sv.apply_gate(psi, op, 3)
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.choice((0, 2))))
        got = t.expectation(p)
        want = np.vdot(psi, pauli_matrix_oracle(p) @ psi).real
        assert got == pytest.approx(want, abs=1e-8)


def test_copy_is_independent():
    t = Tableau(2).h(0)
    c = t.copy()
    assert (c.kz, c.kx) == (t.kz, t.kx)
    c.cnot(0, 1).s(0)
    assert t.stabilizer_lines() != c.stabilizer_lines()
    assert (t.kz, t.kx) == ([0, 0], [0, 0]) and c.kx != t.kx
    assert_phases(t, "original")
    assert_phases(c, "copy")


def test_invariant_checker_detects_corruption():
    t = Tableau(2)
    rows = t.rows
    rows[2] = rows[3]  # duplicate stabilizer: rank drops, commutation breaks
    set_rows(t, rows)
    with pytest.raises(TableauInvariantError, match="rows 0 and 2 unexpectedly commute"):
        t.check_invariants()
    # one sign bit per row cannot hold a non-Hermitian row; a row past the
    # last one is the corruption the columns can hold
    t2 = Tableau(2)
    with pytest.raises(ValueError):
        set_rows(t2, [t2.rows[0].with_phase(1)] + t2.rows[1:])
    set_rows(t2, t2.rows + [PauliString.from_text("-ZI")])
    with pytest.raises(TableauInvariantError):
        t2.check_invariants()


def test_gate_validation():
    t = Tableau(2)
    with pytest.raises(ValueError):
        t.h(2)
    with pytest.raises(ValueError):
        t.cnot(1, 1)
    with pytest.raises(ValueError):
        t.apply_gate(GateOp("measure", (0,), 0))
    with pytest.raises(ValueError, match="cnot takes 2"):
        t.apply_gate(GateOp("cnot", (0,)))
    with pytest.raises(ValueError, match="h takes 1"):
        t.apply_gate(GateOp("h", (0, 1)))


def test_gate_time_scales_gently():
    from bladesim.bench import time_tableau_gate

    # both sizes back to back in every rep, so a slow spell of a shared host
    # lands on both sides of the ratio
    pairs = [[time_tableau_gate(n, reps=1, seed=1)[0] for n in (512, 1024)] for _ in range(30)]
    t512, t1024 = np.median(pairs, axis=0)
    assert t1024 / t512 <= 5.0, (t512, t1024)


def test_deterministic_measure_time_scales_gently():
    # a deterministic outcome reads its stored phase: no scan over the n columns
    def measure_64(n):
        t = Tableau(n)
        t0 = time.perf_counter()
        for q in range(0, n, n // 64):
            t.measure(q, None)
        return time.perf_counter() - t0

    # both sizes back to back in every rep, as in the gate test above
    pairs = [[measure_64(n) for n in (1024, 4096)] for _ in range(30)]
    t1024, t4096 = np.median(pairs, axis=0)
    assert t4096 / t1024 <= 3.0, (t1024, t4096)


def test_indices_equal_a_plain_bit_scan():
    rng = random.Random(5)
    masks = [0] + [1 << k for k in range(21)] + [rng.getrandbits(rng.randint(2, 300)) | 3 for _ in range(50)]
    for mask in masks:
        assert list(_indices(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1], mask
