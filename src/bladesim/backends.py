"""Circuit execution on three backends, plus cross-validation between them.

Backends:
  * "stabilizer":     tableau engine, scales to thousands of qubits.
  * "dense-clifford": the state lives inside the algebra and gates act as
                      operator pairs; capped by the dense-oracle limit.
  * "statevector":    plain Hilbert-space simulation; capped at a desk scale.

Every shot draws from its own (seed, shot) stream.  The two dense backends
run through one shot loop, `_shots`, and differ only in a start state, a gate
`step` and a `measure`.  Acting with g on a state prepared by h is preparing
with g h, so the gate prefix before the first measurement is evolved once and
each shot starts from it.  The stabilizer backend walks the circuit once for
all shots (`_stabilizer_shots`): every random outcome stays a variable, each
recorded outcome is a parity of the shot's draws, and a shot only draws its
bits.  `validate` walks the circuit once on shot 0's stream with all three in
lockstep: the tableau draws each outcome and the dense backends follow it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import statevector as sv
from .circuit import Circuit
from .dense import check_cap
from .errors import TableauInvariantError
from .gates import gate_to_operator_pair, qubit_projector
from .ideal import IdealState, OperatorPair, apply, to_statevector
from .tableau import Tableau

BACKENDS = ("stabilizer", "dense-clifford", "statevector")

EXACT_TOL = 1e-8
STAT_TOL = 0.02
BORN_ENUMERATION_LIMIT = 16
BRANCH_EPS = 1e-12  # Born branches at or below this probability are dropped
SCALAR_DRAWS = 4  # a shot with at most this many random outcomes draws them one by one


def _shot_rng(seed: int, shot: int):
    return np.random.default_rng([int(seed), int(shot)])


def statevector_pairs(v: np.ndarray) -> list[list[float]]:
    """State vector as JSON-ready [re, im] pairs."""
    return [[float(a.real), float(a.imag)] for a in np.asarray(v).ravel()]


def matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Complex matrix as row-major [re, im] pairs."""
    return [statevector_pairs(row) for row in np.asarray(m)]


def _counts(circuit: Circuit, records: list[list[int]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    slots = [op.slot for op in circuit.ops if op.is_measure]
    keys: dict[tuple, str] = {}  # register string of each distinct record
    for rec in records:
        outcomes = tuple(rec)
        key = keys.get(outcomes)
        if key is None:
            reg = ["0"] * circuit.creg
            for slot, outcome in zip(slots, outcomes):
                reg[slot] = str(outcome)
            key = keys[outcomes] = "".join(reg)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _shots(circuit: Circuit, shots: int, seed: int, state, step, measure):
    """The shot loop of the dense backends; returns (records, last state).

    `step(state, op)` and `measure(state, q, rng)` return a new state (and,
    for `measure`, the outcome) without changing their argument.  The prefix
    before the first measurement is evolved once, then each shot starts from
    it with its own (seed, shot) stream.
    """
    ops = circuit.ops
    cut = next((i for i, op in enumerate(ops) if op.is_measure), len(ops))
    for op in ops[:cut]:
        state = step(state, op)
    base, records = state, []
    for shot in range(shots):
        state = base
        rng = _shot_rng(seed, shot)
        rec = []
        for op in ops[cut:]:
            if op.is_measure:
                state, outcome = measure(state, op.qubits[0], rng)
                rec.append(outcome)
            else:
                state = step(state, op)
        records.append(rec)
    return records, state


def _shot_bits(seed: int, shot: int, draws: int) -> int:
    """The shot's first `draws` integers(0, 2) draws, draw r at bit r.

    Past a few draws one batched call is cheaper than scalar calls, and it
    gives the same bits: each draw takes one 32-bit word from the stream.
    """
    if not draws:
        return 0
    rng = _shot_rng(seed, shot)
    if draws <= SCALAR_DRAWS:
        return sum(int(rng.integers(0, 2)) << r for r in range(draws))
    bits = rng.integers(0, 2, size=draws).astype(np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _stabilizer_shots(circuit: Circuit, shots: int, seed: int) -> tuple[list[list[int]], list[str]]:
    """Records and final stabilizer lines of every shot from one tableau pass.

    Whether a measurement is random depends only on the tableau's x/z bits,
    so every shot draws at the same measurements.  The pass leaves random
    outcome r as variable r and records each outcome as a (constant, mask)
    pair; a shot's outcome is the constant XOR the parity of its drawn bits
    under the mask.  Shots that draw the same bits get equal records, each
    its own list.  The last shot's bits give the final signs.
    """
    t = Tableau(circuit.n)
    outcomes = []
    draws = 0  # random outcomes so far, the index of the next variable
    for op in circuit.ops:
        if op.is_measure:
            const, mask, deterministic = t.measure(op.qubits[0], lambda: (0, 1 << draws))
            outcomes.append((const, mask))
            draws += not deterministic
        else:
            t.apply_gate(op)
    consts = [const for const, _ in outcomes]
    live = [(i, mask) for i, (_, mask) in enumerate(outcomes) if mask]
    records, seen = [], {}  # seen: the record of each distinct draw so far
    for shot in range(shots):
        bits = _shot_bits(seed, shot, draws)
        rec = seen.get(bits)
        if rec is None:
            rec = seen[bits] = list(consts)
            for i, mask in live:
                rec[i] ^= (mask & bits).bit_count() & 1
            records.append(rec)
        else:
            records.append(list(rec))
    return records, t.assign(bits).stabilizer_lines()


def _operator_pairs(circuit: Circuit) -> dict:
    """Operator pair of every distinct (kind, qubits) gate, each built once."""
    pairs = {}
    for op in circuit.ops:
        if not op.is_measure and (op.kind, op.qubits) not in pairs:
            pairs[(op.kind, op.qubits)] = gate_to_operator_pair(op, circuit.n)
    return pairs


def _ideal_p1(state: IdealState, q: int) -> tuple[float, float]:
    """Probability of outcome 1 on qubit q, and the state's total weight."""
    w = np.abs(to_statevector(state)) ** 2
    total = float(w.sum())
    bit = ((np.arange(w.size) >> (state.n - 1 - q)) & 1).astype(bool)
    return float(w[bit].sum() / total), total


def _ideal_collapse(state: IdealState, q: int, outcome: int, p1: float, total: float) -> IdealState:
    """Project qubit q onto `outcome` and renormalize by that branch's weight."""
    branch = p1 if outcome else 1.0 - p1
    projected = apply(OperatorPair.real(qubit_projector(state.n, q, outcome)), state)
    return IdealState(state.n, projected.psi * (1.0 / math.sqrt(branch * total)))


def _ideal_measure(state: IdealState, q: int, rng) -> tuple[IdealState, int]:
    p1, total = _ideal_p1(state, q)
    outcome = 1 if rng.random() < p1 else 0
    return _ideal_collapse(state, q, outcome, p1, total), outcome


def _frequencies(records: list[list[int]]) -> dict[tuple, float]:
    freqs: dict[tuple, float] = {}
    for rec in records:
        key = tuple(rec)
        freqs[key] = freqs.get(key, 0.0) + 1.0 / len(records)
    return freqs


def run(circuit: Circuit, backend: str = "stabilizer", shots: int = 1, seed: int = 0) -> dict:
    """Execute a circuit and return a JSON-ready report.

    The report is identical for identical (circuit, backend, shots, seed)
    except for the "timing" section.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = circuit.n
    t0 = time.perf_counter()
    if backend == "stabilizer":
        records, lines = _stabilizer_shots(circuit, shots, seed)
        final = {"stabilizers": lines}
    elif backend == "statevector":
        step = lambda v, op: sv.apply_gate(v, op, n)  # noqa: E731
        measure = lambda v, q, rng: sv.measure(v, q, n, rng)  # noqa: E731
        records, v = _shots(circuit, shots, seed, sv.zero_state(n), step, measure)
        final = {"statevector": statevector_pairs(v)}
    else:
        check_cap(n, "dense-clifford backend")
        pairs = _operator_pairs(circuit)
        step = lambda s, op: apply(pairs[(op.kind, op.qubits)], s)  # noqa: E731
        records, s = _shots(circuit, shots, seed, IdealState.zero_state(n), step, _ideal_measure)
        final = {"statevector": statevector_pairs(to_statevector(s))}
    elapsed = time.perf_counter() - t0
    return {
        "backend": backend,
        "n": circuit.n,
        "creg": circuit.creg,
        "shots": shots,
        "seed": seed,
        "records": records,
        "counts": _counts(circuit, records),
        "final": final,
        "timing": {"total_s": elapsed, "per_shot_s": elapsed / shots},
    }


def born_distribution(circuit: Circuit) -> dict:
    """Exact outcome-record distribution by branching the state vector.

    Returns {record tuple: probability}.  Cost doubles per measurement, so
    circuits with more than BORN_ENUMERATION_LIMIT measurements are rejected.
    """
    if circuit.measure_count > BORN_ENUMERATION_LIMIT:
        raise ValueError(f"cannot enumerate more than {BORN_ENUMERATION_LIMIT} measurements")
    n = circuit.n
    out: dict[tuple, float] = {}
    stack = [(sv.zero_state(n), 0, 1.0, ())]
    while stack:
        state, i, prob, rec = stack.pop()
        while i < len(circuit.ops) and not circuit.ops[i].is_measure:
            state = sv.apply_gate(state, circuit.ops[i], n)
            i += 1
        if i == len(circuit.ops):
            out[rec] = out.get(rec, 0.0) + prob
            continue
        q = circuit.ops[i].qubits[0]
        p1 = sv.born_p1(state, q, n)
        for outcome, p in ((0, 1.0 - p1), (1, p1)):
            if p > BRANCH_EPS:
                stack.append((sv.collapse(state, q, n, outcome), i + 1, prob * p, rec + (outcome,)))
    return out


def validate(circuit: Circuit, shots: int = 10_000, seed: int = 0) -> dict:
    """Cross-check the three backends on one circuit.

    Exact checks, on one lockstep walk: after every op the tableau invariants
    hold and the algebra-resident state equals the state vector; before each
    measurement and after the last op every stabilizer row fixes the state
    vector; each outcome the tableau draws has Born probability 1 if it is
    called deterministic, else 1/2.  A failing detail names the first op that
    failed.  Statistical check: stabilizer outcome frequencies against the
    exact Born distribution, within 0.02 at 10^4 shots, widening as four
    binomial sigmas below that.  One report entry per check.
    """
    check_cap(circuit.n, "validation")
    stat_tol = max(STAT_TOL, 4.0 * math.sqrt(0.25 / max(shots, 1)))
    n = circuit.n
    ops = circuit.ops
    pairs = _operator_pairs(circuit)
    t, psi, state = Tableau(n), sv.zero_state(n), IdealState.zero_state(n)
    rng = _shot_rng(seed, 0)
    first: dict[str, str] = {}  # check name -> its first failure, naming the op
    rows_dev = dense_dev = 0.0

    def deviation(name: str, where: str, dev: float) -> float:
        if dev > EXACT_TOL:
            first.setdefault(name, f"{where}: deviation {dev:.3e}")
        return dev

    def rows_fix(where: str) -> float:
        dev = max(float(np.max(np.abs(sv.pauli_matrix(row) @ psi - psi))) for row in t.stabilizers)
        return deviation("stabilizer_rows_fix_oracle_state", where, dev)

    for i, op in enumerate(ops):
        where = f"op {i} ({op.kind} {' '.join(map(str, op.qubits))})"
        try:
            if op.is_measure:
                q = op.qubits[0]
                rows_dev = max(rows_dev, rows_fix(where))
                outcome, deterministic = t.measure_z(q, rng)
                p1 = sv.born_p1(psi, q, n)
                p = p1 if outcome else 1.0 - p1
                deviation("stabilizer_rows_fix_oracle_state", where, abs(p - (1.0 if deterministic else 0.5)))
                if p <= BRANCH_EPS:
                    break  # no branch to collapse onto
                psi = sv.collapse(psi, q, n, outcome)
                state = _ideal_collapse(state, q, outcome, *_ideal_p1(state, q))
            else:
                t.apply_gate(op)
                psi = sv.apply_gate(psi, op, n)
                state = apply(pairs[(op.kind, op.qubits)], state)
            t.check_invariants()
        except TableauInvariantError as err:
            first.setdefault("tableau_invariants", f"{where}: {err}")
            break
        dev = float(np.max(np.abs(to_statevector(state) - psi)))
        dense_dev = max(dense_dev, deviation("dense_clifford_matches_statevector", where, dev))
    else:
        if ops:
            rows_dev = max(rows_dev, rows_fix(where))

    passing = {
        "tableau_invariants": "ok",
        "stabilizer_rows_fix_oracle_state": f"max |rho(s) psi - psi| = {rows_dev:.3e}",
        "dense_clifford_matches_statevector": f"max deviation = {dense_dev:.3e}",
    }
    checks = [{"name": k, "passed": k not in first, "detail": first.get(k, v)} for k, v in passing.items()]

    # empirical stabilizer statistics against the exact distribution (or an
    # empirical state-vector reference when there are too many measurements
    # to enumerate every branch)
    if circuit.measure_count > 0 and shots > 0:
        freqs = _frequencies(run(circuit, "stabilizer", shots=shots, seed=seed)["records"])
        enumerable = circuit.measure_count <= BORN_ENUMERATION_LIMIT
        if enumerable:
            dist = born_distribution(circuit)
            tol = stat_tol
            impossible = [k for k in freqs if k not in dist]
        else:
            dist = _frequencies(run(circuit, "statevector", shots=shots, seed=seed)["records"])
            tol = stat_tol * math.sqrt(2.0)  # two sampled sides
            impossible = []
        worst = 0.0
        for key in set(dist) | set(freqs):
            worst = max(worst, abs(freqs.get(key, 0.0) - dist.get(key, 0.0)))
        passed = not impossible and worst <= tol
        ref_name = "exact" if enumerable else "sampled"
        detail = f"max |freq - p| = {worst:.4f} over {len(dist)} records ({ref_name} reference)"
        if impossible:
            detail = f"impossible record observed: {impossible[0]}; " + detail
        checks.append({"name": "measurement_statistics", "passed": passed, "detail": detail})

    return {
        "n": n,
        "shots": shots,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
