"""The benchmark's workloads: generated inputs, call pools, output checks, digests.

A workload is a list of groups.  A group holds interchangeable blocks, and a
block is a fixed list of CLI calls whose reports are checked together: the
distribution checks pool the counts of a block's calls, which add up to 10^4
shots.  One pass of a workload takes `take` distinct blocks from every group,
chosen by the workload seed, and a run repeats that pass.  Every call in a
pool has a committed reference digest (reference.json), so a call that
reproduces differently from the commit the reference was made on fails.

Nothing here trusts the program's own verdicts: records are checked against
properties derived by hand (GHZ parity, repeated measurements agreeing, Born
distributions of the shipped circuits), and counts are recomputed from the
records.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from bladesim.circuit import Circuit, GateOp, parse, random_clifford_circuit, serialize

GATE_KINDS = ("h", "s", "sdg", "x", "y", "z", "cnot", "cz", "swap")
TWO_QUBIT = ("cnot", "cz", "swap")
INVERSE = {"s": "sdg", "sdg": "s"}  # every other gate kind is its own inverse

STAT_TOL = 0.02  # criterion 7: +-0.02 at 10^4 shots
POOL_BLOCKS = 16  # blocks per group; the reference covers all of them

# Hand-derived outcome distributions of the shipped circuits, keyed by the
# classical-register bitstring (slot 0 leftmost).
SHIPPED = {
    "bell": {"00": 0.5, "11": 0.5},
    "ghz3": {"000": 0.5, "111": 0.5},
    "teleport_like": {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25},
}
# Circuits whose every record is all-equal (perfect correlation).
CORRELATED = ("bell", "ghz3")

# Sizes per scale; "tiny" keeps the self-test fast.  Shipped circuits are
# split into (calls, shots) per call so that every call costs about the same
# (near 0.1 s) and each block still pools 10^4 shots.
SIZES = {
    "full": {
        "wide_gates_n": 128,
        "wide_gates_per_kind": 4,
        "wide_gates_shots": 2,
        "wide_measure_n": 64,
        "wide_measure_depth": 256,
        "wide_measure_shots": 24,
        "wide_take": 6,
        "stabilizer": {"bell": (4, 2500), "ghz3": (5, 2000), "teleport_like": (4, 2500)},
        "dense-clifford": {"bell": (20, 500), "ghz3": (25, 400), "teleport_like": (20, 500)},
        "statevector": {"bell": (5, 2000), "ghz3": (8, 1250), "teleport_like": (8, 1250)},
        "validate_take": 4,
        "validate_shots": 500,
    },
    "tiny": {
        "wide_gates_n": 8,
        "wide_gates_per_kind": 1,
        "wide_gates_shots": 2,
        "wide_measure_n": 8,
        "wide_measure_depth": 16,
        "wide_measure_shots": 2,
        "wide_take": 2,
        **{b: dict.fromkeys(SHIPPED, (2, 50)) for b in ("stabilizer", "dense-clifford", "statevector")},
        "validate_take": 1,
        "validate_shots": 50,
    },
}
VALIDATE_N = 5
VALIDATE_PREFIX = 30
VALIDATE_TAIL_MEASURES = 3


@dataclass(frozen=True)
class Call:
    """One CLI call; `key` names it in the reference digests."""

    key: str
    command: str  # "run" or "validate"
    circuit: str  # file name in the work directory
    backend: str | None
    shots: int
    seed: int

    def argv(self, workdir: Path, out: Path) -> list[str]:
        argv = [self.command, str(workdir / self.circuit)]
        if self.backend is not None:
            argv += ["--backend", self.backend]
        return argv + ["--shots", str(self.shots), "--seed", str(self.seed), "--out", str(out)]


@dataclass(frozen=True)
class Block:
    """Calls checked together; `expect` is the pooled distribution, if any."""

    calls: tuple[Call, ...]
    record_check: str | None = None  # "all_equal", "pairs_equal" or None
    expect: dict | None = None


@dataclass
class Workload:
    name: str
    circuits: dict[str, Circuit] = field(default_factory=dict)  # file name -> circuit
    groups: list[tuple[int, list[Block]]] = field(default_factory=list)  # (take, pool)

    def choose(self, seed: int) -> list[Block]:
        """The blocks of one pass, reproducible from the workload seed."""
        rng = random.Random(seed)
        return [block for take, pool in self.groups for block in rng.sample(pool, take)]

    def write_inputs(self, workdir: Path, blocks: list[Block]) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name in sorted({c.circuit for b in blocks for c in b.calls}):
            (workdir / name).write_text(serialize(self.circuits[name]), encoding="utf-8")


def _random_gate(rng: random.Random, n: int, kind: str) -> GateOp:
    if kind in TWO_QUBIT:
        return GateOp(kind, tuple(rng.sample(range(n), 2)))
    return GateOp(kind, (rng.randrange(n),))


def ghz_echo_circuit(n: int, per_kind: int, seed: int) -> Circuit:
    """GHZ-n, then U over all nine gate kinds (per_kind of each), U^-1, measure all.

    Every gate sits before the first measurement; each record is all-equal.
    """
    rng = random.Random(seed)
    ops = [GateOp("h", (0,))] + [GateOp("cnot", (q, q + 1)) for q in range(n - 1)]
    kinds = [k for k in GATE_KINDS for _ in range(per_kind)]
    rng.shuffle(kinds)
    u = [_random_gate(rng, n, k) for k in kinds]
    ops += u + [GateOp(INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(u)]
    ops += [GateOp("measure", (q,), q) for q in range(n)]
    return Circuit(n, tuple(ops), n)


def measure_twice_circuit(n: int, depth: int, seed: int) -> Circuit:
    """A random h/s/cnot scramble, then every qubit measured twice in a row."""
    scramble = random_clifford_circuit(n, depth, seed, gate_kinds=("h", "s", "cnot"))
    ops = list(scramble.ops)
    for q in range(n):
        ops += [GateOp("measure", (q,), 2 * q), GateOp("measure", (q,), 2 * q + 1)]
    return Circuit(n, tuple(ops), 2 * n)


def validate_circuit(seed: int) -> Circuit:
    """n = 5: a unitary prefix over all nine kinds, then mid-circuit measurements."""
    rng = random.Random(seed)
    n = VALIDATE_N
    ops = [_random_gate(rng, n, rng.choice(GATE_KINDS)) for _ in range(VALIDATE_PREFIX)]
    for slot in range(VALIDATE_TAIL_MEASURES):
        ops += [_random_gate(rng, n, rng.choice(GATE_KINDS)) for _ in range(2)]
        ops.append(GateOp("measure", (rng.randrange(n),), slot))
    return Circuit(n, tuple(ops), VALIDATE_TAIL_MEASURES)


def shipped_circuit(root: Path, name: str) -> Circuit:
    return parse((root / "circuits" / f"{name}.qc").read_text(encoding="utf-8"))


def _shot_blocks(circuit: str, backend: str, calls: int, shots: int) -> list[Block]:
    """Pool of blocks: block b runs seeds b*calls .. b*calls+calls-1."""
    record_check = "all_equal" if circuit in CORRELATED else None
    pool = []
    for b in range(POOL_BLOCKS):
        seeds = range(b * calls, (b + 1) * calls)
        keys = (f"{circuit}|{backend}|{shots}|{s}" for s in seeds)
        calls_ = tuple(Call(k, "run", circuit + ".qc", backend, shots, s) for k, s in zip(keys, seeds))
        pool.append(Block(calls_, record_check, SHIPPED[circuit]))
    return pool


def _circuit_pool(w: Workload, tag: str, make, command: str, backend, shots: int, record_check=None):
    """Pool of one-call blocks, block b running circuit make(b) with seed b."""
    pool = []
    for b in range(POOL_BLOCKS):
        name = f"{tag}-c{b}"
        w.circuits[name + ".qc"] = make(b)
        call = Call(f"{name}|{backend or command}|{shots}|{b}", command, name + ".qc", backend, shots, b)
        pool.append(Block((call,), record_check))
    return pool


def build(name: str, root: Path, scale: str = "full") -> Workload:
    """Every circuit and the full block pool of a workload."""
    z = SIZES[scale]
    w = Workload(name)
    if name == "wide-gates":
        n, k = z["wide_gates_n"], z["wide_gates_per_kind"]
        make = partial(ghz_echo_circuit, n, k)
        pool = _circuit_pool(w, f"ghz-echo-n{n}-k{k}", make, "run", "stabilizer", z["wide_gates_shots"], "all_equal")
        w.groups.append((z["wide_take"], pool))
    elif name == "wide-measure":
        n, d = z["wide_measure_n"], z["wide_measure_depth"]
        make = partial(measure_twice_circuit, n, d)
        shots = z["wide_measure_shots"]
        pool = _circuit_pool(w, f"measure-twice-n{n}-d{d}", make, "run", "stabilizer", shots, "pairs_equal")
        w.groups.append((z["wide_take"], pool))
    elif name in ("many-shots", "oracle-xcheck"):
        backends = ("stabilizer",) if name == "many-shots" else ("dense-clifford", "statevector")
        for circuit in SHIPPED:
            w.circuits[circuit + ".qc"] = shipped_circuit(root, circuit)
            for backend in backends:
                w.groups.append((1, _shot_blocks(circuit, backend, *z[backend][circuit])))
        if name == "oracle-xcheck":
            pool = _circuit_pool(w, f"validate-n{VALIDATE_N}", validate_circuit, "validate", None, z["validate_shots"])
            w.groups.append((z["validate_take"], pool))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


def digest(report: dict) -> str:
    """Hash of `records`, `counts` and `final` only; floats rounded to 1e-9."""

    def canon(x):
        if isinstance(x, float):
            return round(x, 9) + 0.0  # + 0.0 folds -0.0 into 0.0
        if isinstance(x, list):
            return [canon(v) for v in x]
        if isinstance(x, dict):
            return {k: canon(v) for k, v in x.items()}
        return x

    body = {k: canon(report.get(k)) for k in ("records", "counts", "final")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_report(call: Call, block: Block, circuit: Circuit, rc, report, reference) -> list[str]:
    """Problems with one call's output; an empty list means it passed.

    `reference` maps call keys to digests, or is None to skip that check.
    """
    if rc != 0:
        return [f"exit code {rc!r}"]
    if not isinstance(report, dict):
        return ["no JSON report"]
    if call.command == "validate":
        checks = report.get("checks") or []
        bad = [c.get("name") for c in checks if c.get("passed") is not True]
        if report.get("passed") is not True or bad or len(checks) < 3:
            return [f"validate failed: {bad}"]
        return []

    problems = []
    slots = [op.slot for op in circuit.ops if op.is_measure]
    records = report.get("records")
    if report.get("shots") != call.shots or not isinstance(records, list) or len(records) != call.shots:
        return [f"expected {call.shots} records"]
    counts: dict[str, int] = {}
    for rec in records:
        if not isinstance(rec, list) or len(rec) != len(slots) or any(v not in (0, 1) for v in rec):
            return [f"malformed record {rec!r}"]
        reg = ["0"] * circuit.creg
        for slot, v in zip(slots, rec):
            reg[slot] = str(v)
        key = "".join(reg)
        counts[key] = counts.get(key, 0) + 1
        if block.record_check == "all_equal" and len(set(rec)) > 1:
            problems.append("record not all-equal")
        if block.record_check == "pairs_equal" and rec[0::2] != rec[1::2]:
            problems.append("repeated measurement disagrees")
    if counts != report.get("counts"):
        problems.append("counts do not match records")
    if reference is not None:
        want = reference.get(call.key)
        got = digest(report)
        if want != got:
            problems.append(f"digest {got} != reference {want}")
    return problems


def check_distribution(block: Block, counts_per_call: list[dict]) -> str | None:
    """Pooled counts of a block against its expected distribution."""
    if block.expect is None:
        return None
    pooled: dict[str, int] = {}
    for counts in counts_per_call:
        for k, v in counts.items():
            pooled[k] = pooled.get(k, 0) + v
    shots = sum(c.shots for c in block.calls)
    tol = max(STAT_TOL, 4.0 * math.sqrt(0.25 / shots))  # 0.02 at 10^4 shots
    for k in set(pooled) | set(block.expect):
        dev = abs(pooled.get(k, 0) / shots - block.expect.get(k, 0.0))
        if dev > tol:
            return f"frequency of {k} off by {dev:.4f} (tol {tol:.4f}) over {shots} shots"
    return None
