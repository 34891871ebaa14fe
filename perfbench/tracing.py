"""Spans around bladesim's public callables, recorded from outside the package.

Each callable is patched at the name its caller looks up (the CLI calls
`backends.run`, the backends call `apply` and `to_statevector` through their
own module, the tableau calls `pauli_mul` through its own module), so a span
exists for every call the program makes.  Spans (name, start, end, parent) are
kept in flat in-memory lists while tracing and written out afterwards; a
layer's self time is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import bladesim.backends as backends
import bladesim.cli as cli
import bladesim.dense as dense
import bladesim.gates as gates
import bladesim.ideal as ideal
import bladesim.statevector as statevector
import bladesim.tableau as tableau

from workloads import GATE_KINDS

LAYERS = (
    "circuit.parse",
    "cli",
    "strings.pauli_mul",
    *(f"tableau.gate.{k}" for k in GATE_KINDS),
    "tableau.measure_z.random",
    "tableau.measure_z.deterministic",
    "tableau.copy",
    "tableau.check_invariants",
    "backends.run",
    "backends.validate",
    "backends.born_distribution",
    *(f"statevector.{f}" for f in ("apply_gate", "measure", "born_p1", "collapse")),
    "ideal.apply",
    "ideal.to_statevector",
    "gates.gate_to_operator_pair",
    "dense.dense_gp",
)
GATE_APPLY = frozenset([f"tableau.gate.{k}" for k in GATE_KINDS] + ["statevector.apply_gate", "ideal.apply"])


def _gate_name(args, result) -> str:
    return "tableau.gate." + args[1].kind


def _measure_name(args, result) -> str:
    return "tableau.measure_z." + ("deterministic" if result[1] else "random")


# (owner, attribute, span name); a callable computes the name from the call's
# arguments and result.
PATCHES = (
    (cli, "main", "cli"),
    (cli, "parse", "circuit.parse"),
    (tableau, "pauli_mul", "strings.pauli_mul"),
    (tableau.Tableau, "apply_gate", _gate_name),
    (tableau.Tableau, "measure_z", _measure_name),
    (tableau.Tableau, "copy", "tableau.copy"),
    (tableau.Tableau, "check_invariants", "tableau.check_invariants"),
    (backends, "run", "backends.run"),
    (backends, "validate", "backends.validate"),
    (backends, "born_distribution", "backends.born_distribution"),
    (statevector, "apply_gate", "statevector.apply_gate"),
    (statevector, "measure", "statevector.measure"),
    (statevector, "born_p1", "statevector.born_p1"),
    (statevector, "collapse", "statevector.collapse"),
    (backends, "apply", "ideal.apply"),
    (backends, "to_statevector", "ideal.to_statevector"),
    (backends, "gate_to_operator_pair", "gates.gate_to_operator_pair"),
    (ideal, "dense_gp", "dense.dense_gp"),
    (gates, "dense_gp", "dense.dense_gp"),
    (dense, "dense_gp", "dense.dense_gp"),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run_shots: dict[int, int] = {}  # span index of backends.run -> shots
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name):
        names, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        shots = self.run_shots if name == "backends.run" else None
        fixed = name if isinstance(name, str) else "raised"  # replaced on return

        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(fixed)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if shots is not None:
                shots[i] = kwargs.get("shots", 1)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if fixed == "raised":
                names[i] = name(args, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name in PATCHES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass calls and self time of every layer, plus the exact counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        for i in range(n):
            if self.parent[i] >= 0:
                self_s[self.parent[i]] -= dur[i]
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            if self.name[i] in calls:  # spans of calls that raised are left out
                calls[self.name[i]] += 1
                total[self.name[i]] += self_s[i]

        measures = calls["tableau.measure_z.random"] + calls["tableau.measure_z.deterministic"]
        row_products = sum(
            1
            for i in range(n)
            if self.name[i] == "strings.pauli_mul"
            and self.parent[i] >= 0
            and self.name[self.parent[i]].startswith("tableau.measure_z.")
        )
        applies = 0
        for i in range(n):
            if self.name[i] in GATE_APPLY:
                j = self.parent[i]
                while j >= 0 and self.name[j] != "backends.run":
                    j = self.parent[j]
                applies += j >= 0
        shots = sum(self.run_shots.values())

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / passes, "count")
            out[f"{layer}.self_s"] = (total[layer] / passes, "s")
        out["tableau.row_products_per_measure"] = (row_products / measures if measures else 0.0, "count")
        out["backends.gate_applies_per_shot"] = (applies / shots if shots else 0.0, "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as parallel arrays; times in microseconds from the first span."""
        t0 = min(self.start, default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "name": self.name,
                    "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
                    "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
                    "parent": self.parent,
                },
                fh,
                separators=(",", ":"),
            )
