"""Timing kernels for the word-parallel string product, tableau gates and the shots' streams."""

from __future__ import annotations

import time

import numpy as np

from .backends import _shot_words
from .circuit import MAX_QUBITS, MAX_SHOTS, ONE_QUBIT_GATES, TWO_QUBIT_GATES
from .strings import BladeString, PauliString, pauli_mul, string_mul
from .tableau import Tableau

KERNELS = ("pauli-mul", "tableau-gate", "string-mul", "shot-words")
DEFAULT_KERNELS = ("pauli-mul", "tableau-gate")  # what `bladesim bench --kernel both` times
CALLS_PER_REP = 4  # products or gates timed back to back in one rep
# kernel -> (largest size it times, why larger sizes are skipped)
CAPS = {
    "tableau-gate": (MAX_QUBITS, "a tableau holds 4n^2 bits"),
    "shot-words": (MAX_SHOTS, "a run takes at most 2^20 shots"),
}


def _random_masks(n: int, rng) -> tuple[int, int]:
    nbytes = (n + 7) // 8
    mask = (1 << n) - 1
    return tuple(int.from_bytes(rng.bytes(nbytes), "little") & mask for _ in range(2))


def random_pauli(n: int, rng) -> PauliString:
    return PauliString(n, *_random_masks(n, rng), int(rng.integers(4)))


def random_blades(n: int, rng) -> BladeString:
    return BladeString(n, *_random_masks(n, rng), int(rng.choice((1, -1))))


def _time_calls(fn, arglists: list[tuple], reps: int) -> list[float]:
    """Per-call wall times in ns; each rep calls `fn` once per argument tuple."""
    for args in arglists:  # warm-up
        fn(*args)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for args in arglists:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(arglists))
    return samples


def _time_products(n: int, reps: int, seed: int, make, mul) -> list[float]:
    rng = np.random.default_rng([seed, n])
    return _time_calls(mul, [(make(n, rng), make(n, rng)) for _ in range(CALLS_PER_REP)], reps)


def time_string_mul(n: int, reps: int = 20, seed: int = 0) -> list[float]:
    """Per-call wall times in ns for the blade-string product."""
    return _time_products(n, reps, seed, random_blades, string_mul)


def time_pauli_mul(n: int, reps: int = 20, seed: int = 0) -> list[float]:
    """Per-call wall times in ns; each rep times CALLS_PER_REP products."""
    return _time_products(n, reps, seed, random_pauli, pauli_mul)


def time_tableau_gate(n: int, reps: int = 20, seed: int = 0, kind: str = "h") -> list[float]:
    """Per-gate wall times in ns on a fresh tableau: one gate kind on random qubits, distinct for a pair."""
    if kind not in ONE_QUBIT_GATES + TWO_QUBIT_GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    rng = np.random.default_rng([seed, n])
    if kind in ONE_QUBIT_GATES:
        arglists = [(int(q),) for q in rng.integers(0, n, size=CALLS_PER_REP)]
    else:  # numpy refuses a pair at n = 1
        arglists = [tuple(map(int, rng.choice(n, size=2, replace=False))) for _ in range(CALLS_PER_REP)]
    return _time_calls(getattr(Tableau(n), kind), arglists, reps)


def time_shot_words(shots: int, reps: int = 20, seed: int = 0) -> list[float]:
    """Per-call wall times in ns for the first output of `shots` shots' streams (`backends._shot_words`)."""
    return _time_calls(_shot_words, [(seed, shots, 1)] * CALLS_PER_REP, reps)


def bench_rows(sizes, reps: int = 20, kernels=DEFAULT_KERNELS, seed: int = 0) -> list[dict]:
    if reps < 1:
        raise ValueError("need at least one repetition")
    for kernel in kernels:
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; choose from {', '.join(KERNELS)}")
    rows = []
    for kernel in kernels:
        timer = {
            "pauli-mul": time_pauli_mul,
            "tableau-gate": time_tableau_gate,
            "string-mul": time_string_mul,
            "shot-words": time_shot_words,
        }[kernel]
        for n in sizes:
            if kernel in CAPS and n > CAPS[kernel][0]:
                continue
            samples = timer(n, reps=reps, seed=seed)
            rows.append(
                {
                    "kernel": kernel,
                    "n": int(n),
                    "median_ns": float(np.median(samples)),
                    "p90_ns": float(np.percentile(samples, 90)),
                }
            )
    return rows


def format_csv(rows) -> str:
    lines = ["kernel,n,median_ns,p90_ns"]
    for r in rows:
        lines.append(f"{r['kernel']},{r['n']},{r['median_ns']:.1f},{r['p90_ns']:.1f}")
    return "\n".join(lines) + "\n"
