"""The statevector oracle against its reference in `tests/oracles.py`, and its independence.

`statevector` reads qubit q through the view `state.reshape(2**q, 2, -1)`;
the reference is the n-axis `moveaxis` and `_slices` code it replaced.  The
two-qubit gates, `born_p1` and `collapse` only move, sum and scale numbers,
so they must match the reference byte for byte, signed zeros included.  A
one-qubit gate is a matmul whose float bits may differ by an ulp.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from bladesim import GateOp
from bladesim import statevector as sv
from oracles import apply_gate, born_p1, collapse, gate_unitary

SRC = Path(__file__).resolve().parent.parent / "src" / "bladesim"
ALL_N = range(1, sv.STATEVECTOR_CAP + 1)
UNITARY_CAP = 8  # a 2^n x 2^n unitary at n = 12 is 268 MB; past this the reference alone is compared


def random_state(n: int, seed: int) -> np.ndarray:
    """A unit state with some amplitudes, never the first, exact zeros of either sign."""
    rng = np.random.default_rng([n, seed])
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    zero = 1 + np.flatnonzero(rng.random(2**n - 1) < 0.2)
    v.real[zero] = np.copysign(0.0, rng.normal(size=zero.size))
    v.imag[zero] = np.copysign(0.0, rng.normal(size=zero.size))
    return v


@pytest.mark.parametrize("n", ALL_N)
def test_two_qubit_gates_match_the_reference_bytes(n):
    v = random_state(n, 0)
    for a in range(n):
        for b in range(n):
            if a != b:
                for kind in ("cnot", "cz", "swap"):
                    op = GateOp(kind, (a, b))
                    assert sv.apply_gate(v, op, n).tobytes() == apply_gate(v, op, n).tobytes(), op


def _bytes_or_refusal(f, *args):
    try:
        return np.asarray(f(*args)).tobytes()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("n", ALL_N)
def test_born_and_collapse_match_the_reference_bytes(n):
    v = random_state(n, 1)
    for q in range(n):
        assert np.float64(sv.born_p1(v, q, n)).tobytes() == np.float64(born_p1(v, q, n)).tobytes(), q
        for outcome in (0, 1):  # at small n an outcome's amplitudes may all be zero: both must refuse alike
            assert _bytes_or_refusal(sv.collapse, v, q, n, outcome) == _bytes_or_refusal(collapse, v, q, n, outcome), (q, outcome)


@pytest.mark.parametrize("n", ALL_N)
def test_one_qubit_gates_match_the_reference_and_the_unitary(n):
    v = random_state(n, 2)
    for q in range(n):
        for kind in sv.GATES_1Q:
            op = GateOp(kind, (q,))
            got = sv.apply_gate(v, op, n)
            assert np.max(np.abs(got - apply_gate(v, op, n))) <= 1e-15, op
            if n <= UNITARY_CAP:
                assert np.max(np.abs(got - gate_unitary(op, n) @ v)) <= 1e-12, op


def test_collapse_leaves_its_input_unchanged():
    v = random_state(3, 3)
    before = v.tobytes()
    sv.collapse(v, 1, 3, 0)
    assert v.tobytes() == before


def _bladesim_imports(path: Path) -> set[str]:
    """Names of the bladesim modules one source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # `from .x import y` or `from . import x`
                names |= {module} if module else {alias.name for alias in node.names}
            elif module == "bladesim":
                names |= {alias.name for alias in node.names}
            elif module.startswith("bladesim."):
                names.add(module.removeprefix("bladesim."))
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("bladesim.") for alias in node.names if alias.name.startswith("bladesim.")}
    return names


def test_the_oracle_shares_no_code_with_the_algebra():
    # statevector is what validate checks the algebra against, so neither it
    # nor any bladesim module it imports may reach ideal, gates or dense
    seen, todo = set(), ["statevector"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += sorted(_bladesim_imports(SRC / f"{name}.py"))
    assert "circuit" in seen and not seen & {"ideal", "gates", "dense", "backends"}, seen
