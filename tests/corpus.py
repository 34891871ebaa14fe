"""Hand-written circuit files for the parser, and random circuits for hypothesis.

INVALID_FILES entries are (source, expected error line).
"""

from hypothesis import strategies as st

from bladesim import random_clifford_circuit
from bladesim.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES

VALID_FILES = [
    "qubits 1\n",
    "qubits 1\nh 0\n",
    "qubits 1\nx 0\nmeasure 0\n",
    "qubits 2\nh 0\ncnot 0 1\n",
    "qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n",
    "qubits 2\nh 0\ncnot 0 1\nmeasure 0 -> 1\nmeasure 1 -> 0\n",
    "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\nmeasure 0\nmeasure 1\nmeasure 2\n",
    "qubits 2\nswap 0 1\ncz 1 0\n",
    "qubits 1\ns 0\nsdg 0\nz 0\ny 0\nx 0\n",
    "# leading comment\nqubits 2\nh 1\n",
    "qubits 2  # trailing comment on header\nh 0  # and on a statement\n",
    "\n\nqubits 1\n\n\nh 0\n\n",
    "qubits 2\r\nh 0\r\ncnot 0 1\r\n",  # CRLF input
    "qubits 4\nh 3\ncnot 3 0\nswap 1 2\n",
    "qubits 1\nmeasure 0\nmeasure 0\nmeasure 0\n",  # repeated measurement, fresh slots
    "qubits 2\nmeasure 0 -> 5\nmeasure 1\n",  # explicit slot then implicit continues after it
    "qubits 2\nmeasure 0 -> 0\nmeasure 1 -> 0\n",  # explicit reuse of a slot
    "qubits 10\nh 9\ncnot 9 0\n",
    "qubits 1\n# only comments after header\n",
    "qubits 3\n   h    1   \ncz 0 2\n",  # ragged whitespace
    "qubits 2\nh 0\nh 1\ncz 0 1\nh 1\nmeasure 1 -> 0\nh 0\nmeasure 0 -> 1\n",
]

INVALID_FILES = [
    ("", 1),                                      # empty: no header
    ("# comment only\n", 1),                      # still no header
    ("h 0\nqubits 1\n", 1),                       # statement before header
    ("qubits 1\nqubits 2\n", 2),                  # duplicate header
    ("qubits 0\n", 1),                            # zero qubits
    ("qubits two\n", 1),                          # non-integer count
    ("qubits 1\nfoo 0\n", 2),                     # unknown keyword
    ("qubits 1\nh\n", 2),                         # missing index
    ("qubits 1\nh 0 1\n", 2),                     # too many arguments
    ("qubits 2\nh 5\n", 2),                       # index out of range
    ("qubits 1\ncnot 0 0\n", 2),                  # equal indices
    ("qubits 2\ncnot 0\n", 2),                    # arity mismatch
    ("qubits 2\nh zero\n", 2),                    # non-integer index
    ("qubits 2\nh -1\n", 2),                      # negative index is not an integer token
    ("qubits 2\nmeasure 0 > 1\n", 2),             # malformed arrow
    ("qubits 2\nmeasure 0 ->\n", 2),              # missing slot
    ("qubits 2\nmeasure 0 -> 1 2\n", 2),          # trailing token
    ("qubits 2\nh 0\ncnot 0 1\nswap 1 1\n", 4),   # later line, equal indices
    ("qubits 2\nh 0\nmeasure 2\n", 3),            # measure target out of range
    ("qubits\n", 1),                              # header without count
    ("qubits \uff13\n", 1),                       # fullwidth digit count
    ("qubits 2\nh \u0661\n", 2),                  # Arabic-Indic digit index
]


@st.composite
def circuits(draw, max_n: int = 6):
    """Random circuits over all nine gate kinds, with mid-circuit measurements."""
    n = draw(st.integers(1, max_n))
    depth = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 10_000))
    prob = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return random_clifford_circuit(
        n, depth, seed=seed, gate_kinds=ONE_QUBIT_GATES + TWO_QUBIT_GATES, measure_prob=prob
    )
