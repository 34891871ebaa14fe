"""Mutants of the fast paths, each with the test files that must kill it.

    python tests/mutants.py

For each mutant, `main` copies the checkout without `.git` into a temporary
directory, replaces the mutant's old text with its new text there, and runs
`pytest -x -q` on the mutant's test files in the copy.  The whole tree is
copied because pyproject.toml's `pythonpath = ["src"]` makes pytest import
the `src/` beside the tests it runs, whatever PYTHONPATH says.  The test
files are first run once on an unmutated copy, which must pass.  A mutant is
killed when pytest fails, survived when it passes, and stale when its old
text does not occur exactly once in its file or its tests cannot be run.
The exit status is 1 if any mutant survived or is stale.

pytest does not collect this file; `test_mutants.py` checks in tier-1 that
every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# caches, and the run records perfbench keeps under perfbench/work
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "work")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the checkout, that must fail


MUTANTS = (
    # dense_gp: a right-side term's e1 bits not moved onto e2
    Mutant("dense-gp-right-mask", "src/bladesim/dense.py", "(i & e1bits) << 1", "(i & e1bits)", ("tests/test_dense.py",)),
    # dense_gp: the collision sign read at the output index, not the gathered one
    Mutant(
        "dense-gp-sign-index",
        "src/bladesim/dense.py",
        "(other.c * _parity_signs(bits, mask)).take(idx ^ i)",
        "other.c.take(idx ^ i) * _parity_signs(bits, mask)",
        ("tests/test_dense.py",),
    ),
    # the parity table counting only the lowest set bit of its mask
    Mutant(
        "parity-signs-lowest-bit",
        "src/bladesim/dense.py",
        "_index(bits) & mask)",
        "_index(bits) & mask & -mask)",
        ("tests/test_dense.py", "tests/test_ideal.py", "tests/test_coordinates.py"),
    ),
    # word_action signing a word by its e2 mask instead of its e1 mask
    Mutant(
        "word-action-sign-mask",
        "src/bladesim/ideal.py",
        "_parity_signs(n, e1)",
        "_parity_signs(n, e2)",
        ("tests/test_coordinates.py",),
    ),
    # the ideal basis B_b prepared from e1 words instead of e2 words
    Mutant(
        "ideal-basis-letter",
        "src/bladesim/ideal.py",
        "_dense_bits(n, b, 2)",
        "_dense_bits(n, b, 1)",
        ("tests/test_ideal.py",),
    ),
    # right_mul_j multiplying by e2 instead of e12
    Mutant(
        "right-mul-j-blade",
        "src/bladesim/ideal.py",
        "basis_blade(s.n, 3)",
        "basis_blade(s.n, 2)",
        ("tests/test_ideal.py",),
    ),
    # the array pass's jump table read with its 64-bit limbs swapped
    Mutant(
        "jump-table-limb-order",
        "src/bladesim/backends.py",
        "a_lo, a_hi, c_lo, c_hi = np.frombuffer",
        "a_hi, a_lo, c_lo, c_hi = np.frombuffer",
        ("tests/test_shot_streams.py",),
    ),
    # the per-shot XSL-RR rotation read one bit too low
    Mutant("xsl-rr-rotation", "src/bladesim/backends.py", "state >> 122", "state >> 121", ("tests/test_shot_streams.py",)),
    # the per-shot output hash reading the wrong pool word
    Mutant("output-pool-word", "src/bladesim/backends.py", "pool[i % _POOL]", "pool[i // 2]", ("tests/test_shot_streams.py",)),
    # the per-shot hash skipping entropy words past the pool (seeds of 2^96 and up)
    Mutant(
        "extra-entropy-skipped",
        "src/bladesim/backends.py",
        "for word in entropy[_POOL:]:",
        "for word in entropy[_POOL:_POOL]:",
        ("tests/test_shot_streams.py",),
    ),
    # the symbolic pass counting every measurement as a draw
    Mutant(
        "pass-draws-every-measurement",
        "src/bladesim/backends.py",
        "draws += not deterministic",
        "draws += 1",
        ("tests/test_stabilizer_shots.py",),
    ),
    # the sampler XOR-ing only the first draw an outcome's mask selects
    Mutant(
        "sample-first-draw-only",
        "src/bladesim/backends.py",
        "            row ^= drawn[r]\n",
        "            row ^= drawn[r]\n            break\n",
        ("tests/test_stabilizer_shots.py",),
    ),
)


def _pytest(tree: Path, tests) -> int:
    """pytest's exit code for `pytest -x -q` on the test files in the copied tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _run(mutant: Mutant | None, tests) -> int | None:
    """pytest's exit code on a fresh copy, mutated unless `mutant` is None; None if the mutant is stale."""
    with tempfile.TemporaryDirectory(prefix="bladesim-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return None
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(tree, tests)


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    t0 = time.perf_counter()
    clean = _run(None, tests)
    status = "passed" if clean == 0 else f"failed ({clean})"
    print(f"{status:9} {'(unmutated)':30} {time.perf_counter() - t0:6.1f} s  {' '.join(tests)}", flush=True)
    if clean != 0:
        return 1
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        code = _run(mutant, mutant.tests)
        # pytest exits 1 on failed tests and 2 on a collection error, as a
        # mutant that breaks an import makes; 4 and 5 mean no tests were run
        status = "survived" if code == 0 else "killed" if code in (1, 2) else "stale"
        bad += status != "killed"
        print(f"{status:9} {mutant.name:30} {time.perf_counter() - t0:6.1f} s  {mutant.file}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
