"""Pinned bytes of the files the CLI writes: `run --out`, `run --out -` and `validate --out`.

`tests/test_report_golden.py` pins the report as a dict.  This module pins the
indented text the CLI writes, byte for byte, timing included: the backends'
clock is replaced by one that steps 0.375 s per reading, so every report reads
total_s 0.375.  The digests were made with `json.dumps(report,
sort_keys=True, indent=2) + "\\n"` as the writer.

Regenerate with `PYTHONPATH=src python tests/test_cli_golden.py` only when a
change is meant to alter the written bytes, and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest

import bladesim.backends
from bladesim.backends import BACKENDS
from bladesim.cli import main

SHOTS = "64"
SEED = "5"
CIRCUIT_DIR = Path(__file__).resolve().parent.parent / "circuits"
SHIPPED = sorted(p.stem for p in CIRCUIT_DIR.glob("*.qc"))


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments; "{out}" stands for the output path."""
    cases = {}
    for name in SHIPPED:
        path = str(CIRCUIT_DIR / f"{name}.qc")
        for backend in BACKENDS:
            cases[f"run {name} {backend}"] = ["run", path, "--backend", backend, "--shots", SHOTS, "--seed", SEED, "--out", "{out}"]
        cases[f"run {name} stdout"] = ["run", path, "--shots", SHOTS, "--seed", SEED, "--out", "-"]
        cases[f"validate {name}"] = ["validate", path, "--shots", "500", "--seed", SEED, "--out", "{out}"]
    return cases


CASES = _cases()


def written_bytes(argv: list[str], out: Path) -> bytes:
    """The bytes one CLI call writes to `out` (or to stdout for `--out -`), under a stepping clock."""
    clock = itertools.count(1.0, 0.375)
    original = bladesim.backends.time.perf_counter
    bladesim.backends.time.perf_counter = lambda: next(clock)
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            assert main([arg.replace("{out}", str(out)) for arg in argv]) == 0
    finally:
        bladesim.backends.time.perf_counter = original
    return printed.getvalue().encode() if "-" in argv else out.read_bytes()


GOLDEN = {
    "run bell dense-clifford": "ac2b5ee257563a3c717c0112ad26e93836d67ae82e5188414d2d00153e55eff2",
    "run bell stabilizer": "75aac8186b581b619142c46acb2f5d17ce33e3413c5c7b0884e0851befbb43a1",
    "run bell statevector": "9af56a690485b4c902922012afb467f33b105d75af12855a4b5dc86f2d12a18f",
    "run bell stdout": "75aac8186b581b619142c46acb2f5d17ce33e3413c5c7b0884e0851befbb43a1",
    "run ghz3 dense-clifford": "a12d25e00ebda173f05edce8e22da3692d99b9bf7ca1cc1dc14abedbec62dc4d",
    "run ghz3 stabilizer": "7f5ae9f8ac835a86bf569e5c918a38787fa86507ddfb20015798ec184003e78a",
    "run ghz3 statevector": "fc5d19bbc76a50f1383f4c813369aca17c44672619e532fbfd1a469fbd9348bf",
    "run ghz3 stdout": "7f5ae9f8ac835a86bf569e5c918a38787fa86507ddfb20015798ec184003e78a",
    "run teleport_like dense-clifford": "5737168e4e20e4f298fb7be38622c0b16683f12bdb8cf25ecfb95d5def1af0fb",
    "run teleport_like stabilizer": "c9b275e005fc5a8bc3fe5f9783dfc4d04cf59aa3777bc80826f110c34c10c389",
    "run teleport_like statevector": "f8d7584634c089d44c7a3fd415feb466c53c553d7d98e035582710fb4276bb3c",
    "run teleport_like stdout": "c9b275e005fc5a8bc3fe5f9783dfc4d04cf59aa3777bc80826f110c34c10c389",
    "validate bell": "6556c4eaa132d876308dc97857308b0f604235561474622795bb07fcf471ddc5",
    "validate ghz3": "1d89910c88fc9731a3d6770594949db1a2934e4afc208aeb17499cab458963a8",
    "validate teleport_like": "4b007ee69c268601e6ab239bf3d06e6e303f91c6190326edb1e8bc1e5329fdab",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_writes_pinned_bytes(case, tmp_path):
    data = written_bytes(CASES[case], tmp_path / "report.json")
    assert hashlib.sha256(data).hexdigest() == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "report.json"
        digests = {case: hashlib.sha256(written_bytes(argv, out)).hexdigest() for case, argv in CASES.items()}
    print(json.dumps(digests, indent=4, sort_keys=True))
