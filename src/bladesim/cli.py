"""Command-line driver: run circuits, cross-validate backends, benchmark.

    bladesim run circuit.qc --backend stabilizer --shots 1000 --seed 7 --out report.json
    bladesim validate circuit.qc --shots 10000 --seed 0
    bladesim bench --sizes 2^10..2^20 --reps 20 --csv timings.csv

Reports are JSON with sorted keys; wall-clock numbers live under the
"timing" key so byte comparison of reports can drop them.  Bench output is
CSV with a header row.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import backends, bench
from .circuit import MAX_QUBITS, ParseError, parse
from .errors import BladesimError


def _read_circuit(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# bench sizes above this are refused: the product kernels allocate per-size
# random words, and 2^24 is already well past the 2^20 the timing gates use
MAX_SIZE = 2**24


def _parse_size_item(item: str) -> int:
    # clamping the exponent keeps 2^K for huge K from building a huge int
    n = 2 ** min(int(item[2:]), 64) if item.startswith("2^") else int(item)
    if n > MAX_SIZE:
        raise ValueError(f"size {item!r} is above the limit 2^24")
    return n


def parse_sizes(text: str) -> list[int]:
    """Size list: comma-separated values, each INT or 2^K or a doubling range A..B."""
    sizes: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            lo, hi = _parse_size_item(lo_s), _parse_size_item(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad size range {item!r}")
            n = lo
            while n <= hi:
                sizes.append(n)
                n *= 2
        else:
            sizes.append(_parse_size_item(item))
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"bad size list {text!r}")
    return sizes


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    circuit = _read_circuit(args.circuit)
    report = backends.run(circuit, backend=args.backend, shots=args.shots, seed=args.seed)
    _write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_validate(args) -> int:
    circuit = _read_circuit(args.circuit)
    report = backends.validate(circuit, shots=args.shots, seed=args.seed)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    if args.out:
        _write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 1


def _cmd_bench(args) -> int:
    kernels = bench.KERNELS if args.kernel == "both" else (args.kernel,)
    sizes = parse_sizes(args.sizes)
    rows = bench.bench_rows(sizes, reps=args.reps, kernels=kernels, seed=args.seed)
    if len(rows) < len(sizes) * len(kernels):
        print(
            f"note: tableau-gate sizes above {MAX_QUBITS} skipped "
            "(a tableau holds 4n^2 bits)",
            file=sys.stderr,
        )
    _write_text(args.csv, bench.format_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bladesim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a circuit on one backend")
    p_run.add_argument("circuit", help="path to a .qc circuit file")
    p_run.add_argument("--backend", choices=backends.BACKENDS, default="stabilizer")
    p_run.add_argument("--shots", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="cross-check all backends on a circuit")
    p_val.add_argument("circuit", help="path to a .qc circuit file")
    p_val.add_argument("--shots", type=int, default=10_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None, help="optional JSON report path")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="time the scaling kernels")
    p_bench.add_argument("--sizes", default="2^10..2^20")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--kernel", choices=bench.KERNELS + ("both",), default="both")
    p_bench.add_argument("--csv", default=None, help="CSV path (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "shots", 1) < 1:
        parser.error("shots must be at least 1")
    if getattr(args, "reps", 1) < 1:
        parser.error("reps must be at least 1")
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (BladesimError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
