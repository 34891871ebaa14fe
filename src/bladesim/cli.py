"""Command-line driver: run circuits, cross-validate backends, benchmark.

    bladesim run circuit.qc --backend stabilizer --shots 1000 --seed 7 --out report.json
    bladesim validate circuit.qc --shots 10000 --seed 0
    bladesim bench --sizes 2^10..2^20 --reps 20 --csv timings.csv

Reports are JSON with sorted keys, a two-space indent, ASCII escapes and a
trailing newline (`report_text`); wall-clock numbers live under the "timing"
key so byte comparison of reports can drop them.  Bench output is CSV with a
header row.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import backends, bench
from .circuit import MAX_SHOTS, ParseError, parse
from .errors import BladesimError


def _read_circuit(path: str):
    # newline="": parse sees the file's own line ends, so the CLI and parse agree on every CR
    with open(path, encoding="utf-8", newline="") as fh:
        return parse(fh.read())


# bench sizes above this are refused: the product kernels allocate per-size
# random words, and 2^24 is already well past the 2^20 the timing gates use
MAX_SIZE = 2**24


def _parse_size_item(item: str) -> int:
    try:
        value = int(item[2:] if item.startswith("2^") else item)
    except ValueError:
        raise ValueError(f"bad size {item!r}") from None
    # clamping the exponent keeps 2^K for huge K from building a huge int
    n = 2 ** min(value, 64) if item.startswith("2^") else value
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


def _write_pieces(path: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces in order as they come, to stdout when `path` is None or "-", without joining them.

    A file is opened before the first piece is asked for, so a report whose
    encoding fails part-way leaves the pieces written so far.
    """
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def report_text(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2) + "\\n"`, for any JSON value, without json's slow path.

    With `indent` set, json encodes in pure Python.  Here the text is the
    join of the pieces `_report_pieces` yields; the CLI writes each piece as
    it is made, so at most one chunk of an array's text is held.  A dict
    with str keys is walked in sorted key order and a list item by item.  A
    2-D uint8 array of 0s and 1s (a run's records) is written as its
    `tolist()` would be, and a 1-D bytes array with no NUL byte (a
    stabilizer run's final lines) as its items decoded would be, both from
    one row template (`_rows`).  Any other bytes array is written as its
    items decoded and any other array as its `tolist()`.  A list of lists of
    numbers, bools and None (a state vector's [re, im] pairs, or records as
    lists) is json's compact text, broken into lines at its brackets and
    commas, and a value that is no list or dict, or is empty, is json's
    compact text.  A dict with other keys is json's own text with its lines
    moved to the value's depth: json escapes newlines inside strings, so
    each newline it writes is indent.
    """
    return "".join(_report_pieces(report))


def _report_pieces(report) -> Iterator[str]:
    """Yield the pieces whose join is `report_text(report)`, each made when it is asked for."""
    yield from _encode(report, "\n")
    yield "\n"


def _encode(value, newline: str) -> Iterator[str]:
    """Yield `value`'s text as json.dumps indents it, where `newline` is a line break and the value's own indent.

    Arrays are written as `report_text` says.  The pieces come in order and
    none is held after it is yielded, so a consumer that writes them holds
    one piece at a time.
    """
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and len(value) and value.dtype == np.uint8 and value.max(initial=0) <= 1:
            width, deeper = value.shape[1], inner + "  "
            row = "[" + ",".join([deeper + "0"] * width) + inner + "]" if width else "[]"
            step = len(deeper) + 2
            yield from _rows(value, row, slice(step - 1, step * width, step), ord("0"), newline)
        elif value.ndim == 1 and len(value) and value.dtype.kind == "S" and (letters := value[:, None].view(np.uint8)).all():
            yield from _rows(letters, '"' + "0" * value.itemsize + '"', slice(1, 1 + value.itemsize), 0, newline)
        else:
            yield from _encode(value.astype(str).tolist() if value.dtype.kind == "S" else value.tolist(), newline)
    elif not isinstance(value, (list, tuple, dict)) or not value:
        yield json.dumps(value)  # no line breaks to indent, so the C encoder gives the same text
    elif type(value) is dict and set(map(type, value)) == {str}:
        for sep, key in zip(chain("{", repeat(",")), sorted(value)):
            yield sep + inner + encode_basestring_ascii(key) + ": "
            yield from _encode(value[key], inner)
        yield newline + "}"
    elif isinstance(value, dict):
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
    elif (
        type(value) is list
        and set(map(type, value)) == {list}
        and set(map(type, chain.from_iterable(value))) <= {int, float, bool, type(None)}
    ):
        # compact text of numbers, literals and brackets: no quotes, so every bracket and comma is structure
        deeper = inner + "  "
        text = json.dumps(value, separators=(",", ":"))[1:-1].replace(",", "," + deeper)
        text = text.replace("]," + deeper + "[", "]," + inner + "[").replace("[", "[" + deeper).replace("]", inner + "]")
        yield "[" + inner + text.replace("[" + deeper + inner + "]", "[]") + newline + "]"
    else:
        for sep, item in zip(chain("[", repeat(",")), value):
            yield sep + inner
            yield from _encode(item, inner)
        yield newline + "]"


def _rows(cells: np.ndarray, row: str, columns: slice, offset: int, newline: str) -> Iterator[str]:
    """Yield a JSON list of fixed-width rows, one per row of the 2-D uint8 `cells`, which has at least one.

    Each row's text is `row` with the cells' bytes plus `offset` in its
    `columns`: a record's digits (offset ord("0")) between its brackets, or
    a stabilizer line's letters (offset 0) between its quotes.  The letters
    must be ASCII characters that JSON does not escape, as `+ - I X Y Z`
    are.  With the comma and line break after it every row has one width,
    so the rows are copies of one template with the cells added in by array
    assignment, MAX_SHOTS bytes at a time: a chunk's template copies are
    still in cache when its cells are added, and each chunk is decoded and
    yielded on its own, so only one chunk's bytes and text are held.  The
    last chunk drops the separator after the last row.
    """
    count, inner = len(cells), newline + "  "
    sep = "," + inner
    template = np.frombuffer((row + sep).encode(), dtype=np.uint8)
    chunk = max(1, MAX_SHOTS // len(template))
    yield "[" + inner
    for first in range(0, count, chunk):
        part = np.empty((min(chunk, count - first), len(template)), dtype=np.uint8)
        part[:] = template
        np.add(cells[first : first + chunk], offset, out=part[:, columns])
        text = memoryview(part.reshape(-1))
        yield str(text if first + chunk < count else text[: -len(sep)], "ascii")
    yield newline + "]"


def _cmd_run(args) -> int:
    circuit = _read_circuit(args.circuit)
    report = backends.run(circuit, backend=args.backend, shots=args.shots, seed=args.seed)
    _write_pieces(args.out, _report_pieces(report))
    return 0


def _cmd_validate(args) -> int:
    circuit = _read_circuit(args.circuit)
    report = backends.validate(circuit, shots=args.shots, seed=args.seed)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    if args.out:
        _write_pieces(args.out, _report_pieces(report))
    return 0 if report["passed"] else 1


def _cmd_bench(args) -> int:
    kernels = bench.DEFAULT_KERNELS if args.kernel == "both" else (args.kernel,)
    sizes = parse_sizes(args.sizes)
    rows = bench.bench_rows(sizes, reps=args.reps, kernels=kernels, seed=args.seed)
    for kernel, (cap, why) in bench.CAPS.items():
        if kernel in kernels and max(sizes) > cap:
            print(f"note: {kernel} sizes above {cap} skipped ({why})", file=sys.stderr)
    _write_pieces(args.csv, [bench.format_csv(rows)])
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
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
    args = build_parser().parse_args(argv)
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
