"""Outside-in benchmark of the bladesim CLI.

    python3 perfbench/run.py --workload many-shots --seed 1 --seconds 25 --trace 0

Run from the repository root.  Every timed call is `bladesim.cli.main([...])`
in this process, on `.qc` files generated from the workload seed before
timing starts.  The load is a closed loop with one client: the next call
starts when the previous one returns.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`.  Workloads and metrics are listed in BENCHMARK.json.

End-to-end timings are printed in reference seconds: each timed stretch is
scaled by the speed of a fixed loop run around it (see refclock.py), so that
a shared host's changing speed cancels.  The same timings in wall seconds go
to standard error and to the run record under perfbench/work/.

The program is imported from `src/` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> tuple[float, float]:
    """Import bladesim from this checkout's source tree.

    Returns the time taken in reference seconds (see refclock) and in wall seconds.
    """
    if not (SRC / "bladesim" / "__init__.py").is_file():
        raise SystemExit(f"error: no bladesim source tree at {SRC}")
    # One client, no threads: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import bladesim

    elapsed = perf_counter() - t0
    import refclock  # after bladesim, so that numpy's import counts in `elapsed`

    before, after = refclock.measure(), refclock.measure()
    if Path(bladesim.__file__).resolve().parent != SRC / "bladesim":
        raise SystemExit(f"error: imported bladesim from {bladesim.__file__}, not from {SRC}")
    return refclock.scale(elapsed, before, after), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_s = load_program()
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {harness.WORKLOADS}", file=sys.stderr)
        return 2
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), import_s)


if __name__ == "__main__":
    raise SystemExit(main())
