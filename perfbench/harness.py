"""Set-up, timed passes, output checks and metrics of one benchmark run."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bladesim
import bladesim.cli
import refclock
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("wide-gates", "wide-measure", "many-shots", "oracle-xcheck")

SETUP_REPEATS = 3
MIN_PASSES = 2  # wall_s is a median over passes; an oracle-xcheck pass takes 8 to 12 s
SPAN_LIMIT = 300_000  # no further traced pass starts once this many spans are held


@dataclass
class Tally:
    """Outcome of a stretch of checked calls."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # the latencies in reference seconds
    shots: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.scaled += other.scaled
        self.shots += other.shots
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: max(0, 5 - len(self.problems))]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


def run_call(call: workloads.Call) -> tuple[float, object, dict | None]:
    """One CLI call; returns (latency, exit code or error text, parsed report)."""
    out = WORK / "report.json"
    out.unlink(missing_ok=True)
    argv = call.argv(WORK, out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc = bladesim.cli.main(argv)
        except SystemExit as err:
            rc = err.code
        except Exception as err:  # a raising call is a failed call, not a crashed benchmark
            rc = f"{type(err).__name__}: {err}"
        latency = perf_counter() - t0
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return latency, rc, report


def run_blocks(wl: workloads.Workload, blocks, reference, calibrate: bool = False) -> Tally:
    """Run and check every call of the given blocks once.

    With `calibrate`, the reference loop runs before the first call and after
    every call, and each latency is also kept in reference seconds.
    """
    tally = Tally()
    loops = [refclock.measure()] if calibrate else []
    for block in blocks:
        failed = 0
        counts = []
        for call in block.calls:
            latency, rc, report = run_call(call)
            if calibrate:
                loops.append(refclock.measure())
                tally.scaled.append(refclock.scale(latency, loops[-2], loops[-1]))
            problems = workloads.check_report(call, block, wl.circuits[call.circuit], rc, report, reference)
            tally.latencies.append(latency)
            tally.shots += call.shots
            tally.attempted += 1
            if problems:
                failed += 1
                tally.problems.append(f"{call.key}: {problems[0]}")
            else:
                counts.append(report.get("counts"))
        if not failed:
            bad = workloads.check_distribution(block, counts)
            if bad:
                failed = len(block.calls)
                tally.problems.append(f"{block.calls[0].key}..: {bad}")
        tally.failed += failed
    return tally


def clear_program_caches() -> None:
    """Empty every functools cache in bladesim, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "bladesim" or name.startswith("bladesim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def set_up(name: str, seed: int, reference, scale: str):
    """Build and write the inputs, then make one warm-up call per command kind.

    Repeated from cold caches; returns the median time of one set-up in
    reference seconds and in wall seconds, the workload, its blocks and the
    warm-up tally.
    """
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        clear_program_caches()
        before = refclock.measure()
        t0 = perf_counter()
        wl = workloads.build(name, ROOT, scale)
        blocks = wl.choose(seed)
        wl.write_inputs(WORK, blocks)
        warm = {}
        for block in blocks:
            warm.setdefault((block.calls[0].command, block.calls[0].backend), block)
        warm_blocks = [workloads.Block(b.calls[:1], b.record_check) for b in warm.values()]
        tally = run_blocks(wl, warm_blocks, reference)
        times.append(perf_counter() - t0)
        scaled.append(refclock.scale(times[-1], before, refclock.measure()))
    return statistics.median(scaled), statistics.median(times), wl, blocks, tally


def timed_passes(wl, blocks, reference, seconds: float, min_passes: int, calibrate: bool = False):
    """Repeat the pass while another one fits in `seconds`.

    Returns per-pass call time in wall seconds, and in reference seconds when
    `calibrate` is set, with the tally of every call.
    """
    walls: list[float] = []
    scaled: list[float] = []
    tally = Tally()
    t0 = perf_counter()
    while len(walls) < min_passes or (perf_counter() - t0) * (1 + 1 / len(walls)) <= seconds:
        one = run_blocks(wl, blocks, reference, calibrate)
        walls.append(sum(one.latencies))
        scaled.append(sum(one.scaled))
        tally.add(one)
    return walls, scaled, tally


def timings(setup_s: float, walls: list[float], shots: int, latencies: list[float]) -> dict[str, tuple[float, str]]:
    """The timing metrics, from per-pass and per-call times in one unit of seconds."""
    lat = sorted(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "shots_per_s": (shots / sum(lat), "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
    }


def traced(wl, blocks, reference, seconds: float, name: str):
    """Untraced passes for a third of the time, then traced passes.

    Self times are in wall seconds; the tracing overhead, a difference of two
    pass times taken apart in time, is in reference seconds.
    """
    plain, plain_scaled, tally = timed_passes(wl, blocks, reference, seconds / 3, 1, calibrate=True)
    spent = sum(plain)
    walls: list[float] = []
    scaled: list[float] = []
    with tracing.Tracer() as tracer:
        t0 = perf_counter()
        while not walls or (
            perf_counter() - t0 + spent + walls[-1] <= seconds and len(tracer.start) < SPAN_LIMIT
        ):
            one = run_blocks(wl, blocks, reference, calibrate=True)
            walls.append(sum(one.latencies))
            scaled.append(sum(one.scaled))
            tally.add(one)
    metrics = tracer.layer_metrics(len(walls))
    metrics["trace.overhead_s"] = (statistics.median(scaled) - statistics.median(plain_scaled), "s")
    tracer.write(WORK / f"spans-{name}.json")
    return metrics, tally, len(walls)


def self_time_shares(metrics: dict) -> dict[str, float]:
    """Each layer's share of the traced self time, largest first, above 0.5%."""
    self_s = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values()) or 1.0
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    return {k: round(v / total, 4) for k, v in ranked if v / total >= 0.005}


def provenance(name: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or revision
    why = ""
    with contextlib.suppress(OSError, ValueError, KeyError):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        why = next((w["why"] for w in spec["workloads"] if w["name"] == name), "")
    return {
        "workload": name,
        "why": why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bladesim": getattr(bladesim, "__version__", "unknown"),
        "git_revision": revision,
        "source_sha256": source_digest(ROOT / "src" / "bladesim"),
    }


def source_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def main(name: str, seed: int, seconds: float, trace: bool, import_s: tuple[float, float], scale: str = "full") -> int:
    """One run; prints the result line and writes a record under work/.

    `import_s` is the time bladesim took to import, in reference seconds and
    in wall seconds.  The timings printed are in reference seconds (see
    refclock); the record also holds them in wall seconds.
    """
    reference = load_reference()
    setup_s, setup_wall_s, wl, blocks, tally = set_up(name, seed, reference, scale)
    wall_clock = None
    if trace:
        metrics, timed, passes = traced(wl, blocks, reference, seconds, name)
        tally.add(timed)
    else:
        walls, scaled, timed = timed_passes(wl, blocks, reference, seconds, MIN_PASSES, calibrate=True)
        passes = len(walls)
        tally.add(timed)
        metrics = timings(import_s[0] + setup_s, scaled, timed.shots, timed.scaled)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_frac"] = (1.0 - tally.failed / tally.attempted, "ratio")
        wall_clock = timings(import_s[1] + setup_wall_s, walls, timed.shots, timed.latencies)
    record = {
        "provenance": provenance(name, seed),
        "trace": trace,
        "passes": passes,
        "calls_per_pass": sum(len(b.calls) for b in blocks),
        "timed_calls": len(timed.latencies),
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if wall_clock is not None:
        record["wall_clock"] = {k: {"value": v, "unit": u} for k, (v, u) in wall_clock.items()}
    if trace:
        record["self_time_share"] = self_time_shares(metrics)
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = ("provenance", "passes", "timed_calls", "problems", "self_time_share", "wall_clock")
    print(json.dumps({k: record[k] for k in summary if k in record}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0
