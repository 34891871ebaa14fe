"""Every tiny-scale benchmark call still reproduces its committed digest.

perfbench/reference.json pins the report of every call in every workload
pool, and a benchmark run counts a call whose report drifts as failed.  This
runs each tiny-scale block of the four workloads once through the harness's
own checks, so report drift fails tier-1 rather than a benchmark run.
perfbench/harness.py is only imported, never changed; its work directory is
pointed at a temporary one.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tiny_benchmark_calls_match_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports its siblings
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(harness, "WORK", tmp_path)
    reference = harness.load_reference()
    for name in harness.WORKLOADS:
        wl = workloads.build(name, harness.ROOT, "tiny")
        blocks = [block for _, pool in wl.groups for block in pool]
        wl.write_inputs(tmp_path, blocks)
        tally = harness.run_blocks(wl, blocks, reference)
        assert tally.attempted > 0 and tally.failed == 0, (name, tally.problems)
