"""The benchmark's tracer patches bladesim callables by name; each must exist where it looks.

perfbench/tracing.py replaces `owner.__dict__[attr]` for every entry of its
PATCHES table, so renaming or deleting one of those callables (even one that
lost its last caller) breaks traced benchmark runs.  A traced pass of the
tiny oracle-xcheck pool must also reach every dense layer, so a rewiring that
routes calls past a patched name fails here.  The perfbench modules are only
imported here, never installed.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling `workloads`
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for owner, attr, _ in tracing.PATCHES:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


# every layer under the dense backends and validate that one oracle-xcheck
# pass reaches; statevector.measure has no caller left
DENSE_LAYERS = (
    "backends.validate",
    "backends.born_distribution",
    "statevector.apply_gate",
    "statevector.born_p1",
    "statevector.collapse",
    "ideal.apply",
    "ideal.to_statevector",
    "gates.gate_to_operator_pair",
    "dense.dense_gp",
    "tableau.check_invariants",
)


def test_traced_oracle_pass_reaches_every_dense_layer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports its siblings
    harness = importlib.import_module("harness")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(harness, "WORK", tmp_path)
    wl = workloads.build("oracle-xcheck", harness.ROOT, "tiny")
    blocks = [block for _, pool in wl.groups for block in pool]
    wl.write_inputs(tmp_path, blocks)
    with tracing.Tracer() as tracer:
        tally = harness.run_blocks(wl, blocks, harness.load_reference())
    assert tally.attempted > 0 and tally.failed == 0, tally.problems
    metrics = tracer.layer_metrics(1)
    missed = [layer for layer in DENSE_LAYERS if not metrics[f"{layer}.calls"][0]]
    assert not missed, missed
