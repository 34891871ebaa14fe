"""The benchmark's tracer patches bladesim callables by name; each must exist where it looks.

perfbench/tracing.py replaces `owner.__dict__[attr]` for every entry of its
PATCHES table, so renaming or deleting one of those callables (even one that
lost its last caller) breaks traced benchmark runs.  The module is only
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
