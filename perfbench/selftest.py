"""Self-test of the benchmark at tiny sizes; exits nonzero on any failure.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value, with no failed
call; and that corrupted reports are counted as failed calls rather than
passed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metrics(harness, spec) -> list[str]:
    errors = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in harness.WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = harness.main(name, 0, 0.2, trace, (0.0, 0.0), scale="tiny")
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            where = f"{name} trace={int(trace)}"
            if rc != 0 or set(result) != RESULT_KEYS:
                errors.append(f"{where}: exit {rc}, keys {sorted(result)}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                errors.append(f"{where}: missing {missing}, unlisted {extra}, wrong unit {wrong}")
            values = [v["value"] for v in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                errors.append(f"{where}: non-finite metric value")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {result['failed']} of {result['attempted']} calls failed")
    return errors


def _flip_record_bit(rc, report):
    report["records"][0][0] ^= 1
    return rc, report


def _reorder_records(rc, report):
    # same records in another order: counts and record checks still pass,
    # so only the digest can notice
    report["records"].reverse()
    return rc, report


def _edit_final(rc, report):
    report["final"] = {"stabilizers": ["+" + "I" * report["n"]] * report["n"]}
    return rc, report


def _all_zero_records(rc, report):
    report["records"] = [[0] * len(r) for r in report["records"]]
    report["counts"] = {"0" * report["creg"]: report["shots"]}
    return rc, report


def _validate_fails(rc, report):
    report["passed"] = False
    return rc, report


def _exit_nonzero(rc, report):
    return 1, report


# (corruption, workload, use the reference digests)
CORRUPTIONS = (
    (_flip_record_bit, "wide-gates", True),
    (_flip_record_bit, "wide-measure", False),
    (_reorder_records, "many-shots", True),
    (_edit_final, "wide-gates", True),
    (_all_zero_records, "many-shots", False),
    (_validate_fails, "oracle-xcheck", True),
    (_exit_nonzero, "many-shots", True),
)


def check_corruptions(harness, workloads) -> list[str]:
    errors = []
    reference = harness.load_reference()
    real = harness.run_call
    for corrupt, name, use_reference in CORRUPTIONS:
        wl = workloads.build(name, run.ROOT, "tiny")
        blocks = wl.choose(0)
        if corrupt is _validate_fails:
            blocks = [b for b in blocks if b.calls[0].command == "validate"]
        if corrupt is _all_zero_records:
            blocks = [b for b in blocks if b.calls[0].key.startswith("bell|")]
        wl.write_inputs(harness.WORK, blocks)

        def fake(call):
            latency, rc, report = real(call)
            return (latency, *corrupt(rc, copy.deepcopy(report)))

        harness.run_call = fake
        try:
            tally = harness.run_blocks(wl, blocks, reference if use_reference else None)
        finally:
            harness.run_call = real
        if tally.attempted == 0 or tally.failed != tally.attempted:
            errors.append(f"{corrupt.__name__} on {name}: {tally.failed} of {tally.attempted} calls failed")
    return errors


def main() -> int:
    run.load_program()
    import harness
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_metrics(harness, spec) + check_corruptions(harness, workloads)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
