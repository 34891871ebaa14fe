"""Regenerate reference.json: the digest of every call in every workload pool.

    python3 perfbench/make_reference.py

Each call runs twice; the file is written only if both runs agree and every
output check passes, at both the full and the self-test scale.  Rerun it
only when a change to the program is meant to change its reports.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_program()
    import harness
    import workloads

    digests: dict[str, str] = {}
    failed = 0
    for scale in ("full", "tiny"):
        for name in harness.WORKLOADS:
            wl = workloads.build(name, run.ROOT, scale)
            blocks = [block for _, pool in wl.groups for block in pool]
            wl.write_inputs(harness.WORK, blocks)
            for block in blocks:
                for call in block.calls:
                    _, rc, report = harness.run_call(call)
                    if call.command == "run" and rc == 0 and report is not None:
                        digests[call.key] = workloads.digest(report)
            tally = harness.run_blocks(wl, blocks, digests)
            failed += tally.failed
            print(f"{scale} {name}: {tally.attempted} calls, {tally.failed} failed", file=sys.stderr)
            for problem in tally.problems:
                print(f"  {problem}", file=sys.stderr)
    if failed:
        print("reference not written", file=sys.stderr)
        return 1
    text = json.dumps({"digests": dict(sorted(digests.items()))}, indent=0) + "\n"
    harness.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {len(digests)} digests to {harness.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
