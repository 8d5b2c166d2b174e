"""Record the pinned output digests that ``run.py`` checks on its seed.

    python3 perfbench/pin.py

Runs one untraced repetition of every workload at ``SEED`` and writes
each point's result digest, and the Fig 6 FSOI-over-mesh speedup
geomean, to ``pinned.json``.  Re-pin only when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import PINNED, run_rep, scratch_dir

SEED = 0


def main() -> int:
    pinned = {"seed": SEED, "workloads": {}}
    with scratch_dir() as work_dir:
        for workload in wl.WORKLOADS:
            result, error = run_rep(workload, SEED, "plain", work_dir, 600.0)
            if error is not None:
                print(error, file=sys.stderr)
                return 1
            failed = [p for p in result["points"] if p[2] is not None]
            if failed:
                print(f"{workload}: failed points {failed}", file=sys.stderr)
                return 1
            entry = {"digests": {label: d for label, d, _ in result["points"]}}
            if workload == wl.SWEEP:
                entry["fig6_geomean"] = result["fig6_geomean"]
            pinned["workloads"][workload] = entry
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
