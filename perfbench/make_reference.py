#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the reference the output checks use.

    python3 perfbench/make_reference.py

It runs a larger seeded sweep than any benchmark run (radii 2-4 at the
threshold-sweep p values) and records failure counts, not rates, so the
checks can form a combined sigma.  It also records row-space digests of
the radius-3 and radius-4 codes.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEED = 20261017
REFERENCE_TRIALS = {2: 20000, 3: 6000, 4: 2000}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from tenqec import harness, holographic
    from workloads import REFERENCE_PATH, SWEEP_PS, row_space_digests

    sweep, build = {}, {}
    for r, trials in REFERENCE_TRIALS.items():
        layout = holographic.build_layout(r)
        schedule = holographic.schedule_for(layout)
        points = harness.run_mc(layout, schedule, list(SWEEP_PS), trials,
                                seed=REFERENCE_SEED, workers=len(os.sched_getaffinity(0)))
        sweep[f"r{r}"] = {
            repr(pt.p): {"trials": pt.trials, "failures": pt.failures}
            for pt in points
        }
        if r in (3, 4):
            build[f"r{r}"] = row_space_digests(layout.code)
        print(f"r{r}: {sweep[f'r{r}']}", flush=True)
    REFERENCE_PATH.write_text(json.dumps({
        "seed": REFERENCE_SEED,
        "threshold_sweep": sweep,
        "code_build": build,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
