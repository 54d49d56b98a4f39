#!/usr/bin/env python3
"""Record the seed-0 output of every benchmark job into expected/.

Run from the repository root, only when a change is meant to alter outputs:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from run import EXPECTED, WORKLOADS, Run, process_runner, write_inputs


def main() -> int:
    run = Run(Path.cwd(), seed=0)
    EXPECTED.mkdir(exist_ok=True)
    for workload, jobs in WORKLOADS.items():
        runner = process_runner(run, write_inputs(jobs, run), time.perf_counter() + 600)
        for job in jobs:
            code, out, err, wall, _ = runner(job)
            if code != 0:
                print(f"{workload}/{job.name}: exit code {code}\n{err}", file=sys.stderr)
                return 1
            (EXPECTED / f"{job.name}.out").write_text(out, encoding="utf-8")
            print(f"{workload}/{job.name}: {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
