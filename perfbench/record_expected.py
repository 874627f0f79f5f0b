"""Record the paper-pipeline cells' OOM status and simulated throughput.

Usage (from the root of a checkout)::

    python3 perfbench/record_expected.py 0 31

runs one paper-pipeline pass for each seed in the inclusive range and
writes ``perfbench/expected_pipeline.json``, which the workload's output
check compares against. Re-record only when a change is meant to move
the simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    from clock import Clock
    from workloads import EXPECTED_PIPELINE, PaperPipeline

    first, last = int(argv[0]), int(argv[1])
    workload = PaperPipeline()
    oom, seeds = None, {}
    for seed in range(first, last + 1):
        results, _, failed = workload.run(workload.setup(seed), Clock())
        if failed:
            raise SystemExit(f"seed {seed}: {failed} cell(s) raised")
        pattern = [bool(r.oom) for r in results]
        if oom is not None and pattern != oom:
            raise SystemExit(f"seed {seed}: OOM pattern {pattern} differs from {oom}")
        oom = pattern
        seeds[str(seed)] = [float(r.throughput) for r in results]
        print(f"seed {seed}: {seeds[str(seed)]}", flush=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items()]
    EXPECTED_PIPELINE.write_text(
        f'{{"cells": {json.dumps([c[0] for c in workload.CELLS])},\n'
        f'"oom": {json.dumps(oom)},\n'
        '"seeds": {\n' + ",\n".join(lines) + "\n}}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
