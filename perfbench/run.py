#!/usr/bin/env python3
"""Benchmark of the setgraceful CLI on a seeded corpus.  Run from the repository root:

    python3 perfbench/run.py --workload decide_m4 --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's jobs as CLI subprocesses, pass after pass
for about ``--seconds``, checks every answer and reports the end-to-end
metrics.  ``--trace 1`` replays the same jobs in-process with spans around
each layer and reports the per-layer metrics; the spans are written under
``.perfbench-work/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when the run completed, even if some job failed its check; it is 2 when
the library source is not found under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("decide_m4", "find_m4", "enumerate_m3")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "setgraceful" / "cli.py").is_file():
        print(f"error: no src/setgraceful under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    # The library is imported from this checkout only, so it is put on the
    # path before the benchmark modules that import it.
    sys.path.insert(0, str(src))
    from bench import Bench

    bench = Bench(args.workload, args.seed, root)
    try:
        if args.trace:
            trace_path = root / ".perfbench-work" / f"trace-{args.workload}-seed{args.seed}.json.gz"
            metrics = bench.replay(args.seconds, trace_path)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        bench.cleanup()
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
