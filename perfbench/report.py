"""Print every benchmark metric of every workload, in one command.

Run from the repository root::

    python3 perfbench/report.py [--seed 42] [--seconds 38] \
        [--workloads battery-serial strata-cold] [--spans-dir DIR]

For each workload this makes one untraced run (the end-to-end metrics)
and one traced run (the per-layer metrics and ``trace_overhead``), and
prints each metric by name with its unit, n, median and quartiles,
then ``error_rate``.  ``--spans-dir`` keeps the traced samples' spans
there, one ``span_id parent_id name start end`` line per call.  Exits
1 when any workload's ``error_rate`` is above 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import Run, check_checkout, print_run  # noqa: E402


def exit_code(runs: List[Run]) -> int:
    """1 when any run failed a unit (error_rate > 0), else 0."""
    return 1 if any(run.failed or not run.attempted for run in runs) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--spans-dir", type=Path)
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.spans_dir is not None:
        args.spans_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in args.workloads:
        for trace in (False, True):
            run = Run(root, workload, args.seed, args.seconds, trace,
                      spans_dir=args.spans_dir.resolve() if args.spans_dir else None)
            runs.append(run.execute())
            print_run(run)
    return exit_code(runs)


if __name__ == "__main__":
    sys.exit(main())
