"""One benchmark sample, in the fresh interpreter ``run.py`` starts.

Usage (``run.py`` builds this command line)::

    python3 perfbench/sample.py --workload NAME --seed N --workdir DIR \
        --started T --out FILE [--trace] [--primed DIR] [--spans FILE]

Sets the workload up in *DIR* (its working directory), times the one
call, and writes a JSON object to *FILE*: the end-to-end figures
(``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``, ``disk_mb``),
the outputs the oracle checks and, with ``--trace``, the per-layer
metrics.  ``--started`` is the parent's ``time.monotonic()`` just
before it started this interpreter, so ``setup_s`` covers interpreter
start-up, imports and set-up.  ``--prime`` instead runs the cold
battery that fills ``rerun-edit``'s incremental store in *DIR*.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest
    # waited-for child.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--primed", type=Path)
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace().install()
    if args.prime:
        call = lambda: workloads.prime(args.seed, args.workdir)  # noqa: E731
    else:
        call = workloads.prepare(args.workload, args.seed, args.workdir, args.primed)
    setup_s = time.monotonic() - args.started
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    report = call()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mb = _peak_rss_mb()

    outputs = workloads.collect(args.workload, report, args.workdir)
    sample = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "disk_mb": workloads.tree_bytes(args.workdir) / 1e6,
        "outputs": outputs,
    }
    if trace is not None:
        sample["layers"] = trace.metrics(report, args.workdir)
        if args.spans is not None:
            trace.recorder.write(args.spans)
    args.out.write_text(json.dumps(sample), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
