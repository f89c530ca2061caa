"""Benchmark entry point: time one workload of ``repro`` from outside.

Run from the repository root::

    python3 perfbench/run.py --workload battery-serial --seed 42 \
        --seconds 38 --trace 0

Each sample runs in a fresh interpreter (``sample.py``) with its own
working directory under ``.perfbench-tmp/``, so no process-wide cache,
``.repro-cache`` or ``.repro-archives`` carries over between samples.
Samples repeat for about ``--seconds`` (at least :data:`MIN_SAMPLES`).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics and ``trace_overhead``.  Every sample's outputs go
through the oracle.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed``
(result units, see ``oracle.py``) and ``metrics`` (each metric's median
over the samples).  The lines before it give the provenance and, per
metric, n, median and quartiles.  Exit status 1 when any unit failed,
2 when the directory holds no ``repro`` source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics and units, measured with tracing off.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
)
MIN_SAMPLES = 3
#: No sample starts after this many seconds into a run, and none may
#: run past :data:`RUN_LIMIT`, so a run ends within 180 seconds.
START_LIMIT = 100.0
RUN_LIMIT = 170.0
TMP_DIR = ".perfbench-tmp"


def source_digest(root: Path) -> str:
    """SHA-256 over the ``repro`` sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """One workload run: its samples, oracle tallies and provenance."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, spans_dir: Optional[Path] = None):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace, self.spans_dir = seconds, trace, spans_dir
        self.samples: List[dict] = []
        self.traced: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._started = time.monotonic()
        self._index = 0

    def _spawn(self, tmp: Path, traced: bool = False, prime: bool = False,
               primed: Optional[Path] = None) -> dict:
        """Run ``sample.py`` once in a fresh interpreter and read its result."""
        self._index += 1
        name = "prime" if prime else f"sample-{self._index}"
        workdir, out, log = tmp / name, tmp / f"{name}.json", tmp / f"{name}.log"
        workdir.mkdir()
        command = [
            sys.executable, str(HERE / "sample.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(workdir), "--out", str(out),
        ]
        if traced:
            command.append("--trace")
            if self.spans_dir is not None:
                spans = self.spans_dir / f"{self.workload}-{self._index}.spans.tsv"
                command += ["--spans", str(spans)]
        if prime:
            command.append("--prime")
        if primed is not None:
            command += ["--primed", str(primed)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        timeout = max(1.0, RUN_LIMIT - (time.monotonic() - self._started))
        with open(log, "w", encoding="utf-8") as handle:
            command += ["--started", repr(time.monotonic())]
            process = subprocess.Popen(
                command, cwd=workdir, env=env, stdout=handle,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                code = process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Reap anything the sample left in its session.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if code != 0 or not out.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            return {"error": f"{name} exited {code}: {tail}"}
        sample = json.loads(out.read_text(encoding="utf-8"))
        if not prime:
            shutil.rmtree(workdir)
        return sample

    def _judge(self, sample: dict, ref: Dict[str, object], learn: bool) -> bool:
        """Count the sample's units against the oracle; False on error."""
        units = oracle.UNITS[self.workload]
        self.attempted += units
        if "error" in sample:
            self.failed += units
            self.failures.append(sample["error"])
            return False
        if learn:
            oracle.learn(self.workload, sample["outputs"], ref)
        failures = oracle.check(self.workload, sample["outputs"], ref)
        self.failed += len(failures)
        self.failures.extend(failures)
        return True

    def execute(self) -> "Run":
        (self.root / TMP_DIR).mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=self.root / TMP_DIR))
        try:
            self._execute(tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return self

    def _execute(self, tmp: Path) -> None:
        recorded = oracle.reference(self.root, self.seed)
        learn = recorded is None
        ref: Dict[str, object] = dict(recorded or {})
        primed = None
        if self.workload == "rerun-edit":
            prime = self._spawn(tmp, prime=True)
            if "error" in prime:
                self._judge(prime, ref, False)
                return
            # The hits must reproduce the priming battery's texts.
            ref.setdefault("battery", prime["outputs"]["texts"])
            primed = tmp / "prime" / workloads.STORE_DIR
        measured = time.monotonic()
        durations: List[float] = []
        while True:
            traced = self.trace and len(self.traced) < len(self.samples)
            begun = time.monotonic()
            sample = self._spawn(tmp, traced=traced, primed=primed)
            durations.append(time.monotonic() - begun)
            if not self._judge(sample, ref, learn):
                return
            learn = False
            (self.traced if traced else self.samples).append(sample)
            now = time.monotonic()
            if self.trace:
                enough = bool(self.samples and self.traced)
            else:
                enough = len(self.samples) >= MIN_SAMPLES
            if now - self._started > START_LIMIT:
                return
            # Start another sample only if it is expected to end less
            # than half a sample past --seconds.
            if enough and now - measured + statistics.median(durations) / 2 > self.seconds:
                return

    def metrics(self) -> Dict[str, List[float]]:
        """Every reported metric's per-sample values."""
        if not self.trace:
            return {name: [s[name] for s in self.samples] for name, _ in END_TO_END}
        values = {
            name: [s["layers"][name] for s in self.traced]
            for name, _ in layers.METRICS if name != "trace_overhead"
        }
        values["trace_overhead"] = []
        if self.samples:
            untraced = statistics.median(s["wall_s"] for s in self.samples)
            values["trace_overhead"] = [
                s["wall_s"] / untraced - 1.0 for s in self.traced
            ]
        return values

    def units(self) -> Dict[str, str]:
        return dict(layers.METRICS if self.trace else END_TO_END)

    def provenance(self) -> Dict[str, object]:
        mode, workers = workloads.EXECUTION[self.workload]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "commit": git_commit(self.root),
            "source_digest": source_digest(self.root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "mode": mode,
            "workers": workers,
            "trace": int(self.trace),
            "samples": len(self.samples),
            "traced_samples": len(self.traced),
        }


def describe(values: List[float]) -> Dict[str, float]:
    """n, median and quartiles of one metric's samples."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def table_lines(run: Run) -> List[str]:
    units = run.units()
    lines = []
    for name, values in run.metrics().items():
        if values:
            d = describe(values)
            lines.append(
                f"{run.workload:<19} {name:<34} {units[name]:<6} n={d['n']:<3} "
                f"median={d['median']:<12.6g} q1={d['q1']:<12.6g} q3={d['q3']:.6g}"
            )
    rate = run.failed / run.attempted if run.attempted else 1.0
    lines.append(
        f"{run.workload:<19} {'error_rate':<34} {'ratio':<6} "
        f"n={run.attempted:<3} value={rate:.6g}"
    )
    return lines


def result_line(run: Run) -> Dict[str, object]:
    units = run.units()
    return {
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in run.metrics().items() if values
        },
    }


def print_run(run: Run) -> None:
    """Provenance, one line per metric, and failures (on stderr)."""
    print(json.dumps({"provenance": run.provenance()}))
    for line in table_lines(run):
        print(line, flush=True)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)


def check_checkout(root: Path) -> Optional[str]:
    """Why *root* cannot be benchmarked, or None when it can."""
    for needed in ("src/repro/__init__.py", "results/figure2.txt"):
        if not (root / needed).is_file():
            return f"not a repro checkout (no {needed}) in {root}"
    return None


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that kill the running
    # sample's session and remove the run's temporary directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED,
                        help="world seed, passed as PopulationConfig(seed=...)")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print_run(run)
    result = result_line(run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
