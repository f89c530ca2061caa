"""The benchmark's workloads: one timed call each, and its outputs.

Every workload builds its world from ``PopulationConfig(seed=seed)``
into a fresh :class:`~repro.web.worldstore.WorldStore` and fresh
directories under the sample's working directory, and names its
execution mode explicitly (never ``"auto"``).  :func:`prepare` does
the set-up and returns the timed call; :func:`collect` turns the
call's report and files into the outputs the oracle checks.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Callable, Dict, Optional

#: The workloads ``BENCHMARK.json`` lists, the ones every run is gated on.
BENCHMARKED = ("battery-serial", "battery-fork-armed", "strata-cold")
#: Every workload ``run.py`` and ``report.py`` accept.  ``rerun-edit``
#: primes its store with a whole cold battery on every run; listing it
#: too would cut every gated run from 38 to 28 seconds to stay within
#: the benchmark's time limit, so it is run by name.
WORKLOADS = BENCHMARKED + ("rerun-edit",)

#: Mode and worker count each workload names, recorded with every result.
EXECUTION = {
    "battery-serial": ("serial", 1),
    "battery-fork-armed": ("process", 2),
    "strata-cold": ("serial", 1),
    "rerun-edit": ("serial", 1),
}

STRATA = ("top-1k", "top-10k", "top-100k")

#: The edit a user makes on their second ``repro reproduce --set ...``.
FIGURE2_EDIT = {"figure2": {"require_explicit": False}}

#: Directory names under a sample's working directory.
TELEMETRY_DIR = "telemetry"
LOG_DIR = "logs"
ARCHIVE_DIR = "archives"
STORE_DIR = "store"
RESULTS_DIR = "results"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_digest(text: str) -> str:
    """Digest of a result text as ``results/<id>.txt`` stores it."""
    return digest((text + "\n").encode("utf-8"))


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under *path* (0 when absent)."""
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def prime(seed: int, workdir: Path):
    """Cold serial battery that fills an incremental store under *workdir*."""
    from repro.report.orchestrator import run_all
    from repro.web.population import PopulationConfig
    from repro.web.worldstore import WorldStore

    return run_all(
        PopulationConfig(seed=seed), workers=1, mode="serial", store=WorldStore(),
        incremental=str(workdir / STORE_DIR),
    )


def prepare(
    workload: str, seed: int, workdir: Path, primed: Optional[Path] = None
) -> Callable[[], object]:
    """Set up one sample of *workload*; return its timed call."""
    from repro.report.orchestrator import run_all, run_strata
    from repro.web.population import PopulationConfig
    from repro.web.worldstore import WorldStore

    config = PopulationConfig(seed=seed)
    store = WorldStore()
    if workload == "battery-serial":
        return lambda: run_all(config, workers=1, mode="serial", store=store)
    if workload == "battery-fork-armed":
        return lambda: run_all(
            config, workers=2, mode="process", collect_workers=2, store=store,
            telemetry_dir=str(workdir / TELEMETRY_DIR),
            log_dir=str(workdir / LOG_DIR),
        )
    if workload == "strata-cold":
        return lambda: run_strata(
            list(STRATA), config=config, workers=1, mode="serial",
            archive_dir=str(workdir / ARCHIVE_DIR), store=store,
        )
    if workload == "rerun-edit":
        if primed is None:
            raise ValueError("rerun-edit needs a primed incremental store")
        target = workdir / STORE_DIR
        shutil.copytree(primed, target)
        return lambda: run_all(
            config, workers=1, mode="serial", store=store,
            incremental=str(target), param_overrides=FIGURE2_EDIT,
        )
    raise KeyError(f"unknown workload: {workload!r}")


def collect(workload: str, report, workdir: Path) -> Dict[str, object]:
    """The outputs the oracle checks, after writing each result text.

    The result texts land in ``results/<id>.txt`` under *workdir*, as
    ``repro reproduce`` writes them, so every workload leaves bytes on
    disk.
    """
    results = workdir / RESULTS_DIR
    results.mkdir(exist_ok=True)
    texts: Dict[str, str] = {}
    for result in report.results:
        texts[result.experiment_id] = text_digest(result.text)
        (results / f"{result.experiment_id}.txt").write_text(result.text + "\n")
    outputs: Dict[str, object] = {"texts": texts}
    if workload == "battery-fork-armed":
        outputs["artifacts"] = {
            name: digest((workdir / TELEMETRY_DIR / name).read_bytes())
            for name in ("FEATURES.json", "BEHAVIORAL.json")
        }
        from repro.net.logstore import LogStore, LogStoreError

        try:
            with LogStore.open(workdir / LOG_DIR) as store:
                outputs["logstore"] = store.verify()
        except LogStoreError as exc:
            outputs["logstore"] = {"error": str(exc)}
    if workload == "rerun-edit":
        outputs["dispositions"] = dict(report.incremental)
    return outputs
