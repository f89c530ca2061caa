"""Record the oracle's reference digests into ``refs.json``.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/record_refs.py --seeds 0-63

Each seed is recorded in its own fresh interpreter, by paths the
benchmark's workloads do not take: the battery serially with the log
store armed (the fork workload must match its texts, FEATURES.json and
BEHAVIORAL.json), the strata battery, and figure2's edit as a cold,
non-incremental run (the incremental re-run must match it).  Seeds
already in ``refs.json`` are kept unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import (  # noqa: E402
    FIGURE2_EDIT, STRATA, digest, text_digest,
)


def record_one(seed: int) -> dict:
    """Reference digests for one world seed (run in a fresh interpreter)."""
    from repro.report.orchestrator import run_all, run_strata
    from repro.web.population import PopulationConfig
    from repro.web.worldstore import WorldStore

    config = PopulationConfig(seed=seed)
    store = WorldStore()
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        battery = run_all(config, workers=1, mode="serial", store=store,
                          telemetry_dir=str(tmp / "telemetry"),
                          log_dir=str(tmp / "logs"))
        strata = run_strata(list(STRATA), config=config, workers=1,
                            mode="serial", archive_dir=str(tmp / "archives"),
                            store=store)
        edit = run_all(config, workers=1, mode="serial", store=store,
                       experiments=[oracle.EDITED], param_overrides=FIGURE2_EDIT)
        artifacts = {
            name: digest((tmp / "telemetry" / name).read_bytes())
            for name in oracle.ARTIFACTS
        }
    return {
        "battery": {r.experiment_id: text_digest(r.text) for r in battery.results},
        "artifacts": artifacts,
        "strata": {r.experiment_id: text_digest(r.text) for r in strata.results},
        "figure2_edit": text_digest(edit.results[0].text),
    }


def parse_seeds(items) -> list:
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", default=["42"],
                        help="seeds or inclusive ranges such as 0-30")
    parser.add_argument("--force", action="store_true",
                        help="re-record seeds already in refs.json")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(record_one(args.one)))
        return 0

    root = Path.cwd()
    try:
        refs = json.loads(oracle.REFS_FILE.read_text(encoding="utf-8"))
    except OSError:
        refs = {"schema_version": 1, "seeds": {}}
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for seed in parse_seeds(args.seeds):
        if str(seed) in refs["seeds"] and not args.force:
            continue
        out = subprocess.run(
            [sys.executable, str(HERE / "record_refs.py"), "--one", str(seed)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        entry = json.loads(out.splitlines()[-1])
        if seed == oracle.DEFAULT_SEED:
            committed = oracle.reference(root, seed)["battery"]
            if entry["battery"] != committed:
                print(f"seed {seed}: battery differs from results/*.txt; "
                      "not recorded", file=sys.stderr)
                return 1
        refs["seeds"][str(seed)] = entry
        print(f"recorded seed {seed}", file=sys.stderr)
        oracle.REFS_FILE.write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
