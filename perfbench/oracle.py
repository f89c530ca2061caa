"""Correctness oracle behind ``error_rate``.

A *unit* is one result the oracle can judge on its own; a workload
sample attempts a fixed number of them and fails those whose output
differs from the reference (or all of them, when the sample raised).

References, per world seed:

* the 18 battery results -- for the default seed the committed
  ``results/<id>.txt`` files themselves, for other seeds the digests in
  ``refs.json`` recorded by ``record_refs.py`` from a serial run;
* FEATURES.json and BEHAVIORAL.json from a *serial* run with the log
  store armed (the fork workload must reproduce them byte for byte);
* the 12 ``<figure>@<stratum>`` results of the strata battery;
* figure2 with ``require_explicit=False`` from a cold, non-incremental
  run (the incremental re-run must reproduce it from its memo).

For a seed ``refs.json`` does not cover, :func:`learn` turns the run's
first sample (and, for ``rerun-edit``, its priming battery) into the
reference, so later samples are checked for determinism only.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from workloads import STRATA, digest

REFS_FILE = Path(__file__).with_name("refs.json")
DEFAULT_SEED = 42

#: Result ids of the registry battery, in report order.
BATTERY_IDS = (
    "table1", "figure2", "figure3", "figure4", "table3", "table2", "sec62",
    "sec63", "sec22", "survey", "appb2", "sec81", "tables9_12",
    "survey_crosstabs", "change_taxonomy", "ext_adoption_by_category",
    "behavioral", "selective",
)
#: Registry keys in the same order (dispositions are keyed by registry
#: key, results by result id).
BATTERY_KEYS = (
    "table1", "figure2", "figure3", "figure4", "table3", "table2", "sec62",
    "sec63", "sec22", "survey", "appb2", "sec81", "tables9_12", "crosstabs",
    "taxonomy", "category", "behavioral", "selective",
)
STRATA_IDS = tuple(
    f"{key}@{stratum}"
    for stratum in STRATA
    for key in ("figure2", "figure3", "figure4", "table3")
)
ARTIFACTS = ("FEATURES.json", "BEHAVIORAL.json")
#: The experiment the ``rerun-edit`` workload edits and re-runs.
EDITED = "figure2"

UNITS = {
    "battery-serial": len(BATTERY_IDS),
    "battery-fork-armed": len(BATTERY_IDS) + len(ARTIFACTS) + 1,
    "strata-cold": len(STRATA_IDS),
    # 17 hits (disposition and text), the re-run disposition, its text.
    "rerun-edit": len(BATTERY_IDS) + 1,
}


def reference(root: Path, seed: int) -> Optional[Dict[str, object]]:
    """The recorded reference for *seed*, or None when none is recorded."""
    try:
        seeds = json.loads(REFS_FILE.read_text(encoding="utf-8"))["seeds"]
    except (OSError, ValueError, KeyError):
        seeds = {}
    entry = seeds.get(str(seed))
    if seed == DEFAULT_SEED:
        entry = dict(entry or {})
        entry["battery"] = {
            rid: digest((root / "results" / f"{rid}.txt").read_bytes())
            for rid in BATTERY_IDS
        }
    return entry


def learn(workload: str, outputs: Dict[str, object], ref: Dict[str, object]) -> None:
    """Fill what *ref* lacks for *workload* from one sample's outputs."""
    texts = outputs.get("texts", {})
    if workload in ("battery-serial", "battery-fork-armed"):
        ref.setdefault("battery", {rid: texts.get(rid) for rid in BATTERY_IDS})
    if workload == "battery-fork-armed":
        ref.setdefault("artifacts", dict(outputs.get("artifacts", {})))
    if workload == "strata-cold":
        ref.setdefault("strata", {rid: texts.get(rid) for rid in STRATA_IDS})
    if workload == "rerun-edit":
        ref.setdefault("figure2_edit", texts.get(EDITED))


def check(
    workload: str, outputs: Dict[str, object], ref: Dict[str, object]
) -> List[str]:
    """One line per failed unit of a sample's *outputs* against *ref*."""
    texts = outputs.get("texts", {})
    failures: List[str] = []

    def expect(unit: str, got: object, want: object) -> None:
        if want is None or got != want:
            failures.append(f"{unit}: got {got!r}, want {want!r}")

    if workload in ("battery-serial", "battery-fork-armed"):
        for rid in BATTERY_IDS:
            expect(rid, texts.get(rid), ref.get("battery", {}).get(rid))
    if workload == "battery-fork-armed":
        for name in ARTIFACTS:
            expect(name, outputs.get("artifacts", {}).get(name),
                   ref.get("artifacts", {}).get(name))
        store = outputs.get("logstore", {})
        if "error" in store or not store.get("records"):
            failures.append(f"logstore verify: {store}")
    if workload == "strata-cold":
        for rid in STRATA_IDS:
            expect(rid, texts.get(rid), ref.get("strata", {}).get(rid))
    if workload == "rerun-edit":
        dispositions = outputs.get("dispositions", {})
        for rid, key in zip(BATTERY_IDS, BATTERY_KEYS):
            if rid == EDITED:
                expect(f"{key} disposition", dispositions.get(key), "run:invalidated")
                expect(f"{rid} edited", texts.get(rid), ref.get("figure2_edit"))
            else:
                hit = (dispositions.get(key), texts.get(rid))
                expect(f"{key} hit", hit, ("hit", ref.get("battery", {}).get(rid)))
    return failures

