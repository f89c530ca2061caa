"""Persistent, content-addressed incremental store for the report plane.

The reproduction pipeline is referentially transparent end to end: every
experiment is a pure function of its :class:`PopulationConfig` (via
``config_digest``) and declared parameters, and every body-level
classification is a pure function of the robots.txt bytes (via their
SHA-256 content address) and the query parameters.  This module turns
that purity into cross-process reuse: results are memoized on disk
under those digests, so a warm ``repro reproduce --incremental`` run
re-derives only what actually changed -- O(changed), not O(all).

Three layers live in one store directory (default ``.repro-cache``):

* ``meta.json`` -- a schema fingerprint.  Any format change to the
  store, the classification tuple, or the experiment result shape
  changes the fingerprint, and a store written by an older layout
  self-invalidates wholesale on load (stale caches can never leak
  stale bytes into results).
* ``bodies.json`` -- per-body classification, full-disallow sweep,
  explicit-allow, and allow-sweep verdicts keyed by the robots body's
  SHA-256 (the same content address
  :class:`~repro.core.compiled.CompiledPolicyCache` uses) plus a
  digest of the query parameters.
* ``experiments.json`` -- finished
  :class:`~repro.report.experiments.ExperimentResult` payloads keyed by
  experiment key, each guarded by the input digest it was computed
  under (config digest + world kind + declared parameters).

Chaos interaction: the store must never observe a faulted world.
:func:`repro.report.orchestrator.run_all` refuses to read *or* write
the store while a :class:`~repro.net.chaos.FaultPlan` is armed, and
delta snapshot collection independently falls back to full crawls (see
:func:`~repro.measure.longitudinal.collect_snapshots`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..columnar import schema_fingerprint
from ..core.classify import Classification
from ..web.archive import BodyFacts

__all__ = [
    "IncrementalStore",
    "SCHEMA_FINGERPRINT",
    "params_digest",
    "experiment_input_key",
]

#: Bump any entry when its on-disk shape changes; the fingerprint shift
#: then invalidates every existing store automatically.
_SCHEMA = {
    "store": 1,
    "classification": ["level", "explicit", "explicit_allow"],
    "flags": ["full_any", "explicit_allow", "allow_any"],
    "experiment": ["experiment_id", "title", "text", "metrics"],
}

SCHEMA_FINGERPRINT = schema_fingerprint(_SCHEMA)


def params_digest(payload: object) -> str:
    """Digest of a JSON-able parameter payload (sorted-key canonical)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def experiment_input_key(
    spec_key: str,
    result_id: str,
    world: str,
    world_digest: str,
    params: Tuple[Tuple[str, object], ...],
) -> str:
    """The invalidation key for one experiment run.

    Covers everything that can change an experiment's output: which
    registry entry it is, which world kind it consumes, the world's
    ``config_digest`` (or ``"-"`` for world-free experiments), and the
    declared parameters it runs with.  Equal key = equal result.
    """
    return params_digest(
        {
            "spec": spec_key,
            "result_id": result_id,
            "world": world,
            "world_digest": world_digest,
            "params": {name: value for name, value in params},
        }
    )


class IncrementalStore(BodyFacts):
    """On-disk memo for body verdicts and finished experiment results.

    Thread-safe; all mutation happens in memory and persists on
    :meth:`flush` (atomic per file).  A store whose on-disk schema
    fingerprint does not match :data:`SCHEMA_FINGERPRINT` loads as
    empty and is rewritten in the current format on the next flush.
    """

    def __init__(self, root: Union[str, Path]):
        super().__init__()
        self.root = Path(root)
        self._experiments: Dict[str, Dict[str, object]] = {}
        #: True when an on-disk store existed but carried a stale
        #: schema fingerprint (its contents were discarded).
        self.schema_invalidated = False
        self._load()

    # -- persistence ----------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def bodies_path(self) -> Path:
        return self.root / "bodies.json"

    @property
    def experiments_path(self) -> Path:
        return self.root / "experiments.json"

    def _load(self) -> None:
        try:
            meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if meta.get("schema_fingerprint") != SCHEMA_FINGERPRINT:
            self.schema_invalidated = True
            return
        try:
            bodies = json.loads(self.bodies_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            bodies = {}
        try:
            experiments = json.loads(
                self.experiments_path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            experiments = {}
        self._load_facts(bodies)
        self._experiments = experiments

    def flush(self) -> None:
        """Persist every layer (no-op when nothing changed)."""
        with self._lock:
            if not self._dirty:
                return
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_json(self.meta_path, {"schema_fingerprint": SCHEMA_FINGERPRINT})
            self._write_json(self.bodies_path, self._facts_payload())
            self._write_json(self.experiments_path, self._experiments)
            self._dirty = False

    # -- body-level verdicts ---------------------------------------------------
    # perfbench/layers.py wraps these two by name on this class.

    def get_classification(
        self, body_digest: str, user_agent: str, require_explicit: bool
    ) -> Optional[Classification]:
        return super().get_classification(body_digest, user_agent, require_explicit)

    def get_flag(self, kind: str, body_digest: str, key: str) -> Optional[bool]:
        return super().get_flag(kind, body_digest, key)

    # -- experiment results ----------------------------------------------------

    def lookup_experiment(self, key: str, input_key: str):
        """``(disposition, result)`` for one experiment.

        Dispositions: ``"hit"`` (stored under the same inputs; result
        attached), ``"invalidated"`` (stored, but inputs changed), or
        ``"miss"`` (never stored).
        """
        entry = self._experiments.get(key)
        if entry is None:
            return "miss", None
        if entry.get("input_key") != input_key:
            return "invalidated", None
        payload = entry["result"]
        from ..report.experiments import ExperimentResult

        return "hit", ExperimentResult(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            text=payload["text"],
            metrics=dict(payload["metrics"]),
        )

    def record_experiment(self, key: str, input_key: str, result) -> None:
        with self._lock:
            self._experiments[key] = {
                "input_key": input_key,
                "result": {
                    "experiment_id": result.experiment_id,
                    "title": result.title,
                    "text": result.text,
                    "metrics": dict(result.metrics),
                },
            }
            self._dirty = True

    # -- introspection ---------------------------------------------------------

    def experiment_count(self) -> int:
        return len(self._experiments)
