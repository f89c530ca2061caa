"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

The reproduction pipeline's credibility rests on measurement provenance:
knowing how many fetches each crawler made, how often the policy caches
answered from memory, and how request volume distributed over sites.
Before this module those numbers lived in ad-hoc dicts scattered across
layers; :class:`MetricsRegistry` gives them one thread-safe, mergeable,
dependency-free home.

Three instrument kinds, all keyed by ``(name, sorted labels)``:

* :class:`Counter` -- a monotonically increasing integer.  Counters are
  **deterministic**: for a fixed workload their totals are identical
  regardless of scheduling (serial / thread / fork), which
  ``tests/report/test_orchestrator.py`` enforces for the experiment
  battery.
* :class:`Gauge` -- a point-in-time float.  Gauges are *process-local
  observations* (cache occupancy, hit counts of shared caches) and are
  explicitly excluded from cross-mode identity guarantees.
* :class:`Histogram` -- fixed upper-bound buckets plus sum/count.
  Bucket counts add under merge, so histograms keep the determinism
  guarantee counters have.

Worker support: :meth:`MetricsRegistry.snapshot` produces a picklable
value tree, :func:`snapshot_delta` subtracts a "before" snapshot from an
"after" one, and :meth:`MetricsRegistry.merge` folds a snapshot (e.g.
one shipped back from a fork-pool worker) into the parent registry.

Overhead: every mutation checks a module-global enabled flag first, so
``set_metrics_enabled(False)`` reduces each instrument call to a bool
test (benchmarked in ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..columnar import atomic_write

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA_VERSION",
    "metrics_enabled",
    "metrics_disabled",
    "set_metrics_enabled",
    "shared_registry",
    "snapshot_delta",
    "render_key",
    "export_metrics",
]

#: Schema version stamped into exported METRICS.json payloads.
METRICS_SCHEMA_VERSION = 1

#: Default histogram upper bounds (a generic 1-2-5 ladder for counts);
#: the final implicit bucket is +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

_ENABLED = True

#: ``(name, (("label", "value"), ...))`` -- the canonical instrument key.
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metrics_enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _ENABLED


def set_metrics_enabled(enabled: bool) -> None:
    """Globally enable/disable metric recording (reads still work)."""
    global _ENABLED
    _ENABLED = bool(enabled)


class _MetricsDisabled:
    """Context manager: metrics (and series) off inside the block."""

    __slots__ = ("_was",)

    def __enter__(self) -> "_MetricsDisabled":
        global _ENABLED
        self._was = _ENABLED
        _ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> bool:
        set_metrics_enabled(self._was)
        return False


def metrics_disabled() -> _MetricsDisabled:
    """``with metrics_disabled(): ...`` -- silence recording, then restore.

    The flag is restored to whatever it was on entry, so nesting and
    use inside already-disabled regions are safe.
    """
    return _MetricsDisabled()


def _make_key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def render_key(key: InstrumentKey) -> str:
    """Render an instrument key as ``name{label=value,...}``."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing labeled counter.

    Handles are cheap to hold: hot call sites fetch one from the
    registry once and call :meth:`inc` directly, paying a bool check
    plus one lock per increment.
    """

    __slots__ = ("key", "_lock", "_value")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (no-op while metrics are disabled)."""
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def _merge(self, amount: int) -> None:
        with self._lock:
            self._value += amount

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int:
        """Current total."""
        return self._value


class Gauge:
    """A point-in-time float measurement (process-local by contract)."""

    __slots__ = ("key", "_lock", "_value")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value (no-op while metrics are disabled)."""
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def _merge(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        """Last recorded value."""
        return self._value


class Histogram:
    """A fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Bucket layout is fixed at
    creation, so histograms from different workers merge by elementwise
    addition.
    """

    __slots__ = ("key", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(self, key: InstrumentKey, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (no-op while metrics are disabled)."""
        if not _ENABLED:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def _merge(self, payload: Dict[str, object]) -> None:
        counts = payload["counts"]
        with self._lock:
            if tuple(payload["bounds"]) != self.bounds:
                raise ValueError(
                    f"histogram bucket mismatch for {render_key(self.key)}"
                )
            for index, amount in enumerate(counts):
                self._counts[index] += amount
            self._sum += payload["sum"]
            self._count += payload["count"]

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def counts(self) -> List[int]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def to_payload(self) -> Dict[str, object]:
        """A picklable/JSON-able value snapshot of this histogram."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """A thread-safe home for every instrument in a process.

    >>> registry = MetricsRegistry()
    >>> registry.inc("fetches", agent="GPTBot")
    >>> registry.counter_value("fetches", agent="GPTBot")
    1
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}

    # -- instrument access ----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter for ``(name, labels)``."""
        key = _make_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(key)
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge for ``(name, labels)``."""
        key = _make_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(key)
                self._gauges[key] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram for ``(name, labels)``.

        *buckets* only applies on first creation; later callers get the
        existing instrument regardless of the bounds they pass.
        """
        key = _make_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(key, bounds=buckets)
                self._histograms[key] = instrument
            return instrument

    # -- one-shot conveniences ------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Increment a counter by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Observe into a histogram by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.histogram(name, **labels).observe(value)

    def counter_value(self, name: str, **labels: object) -> int:
        """Current counter total (0 when the counter does not exist)."""
        instrument = self._counters.get(_make_key(name, labels))
        return instrument.value if instrument is not None else 0

    def counter_totals(self, prefix: str = "") -> Dict[str, int]:
        """Rendered key -> total for every counter named under *prefix*.

        The reporting surface for families of labeled counters (e.g.
        all ``net.errors{kind=...}`` children, or everything a chaos
        campaign recorded under ``chaos.``), sorted by rendered key so
        output is stable.
        """
        with self._lock:
            counters = dict(self._counters)
        return {
            render_key(key): instrument.value
            for key, instrument in sorted(counters.items())
            if key[0].startswith(prefix)
        }

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[InstrumentKey, object]]:
        """A picklable value snapshot: plain dicts keyed by instrument key.

        The returned tree is detached from the registry (safe to ship
        across processes) and is the input format :meth:`merge` and
        :func:`snapshot_delta` consume.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {key: c.value for key, c in counters.items()},
            "gauges": {key: g.value for key, g in gauges.items()},
            "histograms": {key: h.to_payload() for key, h in histograms.items()},
        }

    def merge(
        self,
        other: Union["MetricsRegistry", Dict[str, Dict[InstrumentKey, object]]],
    ) -> None:
        """Fold *other* (a registry or a snapshot) into this registry.

        Counters and histograms add; gauges take the incoming value
        (last write wins).  Instruments unseen locally are created.
        Merging works even while metrics are disabled -- it ships
        already-recorded data rather than recording new data.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for (name, labels), value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name, **dict(labels))._merge(value)
        for (name, labels), value in snapshot.get("gauges", {}).items():
            self.gauge(name, **dict(labels))._merge(value)
        for (name, labels), payload in snapshot.get("histograms", {}).items():
            if payload["count"]:
                self.histogram(
                    name, buckets=payload["bounds"], **dict(labels)
                )._merge(payload)

    def reset(self) -> None:
        """Zero every instrument **in place**.

        Long-lived handles held by hot call sites stay valid -- they
        simply start counting from zero again.
        """
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument._reset()

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A schema-versioned, JSON-able rendering (sorted string keys)."""
        snapshot = self.snapshot()
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {
                render_key(key): value
                for key, value in sorted(snapshot["counters"].items())
            },
            "gauges": {
                render_key(key): value
                for key, value in sorted(snapshot["gauges"].items())
            },
            "histograms": {
                render_key(key): payload
                for key, payload in sorted(snapshot["histograms"].items())
            },
        }


def snapshot_delta(
    after: Dict[str, Dict[InstrumentKey, object]],
    before: Dict[str, Dict[InstrumentKey, object]],
) -> Dict[str, Dict[InstrumentKey, object]]:
    """``after - before`` for two snapshots of the same registry.

    Counters and histogram counts subtract elementwise (zero results
    are dropped); gauges keep the *after* values.  This is how a forked
    worker ships only the activity it performed, excluding whatever the
    parent had already recorded at fork time.
    """
    counters: Dict[InstrumentKey, int] = {}
    for key, value in after.get("counters", {}).items():
        diff = value - before.get("counters", {}).get(key, 0)
        if diff:
            counters[key] = diff
    histograms: Dict[InstrumentKey, object] = {}
    for key, payload in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None:
            if payload["count"]:
                histograms[key] = payload
            continue
        counts = [a - b for a, b in zip(payload["counts"], prior["counts"])]
        count = payload["count"] - prior["count"]
        if count:
            histograms[key] = {
                "bounds": payload["bounds"],
                "counts": counts,
                "sum": payload["sum"] - prior["sum"],
                "count": count,
            }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


def export_metrics(path, registry: Optional["MetricsRegistry"] = None) -> None:
    """Write *registry* (default: the shared one) as JSON to *path*."""
    registry = registry if registry is not None else shared_registry()
    payload = registry.to_json()
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


_SHARED_REGISTRY = MetricsRegistry()


def shared_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer reports to."""
    return _SHARED_REGISTRY
