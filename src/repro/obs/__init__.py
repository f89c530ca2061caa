"""``repro.obs`` -- unified, dependency-free telemetry for the pipeline.

Three primitives, one process-wide instance of each:

* :mod:`repro.obs.metrics` -- a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges, and fixed-bucket histograms, with a
  snapshot/delta/merge protocol so forked workers (see
  :mod:`repro.fanout`) ship their activity back to the parent.
* :mod:`repro.obs.series` -- labeled time series on the simulated-month
  logical clock (the per-agent monthly traffic/block matrix a site
  operator would see), sharing the metrics enable flag and the same
  snapshot/delta/merge worker protocol; exported as ``SERIES.json``.
* :mod:`repro.obs.trace` -- hierarchical spans with deterministic ids
  and wall + logical (simulated month) clocks, exported as JSONL.

Post-hoc analysis of the exported artifacts (critical path, worker
utilization, folded stacks, run diffs) lives in
:mod:`repro.obs.analyze`, surfaced by ``repro stats`` / ``repro
dashboard``.

The live plane builds on those primitives: :mod:`repro.obs.live`
streams snapshot-deltas of the shared registries through a bounded
event bus into Prometheus/JSONL/HTTP sinks (``repro serve-metrics``),
:mod:`repro.obs.alerts` evaluates declarative SLO rules over the
exported payloads (``repro alerts``), and :mod:`repro.obs.profile`
attaches tracemalloc/cProfile samplers to pipeline phases
(``repro reproduce --profile``).

Defaults: metrics **on** (cheap: one lock per increment on
already-coarse call sites), tracing **off** (a disabled ``span()``
call costs one global bool check).  :func:`disable_all` turns both off
for zero-telemetry runs; the residual overhead is benchmarked <1% in
``benchmarks/bench_obs_overhead.py``.

The determinism contract: **counter and histogram totals are identical
for identical workloads regardless of scheduling mode** (serial /
thread / fork -- enforced by ``tests/report/test_orchestrator.py``);
gauges are process-local point-in-time observations with no such
guarantee (shared-cache hit rates are inherently scheduling-dependent).
"""

from __future__ import annotations

from .alerts import (
    AlertEngine,
    AlertError,
    AlertEvent,
    AlertRule,
    load_rules,
)
from .live import (
    EventBus,
    JsonlSink,
    LiveTelemetry,
    MetricsHTTPServer,
    TelemetryEvent,
    TelemetryScraper,
    month_tick,
    render_prometheus,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    export_metrics,
    metrics_disabled,
    metrics_enabled,
    set_metrics_enabled,
    shared_registry,
    snapshot_delta,
)
from .series import (
    Series,
    SeriesRegistry,
    export_series,
    shared_series,
)
from .profile import PhaseProfile, Profiler
from .series import snapshot_delta as series_snapshot_delta
from .trace import (
    Span,
    Tracer,
    current_span,
    set_tracing_enabled,
    shared_tracer,
    span,
    tracing_enabled,
    write_trace,
)

__all__ = [
    "AlertEngine",
    "AlertError",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LiveTelemetry",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "PhaseProfile",
    "Profiler",
    "Series",
    "SeriesRegistry",
    "Span",
    "TelemetryEvent",
    "TelemetryScraper",
    "Tracer",
    "current_span",
    "disable_all",
    "enable_all",
    "load_rules",
    "month_tick",
    "render_prometheus",
    "export_metrics",
    "export_series",
    "metrics_disabled",
    "metrics_enabled",
    "series_snapshot_delta",
    "set_metrics_enabled",
    "set_tracing_enabled",
    "shared_registry",
    "shared_series",
    "shared_tracer",
    "snapshot_delta",
    "span",
    "tracing_enabled",
    "write_trace",
]


def enable_all() -> None:
    """Turn on both metrics and tracing."""
    set_metrics_enabled(True)
    set_tracing_enabled(True)


def disable_all() -> None:
    """Turn off all telemetry (near-zero residual overhead)."""
    set_metrics_enabled(False)
    set_tracing_enabled(False)
