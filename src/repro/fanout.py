"""One fan-out for every worker pool: serial, or a fork pool.

The battery, the population build and the shard crawl each split their
work into independent items.  :func:`fan_out` runs those items either
in-process, one after another, or on a pool of forked processes, and
returns the results in item order either way.  It owns the four things
a pool needs to stay invisible in the artifacts:

* **Mode resolution.**  :func:`resolve_mode` maps ``"auto"`` to
  ``"process"`` when there is more than one worker, more than one CPU
  and a fork start method, else to ``"serial"``.  Any other name than
  ``auto``/``serial``/``process`` is a one-line :class:`ValueError`.
* **The fork pool.**  Children inherit the work function and the items
  through the fork, so only item indices and results are pickled.
* **Worker telemetry.**  A forked child's metrics, series, tracer and
  log sink are copies.  Each item snapshots them before it runs and
  ships the deltas back; the parent merges them in item order, so
  counter totals, SERIES.json, TRACE.jsonl and the committed log store
  match a serial run.
* **A per-item span.**  Every item runs inside its own span, named
  uniquely per item by the caller.  Span ids hash the parent id, the
  name and the sibling index, so forked children -- whose sibling
  counters are pre-fork copies -- still emit unique, mode-independent
  ids.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .net.accesslog import active_log_sink
from .obs import metrics as _metrics
from .obs import series as _series
from .obs.trace import shared_tracer

__all__ = ["MODES", "resolve_mode", "fan_out"]

T = TypeVar("T")
R = TypeVar("R")

#: Every execution mode a caller may name.
MODES = ("auto", "serial", "process")

#: ``(work, items, item_span)`` of the fan-out in flight; forked
#: children inherit it instead of unpickling it per item.
_CONTEXT: Optional[tuple] = None


def resolve_mode(mode: str, workers: int) -> str:
    """The mode a fan-out over *workers* workers runs in.

    >>> resolve_mode("process", 1)
    'serial'
    """
    if mode not in MODES:
        raise ValueError(
            f"unknown execution mode {mode!r} (expected one of: {', '.join(MODES)})"
        )
    if workers <= 1 or mode == "serial":
        return "serial"
    if mode == "process":
        return "process"
    # Children must inherit the built world through fork, not re-pickle
    # it, and a pool pays only with a second core.
    if (os.cpu_count() or 1) > 1 and "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "serial"


def _run(work: Callable[[T], R], item: T, item_span) -> Tuple[R, float]:
    with item_span(item) as opened:
        result = work(item)
    return result, getattr(opened, "duration_seconds", 0.0)


def _run_shipped(index: int):
    """Forked-child entry: run item *index* and ship its telemetry."""
    work, items, item_span = _CONTEXT
    registry = _metrics.shared_registry()
    series = _series.shared_series()
    tracer = shared_tracer()
    sink = active_log_sink()
    before = registry.snapshot()
    series_before = series.snapshot()
    mark = tracer.record_count()
    # The child's sink holds the pre-fork events; marks bound the suffix
    # this item emits, which is all that ships back.
    sink_marks = sink.marks() if sink is not None else None
    result, seconds = _run(work, items[index], item_span)
    return (
        result,
        seconds,
        _metrics.snapshot_delta(registry.snapshot(), before),
        _series.snapshot_delta(series.snapshot(), series_before),
        tracer.records_since(mark),
        sink.delta(sink_marks) if sink_marks is not None else None,
    )


def fan_out(
    work: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int],
    mode: str,
    item_span: Callable[[T], object],
) -> List[Tuple[R, float]]:
    """Run ``work(item)`` for every item; ``(result, seconds)`` in item order.

    Args:
        work: The unit of work.  In process mode it runs in a forked
            child, so it may close over anything; its result must
            pickle.
        items: The work items.
        workers: Pool size (``None``/``1`` = serial).
        mode: ``"auto"``, ``"serial"`` or ``"process"`` (see
            :func:`resolve_mode`).
        item_span: Opens the span each item runs in; its name must be
            unique among the items.  *seconds* is that span's duration
            (0.0 while tracing is off).
    """
    global _CONTEXT
    items = list(items)
    n_workers = min(max(1, workers or 1), len(items))
    if resolve_mode(mode, n_workers) == "serial":
        return [_run(work, item, item_span) for item in items]
    _CONTEXT = (work, items, item_span)
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            shipped = list(pool.map(_run_shipped, range(len(items))))
    finally:
        _CONTEXT = None
    registry = _metrics.shared_registry()
    series = _series.shared_series()
    tracer = shared_tracer()
    sink = active_log_sink()
    for _, _, delta, series_delta, spans, log_delta in shipped:
        registry.merge(delta)
        series.merge(series_delta)
        tracer.absorb(spans)
        if log_delta is not None and sink is not None:
            sink.merge(log_delta)
    return [(result, seconds) for result, seconds, *_ in shipped]
