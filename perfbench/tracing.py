"""Span recording around a program's functions, for the traced run.

:class:`Recorder` wraps functions so each call appends one span
``(span_id, parent_id, name, start, end)`` to an in-memory list; the
caller writes the list out once, at exit.  Parents come from a
per-thread stack, so spans of a thread pool's workers never nest under
another thread's call.

:func:`patch_function` and :func:`patch_method` install a wrapper
everywhere the program can reach the original: modules bind names
directly (``from .parser import parse``), so every module attribute
that *is* the function is replaced, not only its home module's.

:func:`summarize` turns the spans into per-name call counts, self time
(a span's duration minus the time its direct children cover) and
inclusive time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(span_id, parent_id, name, start, end)``; ``parent_id`` is -1 at a root.
SpanRecord = Tuple[int, int, str, float, float]


class Recorder:
    """In-memory span buffer shared by every wrapper it makes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[SpanRecord] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        fn: Callable,
        probe: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """*fn* recording one span named *name* per call.

        *probe*, when given, receives the call's positional arguments
        and its result after the span closes (for hit/miss tallies).
        """
        spans, clock, ids, local = self.spans, self._clock, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, in one pass."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines("%d\t%d\t%s\t%.9f\t%.9f\n" % s for s in self.spans)


def _modules_under(prefix: str) -> Iterable[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def patch_function(fn: Callable, wrapper: Callable, prefix: str) -> int:
    """Replace *fn* by *wrapper* in every loaded module under *prefix*.

    Returns the number of module attributes replaced.
    """
    patched = 0
    for module in _modules_under(prefix):
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


def patch_method(cls: type, attr: str, wrapper: Callable) -> None:
    """Replace the method *attr* defined on *cls* itself by *wrapper*."""
    if attr not in vars(cls):
        raise AttributeError(f"{cls.__qualname__} defines no {attr!r}")
    setattr(cls, attr, wrapper)


@dataclass
class NameStats:
    calls: int = 0          # spans with no same-named ancestor
    self_s: float = 0.0     # duration minus direct children's durations
    inclusive_s: float = 0.0  # duration of spans with no same-named ancestor


def summarize(spans: Iterable[SpanRecord]) -> Dict[str, NameStats]:
    """Per-name counts, self time and inclusive time.

    A span nested (at any depth) under a span of the same name -- a
    recursive call, or an override calling ``super()`` -- adds its self
    time but neither a call nor inclusive time, so nothing is counted
    twice.
    """
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = {}
    for span_id, parent, _, start, end in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: Dict[str, NameStats] = {}
    for span_id, parent, name, start, end in spans:
        entry = stats.setdefault(name, NameStats())
        duration = end - start
        entry.self_s += duration - child_time.get(span_id, 0.0)
        if not _has_ancestor_named(by_id, parent, name):
            entry.calls += 1
            entry.inclusive_s += duration
    return stats


def _has_ancestor_named(by_id: Dict[int, SpanRecord], parent: int, name: str) -> bool:
    while parent in by_id:
        record = by_id[parent]
        if record[2] == name:
            return True
        parent = record[1]
    return False
