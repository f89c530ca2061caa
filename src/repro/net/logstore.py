"""Columnar per-shard access-log archive: the request-plane wide events.

The Section 5 testbed decides crawler compliance entirely from server
access logs, but until now every request was summarized down to
counters/series before anything durable existed.  This module persists
the raw request plane: every simulated request becomes one fixed-width
columnar record in a per-shard archive in the :mod:`repro.columnar`
format the snapshot archive also uses -- id-interned hosts/paths/agent
labels, a content-addressed User-Agent table, little-endian column
blocks, atomic manifest-last commits pinned by a schema fingerprint and
the population config digest, mmap readers, and one-line
:class:`LogStoreError` failures.

Determinism contract (the same one METRICS.json/SERIES.json honor):
the committed archive is **byte-identical across serial/thread/fork
scheduling at any worker count**.  Two mechanisms deliver it:

* **Named streams.**  Every sequential unit of work (one experiment
  runner, one snapshot-collection task) emits under a thread-local
  stream label (:func:`log_stream`).  Each stream is written by exactly
  one thread, so its internal order is the unit's own deterministic
  request order.  At commit time streams are concatenated in sorted
  label order and global sequence numbers are stamped over the result
  -- scheduling decides only *when* a stream fills, never what the
  committed bytes look like.
* **Shipped deltas.**  Fork workers cannot write into the parent's
  sink, so they ship per-stream event deltas (:meth:`LogSink.marks` /
  :meth:`LogSink.delta`) exactly like metrics deltas, and the parent
  merges them (:meth:`LogSink.merge`) before committing.
"""

from __future__ import annotations

import threading
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Union

from ..columnar import (
    ColumnarShardReader,
    ColumnarShardSet,
    ColumnarShardWriter,
    Interner,
    ShardFormat,
    array_to_le_bytes,
    blob_table_files,
    le_bytes_to_array,
    open_shard_set,
    schema_fingerprint,
    string_table_bytes,
)
from ..web.sharding import shard_count_for, shard_of
from .accesslog import clock_ticks

__all__ = [
    "LogStoreError",
    "LogRecord",
    "clock_ticks",
    "LogSink",
    "log_stream",
    "ShardLogWriter",
    "LogShardReader",
    "LogStore",
    "LOGSTORE_SCHEMA_FINGERPRINT",
]

#: Bump any entry when the on-disk shape changes; the fingerprint shift
#: makes every reader refuse existing archives (one-line "stale schema"
#: error) instead of silently misreading them.
_SCHEMA = {
    "logstore": 1,
    "record": [
        "ticks:u64le",
        "seq:u32le",
        "host_ref:u32le",
        "path_ref:u32le",
        "ua_ref:u32le",
        "agent_ref:u16le",
        "status:u16le",
        "month:i16le",
        "outcome_ref:u8",
        "flags:u8",
        "category_ref:u8",
    ],
    "ua_index": ["offset:u64le", "length:u32le"],
    "flags": ["robots_fetch"],
}

LOGSTORE_SCHEMA_FINGERPRINT = schema_fingerprint(_SCHEMA)

_HOSTS = "hosts.txt"
_PATHS = "paths.txt"
_AGENTS = "agents.txt"
_OUTCOMES = "outcomes.txt"
_CATEGORIES = "categories.txt"
_UAS = "uas"
_RECORDS = "records.bin"

#: Column name -> array typecode, in on-disk block order.
_COLUMNS = (
    ("ticks", "Q"),
    ("seq", "I"),
    ("host_ref", "I"),
    ("path_ref", "I"),
    ("ua_ref", "I"),
    ("agent_ref", "H"),
    ("status", "H"),
    ("month", "h"),
    ("outcome_ref", "B"),
    ("flags", "B"),
    ("category_ref", "B"),
)
_COLUMN_WIDTHS = {"Q": 8, "I": 4, "H": 2, "h": 2, "B": 1}
_RECORD_BYTES = sum(_COLUMN_WIDTHS[code] for _, code in _COLUMNS)

FLAG_ROBOTS_FETCH = 0x01

#: Event tuple layout inside :class:`LogSink` streams (hot-path: plain
#: tuples, decomposed only at commit time).
_EV_HOST, _EV_PATH, _EV_UA, _EV_AGENT, _EV_OUTCOME = 0, 1, 2, 3, 4
_EV_CATEGORY, _EV_MONTH, _EV_STATUS, _EV_TICKS, _EV_ROBOTS = 5, 6, 7, 8, 9


class LogStoreError(Exception):
    """A one-line, operator-facing log-store failure (corrupt, truncated,
    missing, or schema-stale data); the message names the path."""


_FORMAT = ShardFormat(
    store="log store",
    kind="log-store",
    fingerprint=LOGSTORE_SCHEMA_FINGERPRINT,
    data_files=(
        _HOSTS, _PATHS, _AGENTS, _OUTCOMES, _CATEGORIES,
        "uas.bin", "uas.idx", "uas.sha", _RECORDS,
    ),
    error=LogStoreError,
    bytes_counter="logstore.bytes_written",
)


class LogRecord(NamedTuple):
    """One decoded wide-event row."""

    seq: int
    ticks: int
    month: int
    status: int
    host: str
    path: str
    user_agent: str
    agent: str
    outcome: str
    category: str
    robots_fetch: bool


# -- collection ----------------------------------------------------------------

_STREAM_LOCAL = threading.local()

#: Stream label for work not wrapped in :func:`log_stream` (module-level
#: crawls, tests, ad-hoc driving).
DEFAULT_STREAM = "main"


def current_log_stream() -> str:
    """The calling thread's active stream label."""
    return getattr(_STREAM_LOCAL, "label", DEFAULT_STREAM)


@contextmanager
def log_stream(label: str):
    """Emit this thread's wide events under *label* while active.

    One stream per sequential unit of work is the determinism unit:
    labels must be unique per unit and identical across scheduling
    modes (e.g. ``experiment:figure2``, ``collect:2024-01``).
    """
    previous = current_log_stream()
    _STREAM_LOCAL.label = label
    try:
        yield
    finally:
        _STREAM_LOCAL.label = previous


class LogSink:
    """In-memory wide-event collector, committed to a columnar archive.

    Emission appends to the calling thread's named stream; commit
    orders streams by label, stamps global sequence numbers, partitions
    by host shard, and writes one :class:`ShardLogWriter` per shard.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, List[tuple]] = {}
        self._lock = threading.Lock()

    def emit(
        self,
        host: str,
        path: str,
        user_agent: str,
        agent: str,
        outcome: str,
        category: str,
        month: int,
        status: int,
        ticks: int,
        robots_fetch: bool,
    ) -> None:
        """Record one request event into the active stream."""
        label = current_log_stream()
        events = self._streams.get(label)
        if events is None:
            with self._lock:
                events = self._streams.setdefault(label, [])
        events.append(
            (host, path, user_agent, agent, outcome, category,
             month, status, ticks, robots_fetch)
        )

    def event_count(self) -> int:
        """Total events held across all streams."""
        return sum(len(events) for events in self._streams.values())

    def stream_labels(self) -> List[str]:
        """Labels of non-empty streams, sorted (the commit order)."""
        return sorted(label for label, ev in self._streams.items() if ev)

    # -- fork-worker delta shipping -----------------------------------

    def marks(self) -> Dict[str, int]:
        """Per-stream high-water marks, for :meth:`delta` later."""
        return {label: len(events) for label, events in self._streams.items()}

    def delta(self, marks: Mapping[str, int]) -> Dict[str, List[tuple]]:
        """Events emitted since *marks*, per stream (picklable payload).

        A forked worker inherits the parent's pre-fork events; taking
        marks before the unit runs and shipping only the suffix keeps
        the parent from double-counting them on merge.
        """
        out: Dict[str, List[tuple]] = {}
        for label, events in self._streams.items():
            start = marks.get(label, 0)
            if len(events) > start:
                out[label] = events[start:]
        return out

    def merge(self, delta: Mapping[str, Sequence[tuple]]) -> None:
        """Fold a shipped worker delta into this sink."""
        with self._lock:
            for label, events in delta.items():
                self._streams.setdefault(label, []).extend(events)

    # -- commit --------------------------------------------------------

    def ordered_events(self) -> List[tuple]:
        """All events, streams concatenated in sorted-label order."""
        ordered: List[tuple] = []
        for label in sorted(self._streams):
            ordered.extend(self._streams[label])
        return ordered

    def commit(
        self,
        root: Union[str, Path],
        config_digest: str = "",
        n_shards: Optional[int] = None,
    ) -> Path:
        """Write the archive under *root*; returns the root directory.

        Shard count defaults to the same host-count geometry the
        snapshot archive uses (:func:`shard_count_for`), so a log store
        and a snapshot archive of the same world agree on shape.
        """
        root = Path(root)
        ordered = self.ordered_events()
        hosts = {event[_EV_HOST] for event in ordered}
        if n_shards is None:
            n_shards = shard_count_for(max(len(hosts), 1))
        shard_by_host = {host: shard_of(host, n_shards) for host in hosts}
        writers = [
            ShardLogWriter(root, shard_id, n_shards, config_digest)
            for shard_id in range(n_shards)
        ]
        for seq, event in enumerate(ordered):
            writers[shard_by_host[event[_EV_HOST]]].add(seq, event)
        root.mkdir(parents=True, exist_ok=True)
        for writer in writers:
            writer.commit()
        return root


# -- writing -------------------------------------------------------------------


class ShardLogWriter(ColumnarShardWriter):
    """Accumulates one shard's records, then commits them atomically."""

    FORMAT = _FORMAT

    def __init__(
        self,
        root: Union[str, Path],
        shard_id: int,
        n_shards: int,
        config_digest: str = "",
    ):
        super().__init__(root, shard_id, n_shards, config_digest)
        self._hosts = Interner("hosts", 0xFFFFFFFF, _FORMAT)
        self._paths = Interner("paths", 0xFFFFFFFF, _FORMAT)
        self._agents = Interner("agent labels", 0xFFFF, _FORMAT)
        self._outcomes = Interner("outcomes", 0xFF, _FORMAT)
        self._categories = Interner("site categories", 0xFF, _FORMAT)
        #: Content-addressed UA table: each distinct UA stored once.
        self._uas = Interner("user agents", 0xFFFFFFFF, _FORMAT)
        self._columns: Dict[str, array] = {
            name: array(code) for name, code in _COLUMNS
        }

    def add(self, seq: int, event: tuple) -> None:
        """Append one event (sink tuple layout) with global seq *seq*."""
        cols = self._columns
        cols["ticks"].append(event[_EV_TICKS])
        cols["seq"].append(seq)
        cols["host_ref"].append(self._hosts.ref(event[_EV_HOST]))
        cols["path_ref"].append(self._paths.ref(event[_EV_PATH]))
        cols["ua_ref"].append(self._uas.ref(event[_EV_UA]))
        cols["agent_ref"].append(self._agents.ref(event[_EV_AGENT]))
        cols["status"].append(event[_EV_STATUS])
        cols["month"].append(event[_EV_MONTH])
        cols["outcome_ref"].append(self._outcomes.ref(event[_EV_OUTCOME]))
        cols["flags"].append(
            FLAG_ROBOTS_FETCH if event[_EV_ROBOTS] else 0
        )
        cols["category_ref"].append(self._categories.ref(event[_EV_CATEGORY]))

    @property
    def n_records(self) -> int:
        return len(self._columns["seq"])

    def commit(self) -> Path:
        """Write every file, manifest last; returns the shard directory."""
        records = bytearray()
        for name, _ in _COLUMNS:
            records += array_to_le_bytes(self._columns[name])
        files = {
            _HOSTS: string_table_bytes(self._hosts.values),
            _PATHS: string_table_bytes(self._paths.values),
            _AGENTS: string_table_bytes(self._agents.values),
            _OUTCOMES: string_table_bytes(self._outcomes.values),
            _CATEGORIES: string_table_bytes(self._categories.values),
            **blob_table_files(_UAS, self._uas.values),
            _RECORDS: bytes(records),
        }
        return self.write_shard(files, {
            "n_records": self.n_records,
            "n_hosts": len(self._hosts.values),
            "n_paths": len(self._paths.values),
            "n_agents": len(self._agents.values),
            "n_outcomes": len(self._outcomes.values),
            "n_categories": len(self._categories.values),
            "n_uas": len(self._uas.values),
        })


# -- reading -------------------------------------------------------------------


class LogShardReader(ColumnarShardReader):
    """mmap-backed read access to one committed log shard."""

    FORMAT = _FORMAT

    def __init__(self, directory: Union[str, Path]):
        super().__init__(directory)
        manifest = self.manifest
        self.n_records = int(manifest["n_records"])
        self.n_uas = int(manifest["n_uas"])
        self.check_size(_RECORDS, self.n_records * _RECORD_BYTES)
        self.hosts = self.string_table(_HOSTS, int(manifest["n_hosts"]))
        self.paths = self.string_table(_PATHS, int(manifest["n_paths"]))
        self.agents = self.string_table(_AGENTS, int(manifest["n_agents"]))
        self.outcomes = self.string_table(_OUTCOMES, int(manifest["n_outcomes"]))
        self.categories = self.string_table(
            _CATEGORIES, int(manifest["n_categories"])
        )
        self._uas = self.blob_table(_UAS, self.n_uas, "UA")
        self._records = self.map_file(_RECORDS)
        self._decoded: Dict[str, array] = {}

    def column(self, name: str) -> array:
        """One decoded column (memoized per reader)."""
        decoded = self._decoded.get(name)
        if decoded is None:
            offset = 0
            for col_name, code in _COLUMNS:
                width = _COLUMN_WIDTHS[code] * self.n_records
                if col_name == name:
                    decoded = le_bytes_to_array(
                        code, self._records.read(offset, width)
                    )
                    break
                offset += width
            else:
                raise KeyError(name)
            self._decoded[name] = decoded
        return decoded

    def ua_text(self, ref: int) -> str:
        """User-Agent string *ref* (memoized per reader)."""
        return self._uas.text(ref)

    def records(self) -> Iterator[LogRecord]:
        """Decoded rows in stored (global-seq ascending) order."""
        cols = {name: self.column(name) for name, _ in _COLUMNS}
        for i in range(self.n_records):
            yield LogRecord(
                seq=cols["seq"][i],
                ticks=cols["ticks"][i],
                month=cols["month"][i],
                status=cols["status"][i],
                host=self.hosts[cols["host_ref"][i]],
                path=self.paths[cols["path_ref"][i]],
                user_agent=self.ua_text(cols["ua_ref"][i]),
                agent=self.agents[cols["agent_ref"][i]],
                outcome=self.outcomes[cols["outcome_ref"][i]],
                category=self.categories[cols["category_ref"][i]],
                robots_fetch=bool(cols["flags"][i] & FLAG_ROBOTS_FETCH),
            )

    def verify(self) -> Dict[str, int]:
        """Integrity re-check beyond open-time validation.

        Decodes every UA (which checks each against its ``uas.sha``
        digest) and checks the seq column is strictly ascending (the
        partition invariant).  Raises :class:`LogStoreError` on the
        first mismatch; returns ``{"records": n, "uas": n}`` when clean.
        """
        for ref in range(self.n_uas):
            self.ua_text(ref)
        seqs = self.column("seq")
        for i in range(1, self.n_records):
            if seqs[i] <= seqs[i - 1]:
                raise LogStoreError(
                    f"record sequence not ascending at row {i}: "
                    f"{self.directory / _RECORDS}"
                )
        return {"records": self.n_records, "uas": self.n_uas}


class LogStore(ColumnarShardSet):
    """A validated set of log shards rooted at one directory."""

    readers: List[LogShardReader]

    @classmethod
    def open(cls, root: Union[str, Path]) -> "LogStore":
        """Open and cross-validate every shard under *root*."""
        return cls(root, open_shard_set(root, LogShardReader))

    @property
    def n_shards(self) -> int:
        return len(self.readers)

    @property
    def n_records(self) -> int:
        return sum(reader.n_records for reader in self.readers)

    def records(self) -> Iterator[LogRecord]:
        """All rows across shards, merged into global-seq order."""
        import heapq

        return heapq.merge(
            *(reader.records() for reader in self.readers),
            key=lambda record: record.seq,
        )

    def verify(self) -> Dict[str, int]:
        """Deep-verify every shard; totals when clean."""
        totals = {"shards": len(self.readers), "records": 0, "uas": 0}
        for reader in self.readers:
            counts = reader.verify()
            totals["records"] += counts["records"]
            totals["uas"] += counts["uas"]
        return totals
