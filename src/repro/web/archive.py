"""Columnar, shard-partitioned snapshot archive for million-site worlds.

One archive holds everything the longitudinal analysis needs about a
crawled snapshot series -- per-site status, robots body, and error for
every snapshot spec -- in a form that is compact on disk, cheap to
write from parallel shard workers, and streamable at O(shard) memory:

* **One directory per shard** (``shard-0000/`` ...), self-contained:
  a shard can be written, validated, and aggregated without touching
  any other shard.  Shard membership is the deterministic sha256
  assignment of :func:`repro.web.sharding.shard_of`.
* **Columnar record storage.**  Per spec, three parallel columns over
  the shard's domains: ``u16`` HTTP status, ``i32`` body reference,
  ``i32`` error reference (10 bytes per record), little-endian
  struct-packed in ``records.bin`` and mmap-ed on read.
* **Content-addressed bodies, stored once.**  Distinct robots.txt
  bodies are interned into ``bodies.bin`` with an offset/length index
  and a SHA-256 per body -- the same content address the policy cache
  and the incremental store key on, which is what lets the archive
  double as the per-body facts backend (:class:`ArchiveBodyStore`).
* **Shared substrate.**  The on-disk format -- blob and string tables,
  manifest-last commit, open-time validation, damage as a one-line
  :class:`ArchiveError` -- is :mod:`repro.columnar`'s; this module
  only declares the archive's columns and manifest fields.

Readers reconstruct bit-identical :class:`~repro.crawlers.commoncrawl.
Snapshot` objects (``ArchiveSet.snapshots()``), but the scale plane's
streaming aggregations (:mod:`repro.measure.streaming`) iterate the
columns shard by shard instead, so memory stays flat as the site count
grows.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict
from pathlib import Path
from threading import Lock
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..columnar import (
    ColumnarShardReader,
    ColumnarShardSet,
    ColumnarShardWriter,
    Interner,
    ShardFormat,
    array_to_le_bytes,
    atomic_write,
    blob_table_files,
    le_bytes_to_array,
    open_shard_set,
    schema_fingerprint,
    shard_dir_name,
    string_table_bytes,
)
from ..core.classify import Classification, RestrictionLevel
from ..crawlers.commoncrawl import ErrorBudget, SiteRecord, Snapshot, SnapshotSpec
from ..obs.metrics import shared_registry

__all__ = [
    "ArchiveError",
    "ArchiveBodyStore",
    "ShardWriter",
    "ShardReader",
    "ArchiveSet",
    "ARCHIVE_SCHEMA_FINGERPRINT",
]

#: Bump any entry when the on-disk shape changes; the fingerprint shift
#: invalidates every existing archive (readers refuse to open it) and
#: every facts file (the store self-invalidates) automatically.
_SCHEMA = {
    "archive": 1,
    "record": ["status:u16le", "body_ref:i32le", "error_ref:i32le"],
    "body_index": ["offset:u64le", "length:u32le"],
    "site": ["domain", "rank:u32le", "tier:u8"],
    # Facts rows mirror repro.measure.incremental's bodies.json layout
    # exactly, so verdicts move between the two backends unchanged.
    "classification": ["level", "explicit", "explicit_allow"],
    "flags": ["full_any", "explicit_allow", "allow_any"],
}

ARCHIVE_SCHEMA_FINGERPRINT = schema_fingerprint(_SCHEMA)

_DOMAINS = "domains.txt"
_RANKS = "ranks.bin"
_TIERS = "tiers.bin"
_BODIES = "bodies"
_RECORDS = "records.bin"

#: u16 status + i32 body ref + i32 error ref.
_RECORD_BYTES = 10
#: Largest reference an ``i32`` column holds.
_I32_CAP = 0x7FFFFFFF

_FLAG_KINDS = ("full_any", "explicit_allow", "allow_any")


class ArchiveError(Exception):
    """A one-line, operator-facing archive failure (corrupt, truncated,
    missing, or schema-stale data); the message names the path."""


_FORMAT = ShardFormat(
    store="snapshot archive",
    kind="archive",
    fingerprint=ARCHIVE_SCHEMA_FINGERPRINT,
    data_files=(
        _DOMAINS, _RANKS, _TIERS, "bodies.bin", "bodies.idx", "bodies.sha", _RECORDS,
    ),
    error=ArchiveError,
    bytes_counter="archive.bytes_written",
)


def _tier_byte(tier: str) -> int:
    return 1 if tier == "top5k" else 0


def merge_error_budgets(budgets: Sequence[Optional[ErrorBudget]]) -> Optional[ErrorBudget]:
    """One snapshot-level budget from per-shard crawl budgets.

    Counts sum across shards; ``retry_passes`` takes the max (a
    whole-population crawl keeps passing while *any* site is still
    errored, which is exactly the worst shard's pass count).
    """
    present = [b for b in budgets if b is not None]
    if not present:
        return None
    by_kind: Dict[str, int] = {}
    for budget in present:
        for kind, count in budget.errors_by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + count
    return ErrorBudget(
        n_sites=sum(b.n_sites for b in present),
        n_errored_first_pass=sum(b.n_errored_first_pass for b in present),
        n_healed=sum(b.n_healed for b in present),
        n_errored_final=sum(b.n_errored_final for b in present),
        retry_passes=max(b.retry_passes for b in present),
        errors_by_kind=by_kind,
    )


# -- writing -------------------------------------------------------------------


class ShardWriter(ColumnarShardWriter):
    """Accumulates one shard's sites and per-spec records, then commits.

    Usage: :meth:`set_sites` once, :meth:`add_snapshot` once per spec
    in time order, :meth:`commit` once.  The commit is atomic at the
    manifest: a shard directory without a (complete, size-consistent)
    manifest never opens.
    """

    FORMAT = _FORMAT

    def __init__(
        self,
        root: Union[str, Path],
        shard_id: int,
        n_shards: int,
        config_digest: str = "",
    ):
        super().__init__(root, shard_id, n_shards, config_digest)
        self._domains: List[str] = []
        self._ranks: List[int] = []
        self._tiers: List[int] = []
        self._specs: List[SnapshotSpec] = []
        self._budgets: List[Optional[ErrorBudget]] = []
        self._bodies = Interner("robots bodies", _I32_CAP, _FORMAT)
        self._errors = Interner("errors", _I32_CAP, _FORMAT)
        self._columns: List[Tuple[array, array, array]] = []

    def set_sites(
        self, domains: Sequence[str], ranks: Sequence[int], tiers: Sequence[str]
    ) -> None:
        """Declare the shard's site rows (global rank order expected)."""
        self._domains = list(domains)
        self._ranks = [int(r) for r in ranks]
        self._tiers = [_tier_byte(t) for t in tiers]

    def add_snapshot(
        self,
        spec: SnapshotSpec,
        records: Mapping[str, SiteRecord],
        error_budget: Optional[ErrorBudget] = None,
    ) -> None:
        """Append one spec's records (a full row per declared domain)."""
        statuses = array("H")
        body_refs = array("i")
        error_refs = array("i")
        body_ref = self._bodies.ref
        error_ref = self._errors.ref
        for domain in self._domains:
            record = records[domain]
            statuses.append(record.status)
            body = record.robots_txt
            body_refs.append(-1 if body is None else body_ref(body))
            error = record.error
            error_refs.append(-1 if error is None else error_ref(error))
        self._specs.append(spec)
        self._budgets.append(error_budget)
        self._columns.append((statuses, body_refs, error_refs))

    def commit(self) -> Path:
        """Write every file, manifest last; returns the shard directory."""
        records = bytearray()
        for columns in self._columns:
            for column in columns:
                records += array_to_le_bytes(column)
        files = {
            _DOMAINS: string_table_bytes(self._domains),
            _RANKS: array_to_le_bytes(array("I", self._ranks)),
            _TIERS: bytes(self._tiers),
            **blob_table_files(_BODIES, self._bodies.values),
            _RECORDS: bytes(records),
        }
        return self.write_shard(files, {
            "n_domains": len(self._domains),
            "n_bodies": len(self._bodies.values),
            "specs": [
                [spec.snapshot_id, spec.label, spec.month_index]
                for spec in self._specs
            ],
            "errors": self._errors.values,
            "error_budgets": [b if b is None else asdict(b) for b in self._budgets],
        })


# -- reading -------------------------------------------------------------------


class ShardReader(ColumnarShardReader):
    """mmap-backed read access to one committed shard directory.

    Column accessors return :mod:`array` views decoded straight from
    the mapped file; body text decodes on demand and is memoized per
    reader (bounded by the shard's distinct bodies -- dropping the
    reader drops the memo, which is the streaming plane's memory
    model).
    """

    FORMAT = _FORMAT

    def __init__(self, directory: Union[str, Path]):
        super().__init__(directory)
        manifest = self.manifest
        self.n_domains = int(manifest["n_domains"])
        self.n_bodies = int(manifest["n_bodies"])
        self.specs: List[SnapshotSpec] = [
            SnapshotSpec(snapshot_id=row[0], label=row[1], month_index=int(row[2]))
            for row in manifest["specs"]
        ]
        self.errors: List[str] = list(manifest.get("errors", []))
        self._budgets = [
            payload if payload is None else ErrorBudget(**payload)
            for payload in manifest.get("error_budgets", [])
        ]
        self.check_size(_RECORDS, len(self.specs) * self.n_domains * _RECORD_BYTES)
        self.domains: List[str] = self.string_table(_DOMAINS, self.n_domains)
        self.ranks = le_bytes_to_array("I", (self.directory / _RANKS).read_bytes())
        self.tiers = (self.directory / _TIERS).read_bytes()
        self._bodies = self.blob_table(_BODIES, self.n_bodies, "body")
        self._records = self.map_file(_RECORDS)
        self._domain_index: Optional[Dict[str, int]] = None

    # -- columns --------------------------------------------------------------

    def _record_block(self, spec_index: int, column: int) -> bytes:
        n = self.n_domains
        base = spec_index * n * _RECORD_BYTES
        offsets = (0, 2 * n, 6 * n)
        widths = (2 * n, 4 * n, 4 * n)
        return self._records.read(base + offsets[column], widths[column])

    def statuses(self, spec_index: int) -> array:
        """``u16`` HTTP status per domain for one spec."""
        return le_bytes_to_array("H", self._record_block(spec_index, 0))

    def body_refs(self, spec_index: int) -> array:
        """``i32`` body reference per domain (-1 = no body)."""
        return le_bytes_to_array("i", self._record_block(spec_index, 1))

    def error_refs(self, spec_index: int) -> array:
        """``i32`` error reference per domain (-1 = no error)."""
        return le_bytes_to_array("i", self._record_block(spec_index, 2))

    def body_text(self, ref: int) -> str:
        """The interned robots body for *ref*, decoded once per reader."""
        return self._bodies.text(ref)

    def drop_body_cache(self) -> None:
        """Release the decoded-body memo (streaming callers drop it per
        shard so resident text never exceeds one shard's bodies)."""
        self._bodies.drop_cache()

    def probe(self) -> Dict[str, int]:
        """Point-in-time resource occupancy of this reader.

        ``data_bytes`` is the shard's on-disk column footprint,
        ``mapped_bytes`` the bytes currently mmap-addressable (0 once
        closed), ``body_cache_entries``/``body_cache_chars`` the
        decoded-body memo's occupancy -- the number the streaming
        plane's O(shard) memory model rests on.
        """
        texts = self._bodies.texts
        return {
            "data_bytes": self.data_bytes,
            "mapped_bytes": self.mapped_bytes(),
            "body_cache_entries": len(texts),
            "body_cache_chars": sum(len(text) for text in texts.values()),
        }

    def domain_index(self) -> Dict[str, int]:
        """domain -> row map (built lazily; used by variant fallback)."""
        if self._domain_index is None:
            self._domain_index = {d: i for i, d in enumerate(self.domains)}
        return self._domain_index

    def error_budget(self, spec_index: int) -> Optional[ErrorBudget]:
        if spec_index < len(self._budgets):
            return self._budgets[spec_index]
        return None

    # -- record reconstruction -------------------------------------------------

    def record(self, spec_index: int, domain_index: int) -> SiteRecord:
        """One :class:`SiteRecord`, bit-identical to the crawled one."""
        status = self.statuses(spec_index)[domain_index]
        body_ref = self.body_refs(spec_index)[domain_index]
        error_ref = self.error_refs(spec_index)[domain_index]
        return SiteRecord(
            domain=self.domains[domain_index],
            status=status,
            robots_txt=self.body_text(body_ref) if body_ref >= 0 else None,
            error=self.errors[error_ref] if error_ref >= 0 else None,
        )


class ArchiveSet(ColumnarShardSet):
    """All shards of one archive root, validated for mutual consistency."""

    readers: List[ShardReader]

    @classmethod
    def open(cls, root: Union[str, Path]) -> "ArchiveSet":
        """Open and cross-validate every shard under *root*."""
        archive = cls(root, open_shard_set(root, ShardReader))
        for reader in archive.readers[1:]:
            if reader.specs != archive.specs:
                archive.close()
                raise ArchiveError(
                    f"shard {reader.shard_id} covers different snapshot specs: "
                    f"{reader.directory}"
                )
        return archive

    @property
    def specs(self) -> List[SnapshotSpec]:
        return self.readers[0].specs

    @property
    def n_domains(self) -> int:
        return sum(reader.n_domains for reader in self.readers)

    def _canonical_order(self) -> List[Tuple[int, int, int]]:
        """``(rank, shard_index, domain_index)`` rows in global rank order.

        Ranks are the population's stable-list positions, so this merge
        reproduces the canonical domain order any unsharded consumer
        iterates in.
        """
        order: List[Tuple[int, int, int]] = []
        for shard_index, reader in enumerate(self.readers):
            ranks = reader.ranks
            order.extend(
                (ranks[i], shard_index, i) for i in range(reader.n_domains)
            )
        order.sort()
        return order

    def stable_domains(self) -> List[str]:
        """Every archived domain, in global rank order."""
        return [
            self.readers[shard].domains[row]
            for _, shard, row in self._canonical_order()
        ]

    def snapshots(self) -> List[Snapshot]:
        """Reconstructed full snapshots, bit-identical to the crawl.

        Materializes every record (O(sites) memory) -- the
        compatibility path for consumers that want
        :class:`SnapshotSeries` semantics.  Streaming aggregations
        should iterate shards instead.
        """
        order = self._canonical_order()
        snapshots: List[Snapshot] = []
        for spec_index, spec in enumerate(self.specs):
            records: Dict[str, SiteRecord] = {}
            for _, shard, row in order:
                record = self.readers[shard].record(spec_index, row)
                records[record.domain] = record
            snapshots.append(
                Snapshot(
                    spec=spec,
                    records=records,
                    error_budget=merge_error_budgets(
                        [r.error_budget(spec_index) for r in self.readers]
                    ),
                )
            )
        return snapshots

    def body_store(self) -> "ArchiveBodyStore":
        """The archive's per-body facts backend (shared ``facts.json``)."""
        return ArchiveBodyStore(self.root)

    def publish_probes(self, registry=None, stratum: Optional[str] = None) -> None:
        """Publish per-shard archive-plane gauges into *registry*.

        One gauge family per :meth:`ShardReader.probe` field, labeled
        by shard id (and *stratum* when given):
        ``archive.data_bytes``, ``archive.mapped_bytes``,
        ``archive.body_cache_entries``, ``archive.body_cache_chars``,
        plus an ``archive.open_shards`` total.  Gauges are
        process-local point-in-time observations -- like the cache
        stats -- and sit outside the cross-mode identity contract.
        ``repro stats`` renders them as the archive-probe table.
        """
        registry = registry if registry is not None else shared_registry()
        extra = {} if stratum is None else {"stratum": stratum}
        for reader in self.readers:
            probe = reader.probe()
            shard = str(reader.shard_id)
            for field, value in probe.items():
                registry.set_gauge(f"archive.{field}", value, shard=shard, **extra)
        registry.set_gauge("archive.open_shards", len(self.readers), **extra)


# -- per-body facts ------------------------------------------------------------


class BodyFacts:
    """Per-body classification and flag verdicts, keyed by body digest.

    The one implementation of the verdict rows both persistent stores
    hold -- :class:`ArchiveBodyStore`'s ``facts.json`` and
    :class:`~repro.measure.incremental.IncrementalStore`'s
    ``bodies.json`` -- behind the store interface
    :meth:`repro.measure.cache.PolicyCache.attach_store` consumes.
    Mutations take the store's lock and mark it dirty for its next
    flush.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._dirty = False
        self._load_facts({})

    def _load_facts(self, payload: Mapping[str, dict]) -> None:
        self._classifications: Dict[str, Dict[str, list]] = payload.get("classify", {})
        self._flags: Dict[str, Dict[str, Dict[str, bool]]] = {
            kind: payload.get(kind, {}) for kind in _FLAG_KINDS
        }

    def _facts_payload(self) -> Dict[str, object]:
        return {"classify": self._classifications, **self._flags}

    @staticmethod
    def _write_json(path: Path, payload: object) -> None:
        """Publish *payload* as compact sorted-key JSON, atomically."""
        atomic_write(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    def get_classification(
        self, body_digest: str, user_agent: str, require_explicit: bool
    ) -> Optional[Classification]:
        entry = self._classifications.get(body_digest)
        if entry is None:
            return None
        row = entry.get(f"{user_agent}|{int(require_explicit)}")
        if row is None:
            return None
        level, explicit, explicit_allow = row
        return Classification(
            level=RestrictionLevel(level),
            explicit=bool(explicit),
            explicit_allow=bool(explicit_allow),
        )

    def put_classification(
        self,
        body_digest: str,
        user_agent: str,
        require_explicit: bool,
        result: Classification,
    ) -> None:
        with self._lock:
            entry = self._classifications.setdefault(body_digest, {})
            entry[f"{user_agent}|{int(require_explicit)}"] = [
                int(result.level),
                bool(result.explicit),
                bool(result.explicit_allow),
            ]
            self._dirty = True

    def get_flag(self, kind: str, body_digest: str, key: str) -> Optional[bool]:
        entry = self._flags[kind].get(body_digest)
        return None if entry is None else entry.get(key)

    def put_flag(self, kind: str, body_digest: str, key: str, value: bool) -> None:
        with self._lock:
            self._flags[kind].setdefault(body_digest, {})[key] = bool(value)
            self._dirty = True

    def body_entry_count(self) -> int:
        """Distinct stored facts across every family."""
        return sum(len(rows) for rows in self._classifications.values()) + sum(
            len(rows)
            for kind in _FLAG_KINDS
            for rows in self._flags[kind].values()
        )


class ArchiveBodyStore(BodyFacts):
    """Per-body classification/flag memos stored with the archive.

    One fact per robots body content address, whichever backend
    computed it first.  Keeping the facts next to the body table means
    the archive and ``.repro-cache/`` never store a verdict twice:
    :meth:`ingest_incremental` folds an existing incremental store's
    body layer in, and the incremental store can keep serving
    experiment-level results while the archive serves the body level.
    """

    def __init__(self, root: Union[str, Path]):
        super().__init__()
        self.root = Path(root)
        try:
            payload = json.loads(self.facts_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        # A stale layout starts empty and is rewritten on flush.
        if payload.get("schema_fingerprint") == ARCHIVE_SCHEMA_FINGERPRINT:
            self._load_facts(payload)

    @property
    def facts_path(self) -> Path:
        return self.root / "facts.json"

    def flush(self) -> None:
        """Persist the facts atomically (no-op when nothing changed)."""
        with self._lock:
            if not self._dirty:
                return
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_json(
                self.facts_path,
                {"schema_fingerprint": ARCHIVE_SCHEMA_FINGERPRINT, **self._facts_payload()},
            )
            self._dirty = False

    # perfbench/layers.py wraps these two by name on this class.
    def get_classification(
        self, body_digest: str, user_agent: str, require_explicit: bool
    ) -> Optional[Classification]:
        return super().get_classification(body_digest, user_agent, require_explicit)

    def get_flag(self, kind: str, body_digest: str, key: str) -> Optional[bool]:
        return super().get_flag(kind, body_digest, key)

    def ingest_incremental(self, store_root: Union[str, Path]) -> int:
        """Fold an :class:`IncrementalStore`'s body facts into this store.

        Reads the store under *store_root* (the ``.repro-cache/``
        layout); a stale or unreadable store contributes nothing.
        Returns the number of facts adopted.  Facts already present
        locally are kept (both backends computed them from the same
        content address, so they are equal by construction).
        """
        # Imported at call time: repro.measure imports this module's
        # package transitively, so a module-level import would cycle.
        from ..measure.incremental import IncrementalStore

        mine = self._facts_payload()
        adopted = 0
        with self._lock:
            for family, digests in IncrementalStore(store_root)._facts_payload().items():
                for digest, rows in digests.items():
                    entry = mine[family].setdefault(digest, {})
                    for key, value in rows.items():
                        if key not in entry:
                            entry[key] = value
                            adopted += 1
            if adopted:
                self._dirty = True
        return adopted
