"""Columnar shard substrate and the one atomic-write path.

The snapshot archive (:mod:`repro.web.archive`) and the access-log
store (:mod:`repro.net.logstore`) are both sets of self-contained
``shard-NNNN`` directories in the one on-disk format this module owns;
each store declares only a :class:`ShardFormat`, its column layout and
its manifest fields.  A shard holds little-endian fixed-width column
blocks, newline string tables and content-addressed blob tables
(``<stem>.bin``, a ``<QI>`` offset/length ``.idx``, one SHA-256 per
blob in ``.sha``).  The manifest is written last and pins the schema
fingerprint, config digest and every file's size, so a crashed writer
leaves a shard that does not open.  Every failure -- missing, stale,
truncated or damaged data -- is one line of the store's own error
class naming the path.

:func:`atomic_write` is the package's only commit primitive: every
artifact writer publishes through it.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Type, TypeVar, Union

_MANIFEST = "manifest.json"
_INDEX_ENTRY = struct.Struct("<QI")


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> Path:
    """Publish *data* (``str`` as UTF-8) at *path* all at once.

    The bytes go to a temp file named uniquely for this call in the
    target's directory, which is then renamed over *path*: readers see
    the old file or the new one, and concurrent writers never share a
    temp file.  If the write raises, the temp file is removed and the
    previous bytes stay in place.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def shard_dir_name(shard_id: int) -> str:
    """Directory name for shard *shard_id* (``shard-0007``)."""
    return f"shard-{shard_id:04d}"


def array_to_le_bytes(values: array) -> bytes:
    """The array's raw bytes, little-endian regardless of platform."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def le_bytes_to_array(typecode: str, buffer: bytes) -> array:
    """An array decoded from little-endian raw bytes."""
    values = array(typecode)
    values.frombytes(buffer)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


def schema_fingerprint(schema: Mapping[str, object]) -> str:
    """SHA-256 of a store's canonical JSON schema description."""
    return hashlib.sha256(
        json.dumps(schema, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class ShardFormat:
    """One store's identity within the shared format.

    ``store`` and ``kind`` name it in error messages ("not a log
    store", "truncated log-store column"); ``data_files`` are the files
    whose sizes the manifest pins; a commit bumps ``bytes_counter`` by
    the bytes it wrote.
    """

    store: str
    kind: str
    fingerprint: str
    data_files: Sequence[str]
    error: Type[Exception]
    bytes_counter: str


# -- writing -------------------------------------------------------------------


class Interner:
    """First-reference-order value table with a reference-width cap."""

    def __init__(self, what: str, cap: int, fmt: ShardFormat):
        self.values: List[str] = []
        self._index: Dict[str, int] = {}
        self._what = what
        self._cap = cap
        self._fmt = fmt

    def ref(self, value: str) -> int:
        ref = self._index.get(value)
        if ref is None:
            ref = len(self.values)
            if ref > self._cap:
                raise self._fmt.error(
                    f"too many distinct {self._what} for the {self._fmt.kind} "
                    f"schema (cap {self._cap + 1})"
                )
            self._index[value] = ref
            self.values.append(value)
        return ref


def string_table_bytes(values: Sequence[str]) -> bytes:
    """A newline string table: one newline-terminated row per value."""
    return ("\n".join(values) + "\n" if values else "").encode("utf-8")


def blob_table_files(stem: str, values: Sequence[str]) -> Dict[str, bytes]:
    """The ``.bin``/``.idx``/``.sha`` files of a blob table over *values*."""
    blobs = [value.encode("utf-8") for value in values]
    index = bytearray()
    offset = 0
    for blob in blobs:
        index += _INDEX_ENTRY.pack(offset, len(blob))
        offset += len(blob)
    return {
        f"{stem}.bin": b"".join(blobs),
        f"{stem}.idx": bytes(index),
        f"{stem}.sha": string_table_bytes(
            [hashlib.sha256(blob).hexdigest() for blob in blobs]
        ),
    }


class ColumnarShardWriter:
    """Base of a store's shard writer: shard identity and the commit."""

    FORMAT: ShardFormat

    def __init__(
        self,
        root: Union[str, Path],
        shard_id: int,
        n_shards: int,
        config_digest: str = "",
    ):
        self.root = Path(root)
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.config_digest = config_digest

    def write_shard(self, files: Mapping[str, bytes], fields: Mapping[str, object]) -> Path:
        """Write *files*, then the manifest (identity, sizes and
        *fields*) last; returns the shard directory."""
        directory = self.root / shard_dir_name(self.shard_id)
        directory.mkdir(parents=True, exist_ok=True)
        # A leftover manifest from a previous commit must not make a
        # half-overwritten shard openable: drop it before touching data.
        manifest_path = directory / _MANIFEST
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass
        for name, blob in files.items():
            (directory / name).write_bytes(blob)
        manifest = {
            "schema_fingerprint": self.FORMAT.fingerprint,
            "config_digest": self.config_digest,
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "sizes": {name: len(blob) for name, blob in files.items()},
            **fields,
        }
        manifest_blob = (
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        atomic_write(manifest_path, manifest_blob)
        # Imported at call time: repro.obs publishes its own artifacts
        # through atomic_write, so a module-level import would cycle.
        from .obs.metrics import metrics_enabled, shared_registry

        if metrics_enabled():
            total = sum(len(blob) for blob in files.values()) + len(manifest_blob)
            shared_registry().counter(self.FORMAT.bytes_counter).inc(total)
        return directory


# -- reading -------------------------------------------------------------------


class MappedFile:
    """Read-only mmap of one data file (a zero-length file reads as b"")."""

    def __init__(self, path: Path):
        self._handle = open(path, "rb")
        try:
            self._map: Optional[mmap.mmap] = mmap.mmap(
                self._handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError:
            self._map = None  # zero-length file

    def __len__(self) -> int:
        return 0 if self._map is None else len(self._map)

    def read(self, start: int, length: int) -> bytes:
        return b"" if self._map is None else self._map[start:start + length]

    def close(self) -> None:
        """Release the mapping and the file (safe to call more than once)."""
        if self._map is not None:
            self._map.close()
            self._map = None
        self._handle.close()


class BlobTable:
    """Read access to one content-addressed blob table of a shard.

    A blob decodes once per memo lifetime; the first decode per reader
    also checks it against its ``.sha`` digest.  Bytes that fail to
    decode or to match raise the store's error naming the file.
    """

    def __init__(self, shard: "ColumnarShardReader", stem: str, count: int, what: str):
        self._error = shard.FORMAT.error
        self._what = what
        self.path = shard.directory / f"{stem}.bin"
        idx_path = shard.directory / f"{stem}.idx"
        idx_blob = idx_path.read_bytes()
        if len(idx_blob) != count * _INDEX_ENTRY.size:
            raise self._error(f"{what} index does not hold {count} entries: {idx_path}")
        self._offsets = list(_INDEX_ENTRY.iter_unpack(idx_blob))
        self._digests = shard.string_table(f"{stem}.sha", count)
        self._verified: set = set()
        self.texts: Dict[int, str] = {}
        self.file = MappedFile(self.path)

    def text(self, ref: int) -> str:
        """Blob *ref* as text (memoized until :meth:`drop_cache`)."""
        text = self.texts.get(ref)
        if text is None:
            offset, length = self._offsets[ref]
            blob = self.file.read(offset, length)
            try:
                text = blob.decode("utf-8")
            except UnicodeDecodeError:
                raise self._error(
                    f"corrupt {self._what} table at ref {ref} (not UTF-8): {self.path}"
                ) from None
            if ref not in self._verified:
                if hashlib.sha256(blob).hexdigest() != self._digests[ref]:
                    raise self._error(
                        f"{self._what} table digest mismatch at ref {ref}: {self.path}"
                    )
                self._verified.add(ref)
            self.texts[ref] = text
        return text

    def drop_cache(self) -> None:
        """Release the decoded-text memo (digest checks stay done)."""
        self.texts.clear()


class ColumnarShardReader:
    """Base of a store's shard reader: the manifest, checked against the
    format and every data file's size, and the files it maps."""

    FORMAT: ShardFormat

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        fmt = self.FORMAT
        manifest_path = self.directory / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise fmt.error(
                f"not a {fmt.store} shard (no manifest): {self.directory}"
            ) from None
        except (OSError, ValueError) as exc:
            raise fmt.error(f"corrupt {fmt.kind} manifest: {manifest_path}: {exc}") from None
        if manifest.get("schema_fingerprint") != fmt.fingerprint:
            raise fmt.error(
                f"stale {fmt.kind} schema (rebuild the {fmt.store}): {self.directory}"
            )
        self.manifest: Dict[str, object] = manifest
        self.shard_id = int(manifest["shard_id"])
        self.n_shards = int(manifest["n_shards"])
        self.config_digest = manifest.get("config_digest", "")
        self._sizes: Dict[str, int] = manifest.get("sizes", {})
        self.data_bytes = 0
        for name in fmt.data_files:
            path = self.directory / name
            try:
                actual = path.stat().st_size
            except OSError:
                raise fmt.error(f"missing {fmt.kind} column: {path}") from None
            expected = self._sizes.get(name)
            if expected is not None and actual != expected:
                raise fmt.error(
                    f"truncated {fmt.kind} column ({actual} bytes, manifest "
                    f"says {expected}): {path}"
                )
            self.data_bytes += actual
        self._mapped: List[MappedFile] = []

    def check_size(self, name: str, expected: int) -> None:
        """Refuse a data file whose pinned size is not *expected* bytes."""
        if self._sizes.get(name) != expected:
            raise self.FORMAT.error(
                f"inconsistent record geometry ({self._sizes.get(name)} bytes, "
                f"expected {expected}): {self.directory / name}"
            )

    def string_table(self, name: str, rows: int) -> List[str]:
        """Newline string table *name*, which must hold *rows* rows."""
        path = self.directory / name
        try:
            values = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise self.FORMAT.error(f"corrupt string table (not UTF-8): {path}") from None
        if len(values) != rows:
            raise self.FORMAT.error(
                f"string table holds {len(values)} rows, manifest says {rows}: {path}"
            )
        return values

    def blob_table(self, stem: str, count: int, what: str) -> BlobTable:
        """Blob table *stem*, mapped until the reader closes."""
        table = BlobTable(self, stem, count, what)
        self._mapped.append(table.file)
        return table

    def map_file(self, name: str) -> MappedFile:
        """Data file *name*, mapped until the reader closes."""
        mapped = MappedFile(self.directory / name)
        self._mapped.append(mapped)
        return mapped

    def mapped_bytes(self) -> int:
        """Bytes currently mmap-addressable (0 once closed)."""
        return sum(len(mapped) for mapped in self._mapped)

    def close(self) -> None:
        """Release the mapped files (safe to call more than once)."""
        for mapped in self._mapped:
            mapped.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ColumnarShardSet:
    """Base of a store's opened shard set: its readers in shard-id order."""

    def __init__(self, root: Union[str, Path], readers: List[ColumnarShardReader]):
        self.root = Path(root)
        self.readers = readers

    @property
    def config_digest(self) -> str:
        return self.readers[0].config_digest

    def close(self) -> None:
        for reader in self.readers:
            reader.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


ReaderT = TypeVar("ReaderT", bound=ColumnarShardReader)


def open_shard_set(root: Union[str, Path], reader_cls: Type[ReaderT]) -> List[ReaderT]:
    """Readers for every ``shard-*`` directory under *root*, by shard id.

    The shards must form the complete id set ``0..n_shards-1`` of one
    world (one config digest); on failure every reader opened so far
    is closed before the error propagates.
    """
    fmt = reader_cls.FORMAT
    root = Path(root)
    directories = sorted(path for path in root.glob("shard-*") if path.is_dir())
    if not directories:
        raise fmt.error(f"not a {fmt.store} (no shards): {root}")
    readers: List[ReaderT] = []
    try:
        for directory in directories:
            readers.append(reader_cls(directory))
        n_shards = readers[0].n_shards
        ids = sorted(reader.shard_id for reader in readers)
        if ids != list(range(n_shards)):
            raise fmt.error(
                f"incomplete {fmt.store} (shards {ids}, expected 0..{n_shards - 1}): {root}"
            )
        for reader in readers:
            if reader.n_shards != n_shards:
                raise fmt.error(
                    f"inconsistent shard geometry ({reader.n_shards} vs "
                    f"{n_shards}): {reader.directory}"
                )
            if reader.config_digest != readers[0].config_digest:
                raise fmt.error(
                    f"mixed config digests in {fmt.store} (shard written for "
                    f"a different world): {reader.directory}"
                )
    except BaseException:
        for reader in readers:
            reader.close()
        raise
    readers.sort(key=lambda reader: reader.shard_id)
    return readers
