"""The columnar shard substrate: format pins and the one commit path.

:mod:`repro.columnar` owns the on-disk format both durable stores share
and :func:`~repro.columnar.atomic_write`, the only way the package
publishes a file.  These tests pin the committed bytes of a small
archive and log store against digests recorded before the substrate
was extracted, check that a failed or concurrent write never publishes
a torn file, and check that no other module writes files its own way.
"""

import ast
import hashlib
import os
import threading
from pathlib import Path

import pytest

from repro.columnar import atomic_write
from repro.net.logstore import LOGSTORE_SCHEMA_FINGERPRINT, LogSink, log_stream
from repro.web.archive import ARCHIVE_SCHEMA_FINGERPRINT
from tests.web.test_archive import _write_shards

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# -- format pins ------------------------------------------------------------

PINNED_ARCHIVE_FINGERPRINT = 'ae35b0bccdef3a770223a9dad870e69e396931283fe2198342abb41007b84d53'
PINNED_LOGSTORE_FINGERPRINT = '4836791d988d7ce29b80e3d0b815c42bcb5a93c1fd27bd5a33f816a042a90307'

#: sha256 of every file of ``_write_shards`` (two shards x two specs).
PINNED_ARCHIVE = {
    "shard-0000/bodies.bin": "28193bdd982586677464a248a320aeffeb73097c7666d21b553cbb34d4a707b3",
    "shard-0000/bodies.idx": "fe64368e536d470e8393feb9c026144b2b38aca648884ad5039aa7aa1246b4a4",
    "shard-0000/bodies.sha": "55bf48b705955e7201b6529212b3c5189da6a35024d7c779b4e19bbd4266e7c0",
    "shard-0000/domains.txt": "d3fbde5ab39fef20cca5cd40fb9be1920ee9f9527902f58708b41541cc65f4fc",
    "shard-0000/manifest.json": "11177dbceaf95fe8019ac49f4ba5a16527bdb4b484e9ba6b62adf1c919a7549c",
    "shard-0000/ranks.bin": "ad5dc1478de06a4c2728ea528bd9361a4b945e92a414bf4d180cedaaeaa5f4cc",
    "shard-0000/records.bin": "5f600facbff742c60e27fac49d766e60b093efcec5f571cff5f02931cc0d3243",
    "shard-0000/tiers.bin": "fb50dc0717ff266cf9baf82b1ce7a1c2ef6d9247859680b11a19fb7077f5f222",
    "shard-0001/bodies.bin": "16ceb5ee3e0dc13aa9adf31a3ebbe45a1d965b8c2b9f72eaf84e5911e140ed95",
    "shard-0001/bodies.idx": "c62ae518127bc10178301668aaa15885b6304986e840ca05ad9a0748ef6b9eae",
    "shard-0001/bodies.sha": "1d58991ad2f55225c3a439e152bee3636fa14a96e166e7a73ac8f90727bb5a80",
    "shard-0001/domains.txt": "90330d0251d85f763c71d17261590a7584ebf03c5b7efbd66ef372124cf38f26",
    "shard-0001/manifest.json": "db03cf71eb4dca11b83e99c4c1d1e5c3ccb7718491a1d33a1842deea0ff9156e",
    "shard-0001/ranks.bin": "50ac472466c102b9f97990af92e6c7acc1e76efbfd9b10904c4e2cfd533b0ca8",
    "shard-0001/records.bin": "09506fe668c753f4c6a93a4bf9c06894841264fb1c0c828e32da646db22c31ee",
    "shard-0001/tiers.bin": "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
}

#: sha256 of every file of :func:`_write_log_store` (three streams, two shards).
PINNED_LOGSTORE = {
    "shard-0000/agents.txt": "edfcdb6cde4c7a1c4e3a45473a717ab4680fedb45b4de822e935e2d7425e45c2",
    "shard-0000/categories.txt": "e0a4e4d9746517c5c0252c10465c84c56aaa3b1094870231da81f05f63c9504e",
    "shard-0000/hosts.txt": "ff4071a18cf2aa9497c6f35be99ce46f2cffb468e77d5e24d424742ae030b2af",
    "shard-0000/manifest.json": "9f111c44829b539b4e897b24ae8f881eb3c2c0dcb569b79dd7d80a50201dcb5d",
    "shard-0000/outcomes.txt": "af2ad8efea715c31d9ecf057092025fae54ee97e9cd8541dcd98b65b96c3a67e",
    "shard-0000/paths.txt": "910f5801c93b7e016936ab79fef52a1be876fa416a7cde37a70c1f065ac44d0b",
    "shard-0000/records.bin": "4cb346ae77e9e44e391c8b02a8741f30a0c3a4f64d81330d03823ec064512e1f",
    "shard-0000/uas.bin": "6629bf4f22ea6116ce8aa65556b6d3caf6845be53479b6cba0d3a64fea9c4100",
    "shard-0000/uas.idx": "09342d53ef976bc2d0516793077b6c5d1e80055631a4e90d7f1a9400ca7e1bb3",
    "shard-0000/uas.sha": "482da4db7e928db6c8c7b038ed6d73452af7cff7679fe26d64e26a90e7baf0d6",
    "shard-0001/agents.txt": "f1961a88ef1cfe6055cb6a9b3c6e129c22e3aeec364d679ef047a0160f77e870",
    "shard-0001/categories.txt": "e0a4e4d9746517c5c0252c10465c84c56aaa3b1094870231da81f05f63c9504e",
    "shard-0001/hosts.txt": "8543219a446ac4d442628119f250f2901f9b3c0c939b0998a57b060db5b253cf",
    "shard-0001/manifest.json": "13870617da2f11a98039c5e6571665338fc8c8d6e82c7632fd0675000e21da9d",
    "shard-0001/outcomes.txt": "af2ad8efea715c31d9ecf057092025fae54ee97e9cd8541dcd98b65b96c3a67e",
    "shard-0001/paths.txt": "a80f6bb771431effe8487a56e07c8f0e76ace539bdcdeba463255208012beef1",
    "shard-0001/records.bin": "927449c6eac556cf74a8becce3fb6ffc79da51ff99844163a723dfca3e79315c",
    "shard-0001/uas.bin": "56106333ad8a7607e5d895994c2ae7693e751ffb4f6ee32e66029066b51b8f0a",
    "shard-0001/uas.idx": "7e0ebd9c277656ccd3ee9ff7f211be87d118284a1d46da0065f902cbbaa137bf",
    "shard-0001/uas.sha": "ce3cb1b0c265058a1c72702121a1c95c975bff927b11a0a0cbdcc67d1088c3f7",
}


def _tree(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _write_log_store(root):
    sink = LogSink()
    for label, host, ua, robots in (
        ("unit:b", "b.example", "CCBot/2.0", True),
        ("unit:a", "a.example", "Mozilla/5.0 (compatible; GPTBot/1.0)", False),
        ("unit:c", "c.example", "Bytespider/1.0", False),
    ):
        agent = ua.split("/")[0]
        with log_stream(label):
            sink.emit(host, "/robots.txt" if robots else "/art", ua, agent,
                      "served", "art", 1, 200, 7, robots)
            sink.emit(host, "/gallery", ua, agent, "blocked_403", "art", -1,
                      403, 9, False)
    return sink.commit(root, config_digest="cfg", n_shards=2)


def test_schema_fingerprints_are_pinned():
    assert ARCHIVE_SCHEMA_FINGERPRINT == PINNED_ARCHIVE_FINGERPRINT
    assert LOGSTORE_SCHEMA_FINGERPRINT == PINNED_LOGSTORE_FINGERPRINT


def test_archive_bytes_are_pinned(tmp_path):
    assert _tree(_write_shards(tmp_path / "arch")) == PINNED_ARCHIVE


def test_log_store_bytes_are_pinned(tmp_path):
    assert _tree(_write_log_store(tmp_path / "logs")) == PINNED_LOGSTORE


# -- atomic_write -----------------------------------------------------------


def test_atomic_write_publishes_text_and_bytes(tmp_path):
    target = tmp_path / "artifact.json"
    assert atomic_write(target, "caf\u00e9\n") == target
    assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
    atomic_write(str(target), b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_write_failing_mid_payload_keeps_previous_bytes(tmp_path, monkeypatch):
    target = tmp_path / "meta.json"
    atomic_write(target, "previous\n")
    real_write = os.write

    def short_then_full_disk(fd, data):
        if len(data) > 4:
            return real_write(fd, bytes(data[:4]))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", short_then_full_disk)
    with pytest.raises(OSError, match="No space left"):
        atomic_write(target, "replacement payload\n")
    monkeypatch.undo()
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]


def test_concurrent_writers_never_publish_a_torn_file(tmp_path):
    target = tmp_path / "experiments.json"
    payloads = [bytes([65 + n]) * 200_000 for n in range(6)]
    errors = []

    def writer(payload):
        try:
            for _ in range(10):
                atomic_write(target, payload)
                assert target.read_bytes() in payloads
        except Exception as exc:  # reported below with the thread's payload
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["experiments.json"]


# -- one commit path --------------------------------------------------------

_WRITE_METHODS = {"write_text", "write_bytes"}


def _is_write_mode(node):
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and set(node.value) <= set("rwxabt+")
        and bool(set(node.value) & set("wx"))
    )


def _direct_writes(tree):
    """Line numbers of calls that write a file without atomic_write."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in _WRITE_METHODS:
            yield node.lineno
        elif (
            name == "replace"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            yield node.lineno
        elif name == "open":
            modes = node.args[:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(_is_write_mode(mode) for mode in modes):
                yield node.lineno


def test_only_columnar_writes_files():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "columnar.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(f"{path.relative_to(SRC)}:{line}" for line in _direct_writes(tree))
    assert offenders == []


def test_commit_path_scan_catches_each_pattern():
    source = """
import os
os.replace(a, b)
p.write_text("x")
p.write_bytes(b"x")
open(p, "w")
open(p, mode="wb")
p.open("x")
open(p, "a")
open(p)
open(p, "rb")
"""
    assert sorted(_direct_writes(ast.parse(source))) == [3, 4, 5, 6, 7, 8]
