"""Columnar wide-event log store: sink, writer/reader, validation."""

import json

import pytest

from repro.net.logstore import (
    LOGSTORE_SCHEMA_FINGERPRINT,
    LogShardReader,
    LogSink,
    LogStore,
    LogStoreError,
    ShardLogWriter,
    log_stream,
)


def _emit(sink, host, path="/", agent="GPTBot", outcome="served",
          category="art", month=0, status=200, ticks=0, robots=False,
          ua="Mozilla/5.0 (compatible; GPTBot/1.0)"):
    sink.emit(host, path, ua, agent, outcome, category, month, status,
              ticks, robots)


# -- sink streams & deltas ------------------------------------------------


def test_sink_orders_streams_by_label_not_emission_time():
    sink = LogSink()
    with log_stream("unit:b"):
        _emit(sink, "b.example", ticks=10)
    with log_stream("unit:a"):
        _emit(sink, "a.example", ticks=20)
    ordered = sink.ordered_events()
    assert [event[0] for event in ordered] == ["a.example", "b.example"]
    assert sink.stream_labels() == ["unit:a", "unit:b"]
    assert sink.event_count() == 2


def test_sink_nested_streams_restore_previous_label():
    sink = LogSink()
    with log_stream("outer"):
        _emit(sink, "one.example")
        with log_stream("outer/inner"):
            _emit(sink, "two.example")
        _emit(sink, "three.example")
    assert sink.stream_labels() == ["outer", "outer/inner"]
    outer = sink._streams["outer"]
    assert [event[0] for event in outer] == ["one.example", "three.example"]


def test_sink_marks_delta_merge_round_trip():
    parent = LogSink()
    with log_stream("shared"):
        _emit(parent, "pre.example")

    # A fork worker inherits pre-fork events; marks keep them out of
    # the shipped delta.
    worker = LogSink()
    worker.merge(parent.delta({}))  # simulate fork inheritance
    marks = worker.marks()
    with log_stream("shared"):
        _emit(worker, "work1.example")
    with log_stream("unit:x"):
        _emit(worker, "work2.example")
    delta = worker.delta(marks)
    assert set(delta) == {"shared", "unit:x"}
    assert [event[0] for event in delta["shared"]] == ["work1.example"]

    parent.merge(delta)
    assert [event[0] for event in parent.ordered_events()] == [
        "pre.example", "work1.example", "work2.example"
    ]


def test_sink_delta_empty_when_nothing_new():
    sink = LogSink()
    _emit(sink, "a.example")
    marks = sink.marks()
    assert sink.delta(marks) == {}


# -- round trip -----------------------------------------------------------


def test_commit_open_round_trip_preserves_every_field(tmp_path):
    sink = LogSink()
    with log_stream("unit"):
        _emit(sink, "site.example", path="/robots.txt", agent="CCBot",
              outcome="served", category="news", month=3, status=200,
              ticks=17, robots=True, ua="CCBot/2.0")
        _emit(sink, "site.example", path="/a?q=1", agent="CCBot",
              outcome="blocked_403", category="news", month=-1, status=403,
              ticks=42, robots=False, ua="CCBot/2.0")
    root = sink.commit(tmp_path / "logs", config_digest="deadbeef")

    with LogStore.open(root) as store:
        assert store.config_digest == "deadbeef"
        assert store.n_records == 2
        first, second = list(store.records())
    assert first.seq == 0 and second.seq == 1
    assert first.host == "site.example"
    assert first.path == "/robots.txt"
    assert first.user_agent == "CCBot/2.0"
    assert first.agent == "CCBot"
    assert first.outcome == "served"
    assert first.category == "news"
    assert (first.month, first.status, first.ticks) == (3, 200, 17)
    assert first.robots_fetch and not second.robots_fetch
    assert second.month == -1  # signed month survives the i16 column
    assert second.outcome == "blocked_403"


def test_commit_is_byte_identical_regardless_of_emission_order(tmp_path):
    def build(order):
        sink = LogSink()
        for label, host in order:
            with log_stream(label):
                _emit(sink, host, ticks=hash(host) % 1000)
        return sink

    a = build([("u:1", "x.example"), ("u:2", "y.example")])
    b = build([("u:2", "y.example"), ("u:1", "x.example")])
    a.commit(tmp_path / "a", config_digest="d", n_shards=2)
    b.commit(tmp_path / "b", config_digest="d", n_shards=2)

    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes()), rel


def test_commit_partitions_hosts_across_shards(tmp_path):
    sink = LogSink()
    with log_stream("unit"):
        for index in range(40):
            _emit(sink, f"site-{index}.example", ticks=index)
    sink.commit(tmp_path / "logs", n_shards=4)
    with LogStore.open(tmp_path / "logs") as store:
        assert store.n_shards == 4
        assert store.n_records == 40
        # The heap merge restores global sequence order across shards.
        seqs = [record.seq for record in store.records()]
        assert seqs == list(range(40))
        assert store.verify()["records"] == 40


def test_commit_writes_empty_shards_for_complete_id_set(tmp_path):
    sink = LogSink()
    with log_stream("unit"):
        _emit(sink, "only.example")
    sink.commit(tmp_path / "logs", n_shards=3)
    with LogStore.open(tmp_path / "logs") as store:
        assert store.n_shards == 3
        assert store.n_records == 1


def test_empty_sink_commit_yields_openable_empty_store(tmp_path):
    LogSink().commit(tmp_path / "logs")
    with LogStore.open(tmp_path / "logs") as store:
        assert store.n_records == 0
        assert list(store.records()) == []
        store.verify()


# -- validation & errors --------------------------------------------------


def _one_shard_store(tmp_path, **kwargs):
    sink = LogSink()
    with log_stream("unit"):
        _emit(sink, "site.example", ua="AgentOne/1.0")
        _emit(sink, "site.example", path="/two", ua="AgentTwo/2.0")
    return sink.commit(tmp_path / "logs", n_shards=1, **kwargs)


def test_open_missing_directory_is_one_line_error(tmp_path):
    with pytest.raises(LogStoreError, match="not a log store"):
        LogStore.open(tmp_path / "nope")


def test_shard_without_manifest_is_rejected(tmp_path):
    root = _one_shard_store(tmp_path)
    (root / "shard-0000" / "manifest.json").unlink()
    with pytest.raises(LogStoreError, match="no manifest"):
        LogStore.open(root)


def test_corrupt_manifest_is_rejected(tmp_path):
    root = _one_shard_store(tmp_path)
    (root / "shard-0000" / "manifest.json").write_text("{not json")
    with pytest.raises(LogStoreError, match="corrupt log-store manifest"):
        LogStore.open(root)


def test_stale_schema_fingerprint_is_rejected(tmp_path):
    root = _one_shard_store(tmp_path)
    manifest_path = root / "shard-0000" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema_fingerprint"] == LOGSTORE_SCHEMA_FINGERPRINT
    manifest["schema_fingerprint"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(LogStoreError, match="stale log-store schema"):
        LogStore.open(root)


def test_truncated_records_column_is_rejected(tmp_path):
    root = _one_shard_store(tmp_path)
    records = root / "shard-0000" / "records.bin"
    records.write_bytes(records.read_bytes()[:-4])
    with pytest.raises(LogStoreError, match="truncated log-store column"):
        LogStore.open(root)


def test_missing_column_file_is_rejected(tmp_path):
    root = _one_shard_store(tmp_path)
    (root / "shard-0000" / "hosts.txt").unlink()
    with pytest.raises(LogStoreError, match="missing log-store column"):
        LogStore.open(root)


def test_incomplete_shard_set_is_rejected(tmp_path):
    sink = LogSink()
    with log_stream("unit"):
        for index in range(10):
            _emit(sink, f"s{index}.example")
    root = sink.commit(tmp_path / "logs", n_shards=3)
    # Drop one shard wholesale: the remaining ids no longer cover 0..2.
    import shutil

    shutil.rmtree(root / "shard-0001")
    with pytest.raises(LogStoreError, match="incomplete log store"):
        LogStore.open(root)


def test_mixed_config_digests_are_rejected(tmp_path):
    root = tmp_path / "logs"
    for shard_id, digest in ((0, "aaaa"), (1, "bbbb")):
        writer = ShardLogWriter(root, shard_id, 2, config_digest=digest)
        writer.commit()
    with pytest.raises(LogStoreError, match="mixed config digests"):
        LogStore.open(root)


def test_verify_catches_ua_table_corruption(tmp_path):
    root = _one_shard_store(tmp_path)
    shard = root / "shard-0000"
    blob = bytearray((shard / "uas.bin").read_bytes())
    blob[0] ^= 0xFF
    (shard / "uas.bin").write_bytes(bytes(blob))
    # Same size, so open-time validation passes; verify() catches it
    # (as a digest mismatch, or as a corrupt table when the flipped
    # byte breaks UTF-8 decoding first).
    with LogStore.open(root) as store:
        with pytest.raises(LogStoreError, match="UA table"):
            store.verify()


def test_undecodable_ua_is_one_line(tmp_path):
    root = _one_shard_store(tmp_path)
    uas = root / "shard-0000" / "uas.bin"
    blob = bytearray(uas.read_bytes())
    blob[0] = 0xFF
    uas.write_bytes(bytes(blob))
    with LogStore.open(root) as store:
        with pytest.raises(LogStoreError, match="corrupt UA table .*uas.bin"):
            list(store.records())


def test_altered_ua_fails_its_digest(tmp_path):
    # Still valid UTF-8 and the same size: only the digest catches it.
    root = _one_shard_store(tmp_path)
    uas = root / "shard-0000" / "uas.bin"
    uas.write_bytes(uas.read_bytes().replace(b"AgentOne", b"AgentOnf"))
    with LogStore.open(root) as store:
        with pytest.raises(LogStoreError, match="UA table digest mismatch .*uas.bin"):
            list(store.records())


def test_reader_ua_text_and_columns(tmp_path):
    root = _one_shard_store(tmp_path)
    with LogShardReader(root / "shard-0000") as reader:
        assert reader.ua_text(0) == "AgentOne/1.0"
        assert reader.ua_text(1) == "AgentTwo/2.0"
        assert list(reader.column("seq")) == [0, 1]
        with pytest.raises(KeyError):
            reader.column("nope")


def test_interner_cap_is_enforced(tmp_path):
    writer = ShardLogWriter(tmp_path / "logs", 0, 1)
    event = ["h", "/", "ua", "agent", "served", "cat", 0, 200, 0, False]
    for index in range(256):
        event[4] = f"outcome-{index}"  # outcome refs are u8
        writer.add(index, tuple(event))
    event[4] = "outcome-overflow"
    with pytest.raises(LogStoreError, match="too many distinct outcomes"):
        writer.add(256, tuple(event))
