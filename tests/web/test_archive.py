"""Tests for the columnar per-shard snapshot archive.

The archive's contract: write -> reopen -> aggregate is byte-identical
to the in-memory crawl, damage surfaces as a one-line
:class:`~repro.web.archive.ArchiveError` (never a traceback from the
struct/mmap plumbing), and per-body facts stored next to the body table
are interchangeable with the incremental store's ``bodies.json``.
"""

import json

import pytest

from repro.crawlers.commoncrawl import ErrorBudget, SiteRecord, SnapshotSpec
from repro.web.archive import (
    ArchiveBodyStore,
    ArchiveError,
    ArchiveSet,
    ShardReader,
    ShardWriter,
    merge_error_budgets,
    shard_dir_name,
)

SPECS = (
    SnapshotSpec("2022-05", "Sep/Oct 2022", 0),
    SnapshotSpec("2023-06", "Mar/Apr 2023", 6),
)

ROBOTS_A = "User-agent: GPTBot\nDisallow: /\n"
ROBOTS_B = "User-agent: *\nAllow: /\n"


def _write_shards(root, n_shards=2):
    """Two shards x two specs with shared bodies, errors, and a 404."""
    per_shard = [
        ["a.example", "www.a.example", "b.example"],
        ["c.example", "d.example"],
    ][:n_shards]
    for shard_id, domains in enumerate(per_shard):
        writer = ShardWriter(root, shard_id, n_shards, config_digest="cfg")
        writer.set_sites(
            domains,
            list(range(shard_id * 10, shard_id * 10 + len(domains))),
            ["top5k"] + ["other"] * (len(domains) - 1),
        )
        for spec_index, spec in enumerate(SPECS):
            records = {}
            for index, domain in enumerate(domains):
                if index == 0 and spec_index == 1:
                    records[domain] = SiteRecord(domain, 0, None, "conn reset")
                elif index == 1:
                    records[domain] = SiteRecord(domain, 404)
                else:
                    body = ROBOTS_A if shard_id == 0 else ROBOTS_B
                    records[domain] = SiteRecord(domain, 200, body)
            writer.add_snapshot(
                spec,
                records,
                error_budget=ErrorBudget(n_sites=len(domains)),
            )
        writer.commit()
    return root


@pytest.fixture()
def archive_root(tmp_path):
    return _write_shards(tmp_path / "arch")


class TestRoundTrip:
    def test_records_survive_reopen(self, archive_root):
        with ArchiveSet.open(archive_root) as archive:
            snapshots = archive.snapshots()
        assert [s.spec for s in snapshots] == list(SPECS)
        first = snapshots[0].records
        assert first["a.example"] == SiteRecord("a.example", 200, ROBOTS_A)
        assert first["www.a.example"] == SiteRecord("www.a.example", 404)
        assert first["c.example"] == SiteRecord("c.example", 200, ROBOTS_B)
        errored = snapshots[1].records["a.example"]
        assert errored.status == 0 and errored.error == "conn reset"

    def test_shared_bodies_stored_once(self, archive_root):
        reader = ShardReader(archive_root / shard_dir_name(0))
        refs = {
            reader.body_refs(i)[reader.domains.index("a.example")]
            for i in range(len(SPECS))
        }
        # Snapshot 0's 200 body is interned; snapshot 1 errored (ref -1).
        assert reader.n_bodies == 1
        assert refs == {0, -1}
        reader.close()

    def test_budgets_merge_across_shards(self, archive_root):
        with ArchiveSet.open(archive_root) as archive:
            budget = archive.snapshots()[0].error_budget
        assert budget == ErrorBudget(n_sites=5)
        assert merge_error_budgets([None, None]) is None
        assert merge_error_budgets(
            [ErrorBudget(retry_passes=1), ErrorBudget(retry_passes=2)]
        ).retry_passes == 2

    def test_stable_domains_in_global_rank_order(self, archive_root):
        with ArchiveSet.open(archive_root) as archive:
            domains = archive.stable_domains()
        assert domains == [
            "a.example", "www.a.example", "b.example", "c.example", "d.example"
        ]


class TestDamage:
    def test_missing_root_is_one_line(self, tmp_path):
        with pytest.raises(ArchiveError, match="not a snapshot archive"):
            ArchiveSet.open(tmp_path / "nowhere")

    def test_truncated_column_is_one_line(self, archive_root):
        records = archive_root / shard_dir_name(0) / "records.bin"
        records.write_bytes(records.read_bytes()[:-4])
        with pytest.raises(ArchiveError, match="truncated archive column"):
            ArchiveSet.open(archive_root)

    def test_corrupt_manifest_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(1) / "manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArchiveError, match="corrupt archive manifest"):
            ArchiveSet.open(archive_root)

    def test_missing_shard_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(1) / "manifest.json"
        manifest.unlink()
        with pytest.raises(ArchiveError, match="no manifest"):
            ArchiveSet.open(archive_root)

    def test_stale_schema_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(0) / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["schema_fingerprint"] = "0" * 64
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArchiveError, match="stale archive schema"):
            ArchiveSet.open(archive_root)

    def test_mixed_worlds_refused(self, tmp_path):
        root = tmp_path / "arch"
        _write_shards(root)
        manifest = root / shard_dir_name(1) / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config_digest"] = "other-world"
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArchiveError, match="different world"):
            ArchiveSet.open(root)

    def test_undecodable_body_is_one_line(self, archive_root):
        bodies = archive_root / shard_dir_name(0) / "bodies.bin"
        blob = bytearray(bodies.read_bytes())
        blob[0] = 0xFF
        bodies.write_bytes(bytes(blob))
        with ArchiveSet.open(archive_root) as archive:
            with pytest.raises(ArchiveError, match="corrupt body table .*bodies.bin"):
                archive.snapshots()

    def test_altered_body_fails_its_digest(self, archive_root):
        # Still valid UTF-8 and the same size: only the digest catches it.
        bodies = archive_root / shard_dir_name(0) / "bodies.bin"
        bodies.write_bytes(bodies.read_bytes().replace(b"GPTBot", b"XPTBot"))
        with ArchiveSet.open(archive_root) as archive:
            with pytest.raises(ArchiveError, match="body table digest mismatch .*bodies.bin"):
                archive.snapshots()

    def test_stray_file_beside_shards_is_ignored(self, archive_root):
        (archive_root / "shard-notes.txt").write_text("notes", encoding="utf-8")
        with ArchiveSet.open(archive_root) as archive:
            assert [reader.shard_id for reader in archive.readers] == [0, 1]

    def test_interrupted_write_never_commits(self, tmp_path):
        # No manifest -> the shard directory is not a valid archive,
        # regardless of which data blobs made it to disk.
        root = tmp_path / "arch"
        writer = ShardWriter(root, 0, 1)
        writer.set_sites(["a.example"], [0], ["other"])
        writer.add_snapshot(SPECS[0], {"a.example": SiteRecord("a.example", 404)})
        # commit() never called
        with pytest.raises(ArchiveError):
            ArchiveSet.open(root)


class TestBodyStore:
    def test_classification_round_trip(self, tmp_path):
        store = ArchiveBodyStore(tmp_path)
        digest = "d" * 64
        assert store.get_classification(digest, "GPTBot", True) is None
        from repro.core.classify import classify

        verdict = classify(ROBOTS_A, "GPTBot", require_explicit=True)
        store.put_classification(digest, "GPTBot", True, verdict)
        store.flush()
        again = ArchiveBodyStore(tmp_path)
        got = again.get_classification(digest, "GPTBot", True)
        assert got.level == verdict.level
        assert got.explicit == verdict.explicit
        assert got.explicit_allow == verdict.explicit_allow

    def test_flag_round_trip(self, tmp_path):
        store = ArchiveBodyStore(tmp_path)
        digest = "e" * 64
        assert store.get_flag("full_any", digest, "k") is None
        store.put_flag("full_any", digest, "k", True)
        store.flush()
        assert ArchiveBodyStore(tmp_path).get_flag("full_any", digest, "k") is True

    def test_ingest_from_incremental_store(self, tmp_path):
        from repro.core.classify import classify
        from repro.measure.incremental import IncrementalStore

        inc = IncrementalStore(tmp_path / "cache")
        digest = "f" * 64
        inc.put_classification(
            digest, "GPTBot", True, classify(ROBOTS_A, "GPTBot", require_explicit=True)
        )
        inc.flush()
        store = ArchiveBodyStore(tmp_path / "arch")
        adopted = store.ingest_incremental(tmp_path / "cache")
        assert adopted >= 1
        assert store.get_classification(digest, "GPTBot", True) is not None
        # Re-ingest adopts nothing new.
        assert store.ingest_incremental(tmp_path / "cache") == 0

    def test_satisfies_policy_cache_store_interface(self, tmp_path):
        from repro.measure.cache import PolicyCache

        cache = PolicyCache()
        cache.attach_store(ArchiveBodyStore(tmp_path))
        assert cache.fully_disallows_any(ROBOTS_A, ["GPTBot"], require_explicit=True)
        # A fresh cache over the same backend reuses the persisted fact.
        fresh = PolicyCache()
        fresh.attach_store(ArchiveBodyStore(tmp_path))
        assert fresh.fully_disallows_any(ROBOTS_A, ["GPTBot"], require_explicit=True)


class TestProbes:
    def test_reader_probe_reports_residency(self, archive_root):
        reader = ShardReader(archive_root / shard_dir_name(0))
        probe = reader.probe()
        assert probe["data_bytes"] > 0
        assert probe["mapped_bytes"] > 0
        assert probe["body_cache_entries"] == 0  # nothing decoded yet
        reader.body_text(0)
        probe = reader.probe()
        assert probe["body_cache_entries"] == 1
        assert probe["body_cache_chars"] == len(ROBOTS_A)
        reader.close()
        assert reader.probe()["mapped_bytes"] == 0

    def test_publish_probes_gauges_per_shard(self, archive_root):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with ArchiveSet.open(archive_root) as archive:
            archive.publish_probes(registry, stratum="top-1k")
        from repro.obs.metrics import render_key

        gauges = registry.snapshot()["gauges"]
        rendered = {render_key(key): value for key, value in gauges.items()}
        assert rendered["archive.open_shards{stratum=top-1k}"] == 2
        for shard in ("0", "1"):
            key = f"archive.data_bytes{{shard={shard},stratum=top-1k}}"
            assert rendered[key] > 0
        assert any(
            key.startswith("archive.mapped_bytes{") and value > 0
            for key, value in rendered.items()
        )
