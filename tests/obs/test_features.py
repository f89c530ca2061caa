"""Per-(agent, host) traffic features from the wide-event store."""

import json
import math

import pytest

from repro.net.logstore import LogSink, LogStore, log_stream
from repro.obs.features import (
    FEATURES_SCHEMA_VERSION,
    extract_features,
    write_features,
)


def _store(tmp_path, rows):
    sink = LogSink()
    with log_stream("unit"):
        for (host, path, agent, status, ticks, robots, ua) in rows:
            sink.emit(host, path, ua, agent,
                      "served" if status < 400 else "blocked_403",
                      "art", 0, status, ticks, robots)
    sink.commit(tmp_path / "logs", config_digest="cfg", n_shards=1)
    return LogStore.open(tmp_path / "logs")


def test_gap_features_on_the_simulated_clock(tmp_path):
    rows = [
        ("h.example", "/a", "GPTBot", 200, 100, False, "ua"),
        ("h.example", "/b", "GPTBot", 200, 150, False, "ua"),
        ("h.example", "/c", "GPTBot", 200, 250, False, "ua"),
    ]
    with _store(tmp_path, rows) as store:
        features = extract_features(store)
    pair = features["GPTBot"]["h.example"]
    assert pair["requests"] == 3
    assert pair["gap_mean_ticks"] == pytest.approx(75.0)  # gaps 50, 100
    assert pair["gap_p95_ticks"] == 100
    # A single-request pair has no gaps.
    single = [("x.example", "/", "CCBot", 200, 5, False, "ua")]
    with _store(tmp_path / "s", single) as store:
        lone = extract_features(store)["CCBot"]["x.example"]
    assert lone["gap_mean_ticks"] == 0.0 and lone["gap_p95_ticks"] == 0


def test_path_entropy_distinguishes_broad_from_focused(tmp_path):
    focused = [("h.example", "/only", "A", 200, i, False, "ua")
               for i in range(4)]
    broad = [("h.example", f"/p{i}", "B", 200, i, False, "ua")
             for i in range(4)]
    with _store(tmp_path, focused + broad) as store:
        features = extract_features(store)
    assert features["A"]["h.example"]["path_entropy_bits"] == 0.0
    assert features["B"]["h.example"]["path_entropy_bits"] == pytest.approx(
        math.log2(4), abs=1e-6
    )


def test_robots_before_content_ratio(tmp_path):
    rows = [
        ("h.example", "/one", "A", 200, 0, False, "ua"),    # before robots
        ("h.example", "/robots.txt", "A", 200, 1, True, "ua"),
        ("h.example", "/two", "A", 200, 2, False, "ua"),    # after robots
        ("h.example", "/three", "A", 200, 3, False, "ua"),  # after robots
    ]
    with _store(tmp_path, rows) as store:
        pair = extract_features(store)["A"]["h.example"]
    assert pair["robots_before_content"] == pytest.approx(2 / 3)
    # Robots-only traffic has no content requests at all.
    robots_only = [("h.example", "/robots.txt", "B", 200, 0, True, "ua")]
    with _store(tmp_path / "r", robots_only) as store:
        pair = extract_features(store)["B"]["h.example"]
    assert pair["robots_before_content"] == 0.0


def test_error_ratio_and_ua_churn(tmp_path):
    rows = [
        ("h.example", "/a", "A", 200, 0, False, "ua-one"),
        ("h.example", "/b", "A", 403, 1, False, "ua-two"),
        ("h.example", "/c", "A", 404, 2, False, "ua-one"),
        ("h.example", "/d", "A", 200, 3, False, "ua-three"),
    ]
    with _store(tmp_path, rows) as store:
        pair = extract_features(store)["A"]["h.example"]
    assert pair["error_ratio"] == pytest.approx(0.5)
    assert pair["ua_churn"] == 3


def test_write_features_artifact_shape_and_determinism(tmp_path):
    rows = [
        ("b.example", "/x", "Z", 200, 0, False, "ua"),
        ("a.example", "/y", "A", 200, 1, False, "ua"),
    ]
    with _store(tmp_path, rows) as store:
        path_one = write_features(store, tmp_path / "one.json")
        path_two = write_features(store, tmp_path / "two.json")
    assert path_one.read_bytes() == path_two.read_bytes()
    payload = json.loads(path_one.read_text())
    assert payload["schema_version"] == FEATURES_SCHEMA_VERSION
    assert payload["config_digest"] == "cfg"
    assert payload["n_records"] == 2
    assert list(payload["features"]) == ["A", "Z"]  # agents sorted
    assert set(payload["features"]["A"]["a.example"]) == {
        "requests", "gap_mean_ticks", "gap_p95_ticks", "path_entropy_bits",
        "robots_before_content", "error_ratio", "ua_churn",
    }


class TestOutOfOrderTicks:
    """Clock regressions across stream boundaries must not corrupt gaps."""

    ROWS = [
        # Two streams' records interleaved on the global seq: ticks run
        # 100 -> 300 -> 50 -> 250 (two regressions would read as huge
        # "absolute" gaps; the ordered timeline is 50,100,250,300).
        ("h.example", "/a", "GPTBot", 200, 100, False, "ua"),
        ("h.example", "/b", "GPTBot", 200, 300, False, "ua"),
        ("h.example", "/c", "GPTBot", 200, 50, False, "ua"),
        ("h.example", "/d", "GPTBot", 200, 250, False, "ua"),
    ]

    def test_gaps_measured_on_the_ordered_timeline(self, tmp_path):
        with _store(tmp_path, self.ROWS) as store:
            pair = extract_features(store)["GPTBot"]["h.example"]
        # sorted ticks 50,100,250,300 -> gaps 50,150,50 -- NOT the
        # |consecutive| deltas 200,250,200 the abs-value bug produced.
        assert pair["gap_mean_ticks"] == pytest.approx((50 + 150 + 50) / 3)
        assert pair["gap_p95_ticks"] == 150

    def test_regressions_feed_the_counter(self, tmp_path):
        from repro.obs.metrics import shared_registry

        shared_registry().reset()
        try:
            with _store(tmp_path, self.ROWS) as store:
                extract_features(store)
            assert shared_registry().counter_value(
                "features.tick_regressions"
            ) == 1  # 300 -> 50 is the one backwards step
        finally:
            shared_registry().reset()

    def test_in_order_ticks_record_no_regressions(self, tmp_path):
        from repro.obs.metrics import shared_registry

        shared_registry().reset()
        try:
            rows = [("h.example", f"/p{i}", "A", 200, i * 10, False, "ua")
                    for i in range(5)]
            with _store(tmp_path, rows) as store:
                extract_features(store)
            assert shared_registry().counter_value(
                "features.tick_regressions"
            ) == 0
        finally:
            shared_registry().reset()


def test_write_features_creates_missing_parents_atomically(tmp_path):
    rows = [("h.example", "/", "A", 200, 0, False, "ua")]
    target = tmp_path / "deep" / "nested" / "FEATURES.json"
    with _store(tmp_path, rows) as store:
        written = write_features(store, target)
    assert written == target and target.is_file()
    # Atomic rename: no temp file of any name left behind.
    assert [p.name for p in target.parent.iterdir()] == [target.name]
    assert json.loads(target.read_text())["n_records"] == 1
