"""The one fan-out: mode resolution, cross-mode identity, one pool owner.

:mod:`repro.fanout` is the only place the package starts a worker
pool.  These tests pin its mode policy (``auto`` falls back to serial,
unknown names fail loudly at every entry point), check that a cold
battery -- snapshot collection included -- leaves byte-identical
artifacts whether it runs serially or on fork pools, and scan the
source so no other module grows a pool or a telemetry-shipping path of
its own.
"""

import ast
import json
import multiprocessing
from collections import Counter
from pathlib import Path

import pytest

from repro import fanout
from repro.fanout import resolve_mode
from repro.measure.longitudinal import collect_shard_archives, collect_snapshots
from repro.obs.metrics import shared_registry
from repro.obs.series import shared_series
from repro.obs.trace import shared_tracer
from repro.report.orchestrator import run_all, run_strata
from repro.web.population import PopulationConfig, build_web_population
from repro.web.worldstore import WorldStore

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SMALL = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
)

#: Large enough that the automatic shard count is 2 (625 stable sites,
#: 512 per shard), so ``collect_workers=2`` really forks the crawl.
TWO_SHARDS = PopulationConfig(
    universe_size=1200, list_size=800, top5k_cut=40, audit_size=90, seed=7
)


# -- mode resolution --------------------------------------------------------


class TestResolveMode:
    def test_one_worker_is_serial(self):
        for mode in ("auto", "serial", "process"):
            assert resolve_mode(mode, 1) == "serial"

    def test_named_modes(self):
        assert resolve_mode("serial", 4) == "serial"
        assert resolve_mode("process", 4) == "process"

    @pytest.mark.parametrize("mode", ["thread", "bogus", "", "Process"])
    def test_unknown_mode_is_a_one_line_error(self, mode):
        with pytest.raises(ValueError, match="unknown execution mode") as info:
            resolve_mode(mode, 4)
        assert "\n" not in str(info.value)

    def test_auto_forks_with_cores_and_fork(self, monkeypatch):
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            fanout.multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        assert resolve_mode("auto", 2) == "process"

    def test_auto_on_one_cpu_is_serial(self, monkeypatch):
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(
            fanout.multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        assert resolve_mode("auto", 4) == "serial"

    def test_auto_without_fork_is_serial(self, monkeypatch):
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            fanout.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert resolve_mode("auto", 4) == "serial"


class TestUnknownModeAtEveryEntryPoint:
    """``mode`` is checked before any work starts, whatever the sizes."""

    @pytest.fixture(scope="class")
    def population(self):
        return build_web_population(SMALL)

    def test_run_all(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            run_all(SMALL, workers=2, experiments=["table1"], store=WorldStore(),
                    mode="bogus")

    def test_run_strata(self, tmp_path):
        with pytest.raises(ValueError, match="unknown execution mode"):
            run_strata(["top-1k"], config=SMALL, workers=2, shards=2,
                       mode="bogus", archive_dir=tmp_path, store=WorldStore())
        assert not any(tmp_path.iterdir())

    def test_build_web_population(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            build_web_population(SMALL, workers=2, mode="bogus")

    def test_collect_snapshots(self, population):
        with pytest.raises(ValueError, match="unknown execution mode"):
            collect_snapshots(population, workers=2, shards=2, mode="bogus")

    def test_collect_shard_archives(self, population, tmp_path):
        with pytest.raises(ValueError, match="unknown execution mode"):
            collect_shard_archives(population, tmp_path / "archive", shards=2,
                                   workers=2, mode="thread")
        assert not (tmp_path / "archive").exists()


# -- cross-mode identity, collection included --------------------------------


def _files(root: Path):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _cold_run(tmp_path: Path, label: str, mode: str, workers: int):
    shared_registry().reset()
    shared_series().reset()
    shared_tracer().reset()
    telemetry = tmp_path / label / "telemetry"
    logs = tmp_path / label / "logs"
    report = run_all(
        TWO_SHARDS, workers=workers, collect_workers=workers,
        experiments=["figure2", "sec62"], store=WorldStore(), mode=mode,
        telemetry_dir=telemetry, log_dir=logs,
    )
    counters = Counter(
        json.loads((telemetry / "METRICS.json").read_text())["counters"]
    )
    trace = [
        json.loads(line)
        for line in (telemetry / "TRACE.jsonl").read_text().splitlines()
    ]
    return report, telemetry, logs, counters, trace


def _span_shape(records):
    names = {record["span_id"]: record["name"] for record in records}
    return Counter(
        (record["name"], names.get(record["parent_id"], "")) for record in records
    )


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_cold_battery_artifacts_identical_serial_and_fork(tmp_path):
    serial, s_tele, s_logs, s_counters, s_trace = _cold_run(
        tmp_path, "serial", "serial", 1
    )
    forked, f_tele, f_logs, f_counters, f_trace = _cold_run(
        tmp_path, "process", "process", 2
    )
    assert (serial.mode, forked.mode) == ("serial", "process")
    assert [r.text for r in forked.results] == [r.text for r in serial.results]
    assert _files(f_logs) == _files(s_logs)
    for name in ("FEATURES.json", "BEHAVIORAL.json"):
        assert (f_tele / name).read_bytes() == (s_tele / name).read_bytes()
    assert +s_counters and +f_counters == +s_counters
    for trace in (s_trace, f_trace):
        ids = [record["span_id"] for record in trace]
        assert len(ids) == len(set(ids))
    # Both runs crawled two shards, the second on a fork pool, and the
    # span trees agree in shape.
    crawl_modes = [
        [r["attributes"]["mode"] for r in trace if r["name"] == "collect_snapshots"]
        for trace in (s_trace, f_trace)
    ]
    assert crawl_modes == [["serial"], ["process"]]
    assert _span_shape(s_trace)[("collect_shard:0001", "collect_snapshots")] == 1
    assert _span_shape(f_trace) == _span_shape(s_trace)


def test_serial_run_crawls_serially_with_collect_workers(tmp_path):
    shared_tracer().reset()
    report = run_all(
        TWO_SHARDS, workers=1, collect_workers=2, experiments=["figure2"],
        store=WorldStore(), mode="serial", telemetry_dir=tmp_path,
    )
    trace = [
        json.loads(line)
        for line in (tmp_path / "TRACE.jsonl").read_text().splitlines()
    ]
    crawls = [r["attributes"] for r in trace if r["name"] == "collect_snapshots"]
    assert report.mode == "serial"
    assert [(c["mode"], c["shards"]) for c in crawls] == [("serial", 2)]


# -- one pool owner ----------------------------------------------------------

#: Names whose import or use means a module runs a pool of its own.
_POOL_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"}
#: Calls that make up the worker-telemetry shipping protocol.
_SHIPPING_CALLS = {"snapshot_delta", "records_since", "delta", "merge"}
#: Uses of those calls that are not worker shipping, per module: the
#: live scraper diffs successive scrapes, and the orchestrator reads
#: back its own run's span records for the report.
_NOT_SHIPPING = {
    "obs/live.py": {"snapshot_delta"},
    "report/orchestrator.py": {"records_since"},
}


def _pool_and_shipping_uses(tree):
    """``(line, name)`` of pool imports/uses and shipping calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _POOL_NAMES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in _POOL_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id == "heapq":
                    continue  # heapq.merge is a sorted-stream merge
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in _SHIPPING_CALLS:
                yield node.lineno, name


def test_only_the_fanout_module_runs_pools_or_ships_telemetry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "fanout.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = _NOT_SHIPPING.get(relative, set())
        offenders.extend(
            f"{relative}:{line} {name}"
            for line, name in _pool_and_shipping_uses(tree)
            if name not in allowed
        )
    assert offenders == []


def test_pool_scan_catches_each_pattern():
    source = """
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor as Pool2
pool = concurrent.futures.ThreadPoolExecutor(2)
multiprocessing.get_context("fork").Pool(2)
delta = snapshot_delta(after, before)
spans = tracer.records_since(mark)
events = sink.delta(marks)
registry.merge(delta)
heapq.merge(a, b)
shared_series().merge(other)
"""
    found = sorted(line for line, _ in _pool_and_shipping_uses(ast.parse(source)))
    assert found == [2, 3, 4, 5, 6, 7, 8, 9, 11]
