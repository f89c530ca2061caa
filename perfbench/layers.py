"""Per-layer metrics of ``repro``, from its public entry points.

:data:`INSTRUMENTS` names the functions and methods the traced run
wraps, one span name each; several entry points may share a name.
:data:`METRICS` lists every per-layer metric with its unit, in report
order; each is derived in :meth:`LayerTrace.metrics` from the spans,
from a few probes on return values, from the program's own
:class:`~repro.report.orchestrator.RunReport`, or from the bytes the
workload left on disk.  The README maps each metric to the end-to-end
metric it should move.

Only the calling process is traced: in fork mode the workers' calls
are not seen, so the experiment-side layers are read from the serial
workloads.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from oracle import BATTERY_KEYS
from tracing import Recorder, patch_function, patch_method, summarize
from workloads import ARCHIVE_DIR, LOG_DIR, STORE_DIR, tree_bytes

#: ``(span name, module, qualified name, probe)``.  Probes: ``body``
#: digests the first argument, ``found`` counts non-None results as
#: hits, ``hit`` counts ``("hit", ...)`` results, ``instance`` keeps
#: the constructed object.
INSTRUMENTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("core.parse", "repro.core.parser", "parse", "body"),
    ("core.rules_for", "repro.core.policy", "RobotsPolicy.rules_for", None),
    ("core.extract_product_token", "repro.core.policy", "extract_product_token", None),
    ("core.normalize_path", "repro.core.matcher", "normalize_path", None),
    ("core.classify", "repro.core.classify", "classify", None),
    ("core.legacy", "repro.core.legacy", "LegacyPolicy.__init__", None),
    ("core.legacy", "repro.core.legacy", "LegacyPolicy.rules_for", None),
    ("core.legacy", "repro.core.legacy", "LegacyPolicy.verdict", None),
    ("core.legacy", "repro.core.legacy", "LegacyPolicy.is_allowed", None),
    ("core.legacy", "repro.core.legacy", "LegacyPolicy.has_explicit_group", None),
    ("web.population.build", "repro.web.population", "build_web_population", None),
    ("web.archive.write", "repro.web.archive", "ShardWriter.commit", None),
    ("web.archive.open", "repro.web.archive", "ArchiveSet.open", None),
    ("web.body_store.get", "repro.web.archive", "ArchiveBodyStore.get_classification", "found"),
    ("web.body_store.get", "repro.web.archive", "ArchiveBodyStore.get_flag", "found"),
    ("crawlers.snapshot", "repro.crawlers.commoncrawl", "SnapshotCrawler.snapshot", None),
    ("measure.collect", "repro.measure.longitudinal", "collect_snapshots", None),
    ("measure.collect", "repro.measure.longitudinal", "collect_shard_archives", None),
    ("measure.aggregate", "repro.measure.longitudinal", "full_disallow_trend", None),
    ("measure.aggregate", "repro.measure.longitudinal", "per_agent_trend", None),
    ("measure.aggregate", "repro.measure.longitudinal", "allow_and_removal_trend", None),
    ("measure.aggregate", "repro.measure.longitudinal", "first_allow_table", None),
    ("measure.aggregate", "repro.measure.longitudinal", "snapshot_coverage_table", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_analysis_domains", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_full_disallow_trend", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_per_agent_trend", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_allow_and_removal_trend", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_first_allow_table", None),
    ("measure.streaming", "repro.measure.streaming", "streaming_coverage_table", None),
    ("measure.cache.init", "repro.measure.cache", "PolicyCache.__init__", "instance"),
    ("measure.artists", "repro.measure.artists", "measure_artist_sites", None),
    ("measure.incremental.lookup", "repro.measure.incremental", "IncrementalStore.__init__", None),
    ("measure.incremental.lookup", "repro.measure.incremental", "IncrementalStore.lookup_experiment", "hit"),
    ("measure.incremental.lookup", "repro.measure.incremental", "IncrementalStore.get_classification", None),
    ("measure.incremental.lookup", "repro.measure.incremental", "IncrementalStore.get_flag", None),
    ("measure.incremental.flush", "repro.measure.incremental", "IncrementalStore.flush", None),
    ("net.request", "repro.net.transport", "Network.request", None),
    ("net.logstore.emit", "repro.net.logstore", "LogSink.emit", None),
    ("net.logstore.commit", "repro.net.logstore", "LogSink.commit", None),
    ("proxy.handle", "repro.proxy.reverse_proxy", "ReverseProxy.handle", None),
    ("proxy.handle", "repro.proxy.cloudflare", "CloudflareProxy.handle", None),
    ("proxy.behavioral.assess", "repro.proxy.behavioral", "BehavioralPolicy.assess", None),
    ("obs.export", "repro.report.orchestrator", "RunReport.export_telemetry", None),
    ("obs.features", "repro.obs.features", "write_features", None),
    ("obs.verdicts", "repro.proxy.behavioral", "write_verdicts", None),
    ("survey.respondents", "repro.survey.respondents", "generate_respondents", None),
    ("survey.chi_square", "repro.survey.crosstabs", "chi_square", None),
    ("report.merge", "repro.obs.metrics", "MetricsRegistry.merge", None),
    ("report.merge", "repro.obs.series", "SeriesRegistry.merge", None),
    ("report.merge", "repro.obs.trace", "Tracer.absorb", None),
    ("report.merge", "repro.net.logstore", "LogSink.merge", None),
)

#: Every per-layer metric and its unit, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.parse.calls", "count"),
    ("core.parse.unique_ratio", "ratio"),
    ("core.parse.self_s", "s"),
    ("core.policy_cache.hit_ratio", "ratio"),
    ("core.rules_for.calls", "count"),
    ("core.rules_for.self_s", "s"),
    ("core.normalize_path.calls", "count"),
    ("core.normalize_path.self_s", "s"),
    ("core.classify.calls", "count"),
    ("core.classify.self_s", "s"),
    ("core.legacy.self_s", "s"),
    ("web.population.build_s", "s"),
    ("crawlers.snapshot.calls", "count"),
    ("crawlers.snapshot.self_s", "s"),
    ("measure.collect.self_s", "s"),
    ("report.world_build_s", "s"),
    ("web.archive.write_s", "s"),
    ("web.archive.bytes", "bytes"),
    ("web.archive.open_s", "s"),
    ("web.body_store.hit_ratio", "ratio"),
    ("measure.streaming.self_s", "s"),
    ("measure.aggregate.self_s", "s"),
    ("measure.cache.hit_ratio", "ratio"),
    ("measure.artists.self_s", "s"),
    ("measure.incremental.lookup_s", "s"),
    ("measure.incremental.flush_s", "s"),
    ("measure.incremental.hits", "count"),
    ("measure.incremental.bytes", "bytes"),
    ("net.request.calls", "count"),
    ("net.request.self_s", "s"),
    ("proxy.handle.calls", "count"),
    ("proxy.handle.self_s", "s"),
    ("proxy.behavioral.assess.calls", "count"),
    ("net.logstore.emit.calls", "count"),
    ("net.logstore.emit_s", "s"),
    ("net.logstore.commit_s", "s"),
    ("net.logstore.bytes", "bytes"),
    ("obs.export.self_s", "s"),
    ("obs.features.self_s", "s"),
    ("obs.verdicts.self_s", "s"),
    ("obs.trace.spans", "count"),
    ("survey.respondents.self_s", "s"),
    ("survey.chi_square.self_s", "s"),
    *((f"report.experiment_s.{key}", "s") for key in BATTERY_KEYS),
    ("report.pool.busy_ratio", "ratio"),
    ("report.merge_s", "s"),
    ("trace_overhead", "ratio"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """The wrapped entry points of one traced sample and their probes."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.bodies: set = set()
        self.found = [0, 0]  # hits, probes
        self.incremental_hits = 0
        self.policy_caches: List[object] = []

    def _probe(self, kind: Optional[str]):
        if kind == "body":
            def probe(args, result):
                body = args[0]
                data = body if isinstance(body, bytes) else body.encode("utf-8", "surrogateescape")
                self.bodies.add(hashlib.sha256(data).digest())
        elif kind == "found":
            def probe(args, result):
                self.found[0] += result is not None
                self.found[1] += 1
        elif kind == "hit":
            def probe(args, result):
                self.incremental_hits += result[0] == "hit"
        elif kind == "instance":
            def probe(args, result):
                self.policy_caches.append(args[0])
        else:
            probe = None
        return probe

    def install(self) -> "LayerTrace":
        """Import the instrumented modules and wrap every entry point."""
        for name, module_name, qualname, kind in INSTRUMENTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(
                    self.recorder.wrap(name, original.__func__, self._probe(kind))
                )
            else:
                wrapper = self.recorder.wrap(name, original, self._probe(kind))
            if owner_name:
                patch_method(owner, attr, wrapper)
            else:
                patch_function(original, wrapper, "repro")
        return self

    def metrics(self, report, workdir: Path) -> Dict[str, float]:
        """Every metric of :data:`METRICS` but ``trace_overhead``."""
        from repro.core.compiled import shared_policy_cache

        stats = summarize(self.recorder.spans)

        def calls(name: str) -> int:
            return stats[name].calls if name in stats else 0

        def self_s(*names: str) -> float:
            return sum(stats[n].self_s for n in names if n in stats)

        def inclusive_s(name: str) -> float:
            return stats[name].inclusive_s if name in stats else 0.0

        shared = shared_policy_cache()
        cache_hits = sum(cache.hits for cache in self.policy_caches)
        cache_probes = sum(cache.hits + cache.misses for cache in self.policy_caches)
        merge_s = inclusive_s("report.merge")
        timings = report.timings_seconds
        pool_wall = report.total_seconds - report.world_seconds - merge_s
        values = {
            "core.parse.calls": calls("core.parse"),
            "core.parse.unique_ratio": _ratio(len(self.bodies), calls("core.parse")),
            "core.parse.self_s": self_s("core.parse"),
            "core.policy_cache.hit_ratio": _ratio(shared.hits, shared.hits + shared.misses),
            "core.rules_for.calls": calls("core.rules_for"),
            "core.rules_for.self_s": self_s("core.rules_for", "core.extract_product_token"),
            "core.normalize_path.calls": calls("core.normalize_path"),
            "core.normalize_path.self_s": self_s("core.normalize_path"),
            "core.classify.calls": calls("core.classify"),
            "core.classify.self_s": self_s("core.classify"),
            "core.legacy.self_s": self_s("core.legacy"),
            "web.population.build_s": inclusive_s("web.population.build"),
            "crawlers.snapshot.calls": calls("crawlers.snapshot"),
            "crawlers.snapshot.self_s": self_s("crawlers.snapshot"),
            "measure.collect.self_s": self_s("measure.collect"),
            "report.world_build_s": report.world_seconds,
            "web.archive.write_s": inclusive_s("web.archive.write"),
            "web.archive.bytes": tree_bytes(workdir / ARCHIVE_DIR),
            "web.archive.open_s": inclusive_s("web.archive.open"),
            "web.body_store.hit_ratio": _ratio(*self.found),
            "measure.streaming.self_s": self_s("measure.streaming"),
            "measure.aggregate.self_s": self_s("measure.aggregate"),
            "measure.cache.hit_ratio": _ratio(cache_hits, cache_probes),
            "measure.artists.self_s": self_s("measure.artists"),
            "measure.incremental.lookup_s": inclusive_s("measure.incremental.lookup"),
            "measure.incremental.flush_s": inclusive_s("measure.incremental.flush"),
            "measure.incremental.hits": self.incremental_hits,
            "measure.incremental.bytes": tree_bytes(workdir / STORE_DIR),
            "net.request.calls": calls("net.request"),
            "net.request.self_s": self_s("net.request"),
            "proxy.handle.calls": calls("proxy.handle"),
            "proxy.handle.self_s": self_s("proxy.handle"),
            "proxy.behavioral.assess.calls": calls("proxy.behavioral.assess"),
            "net.logstore.emit.calls": calls("net.logstore.emit"),
            "net.logstore.emit_s": inclusive_s("net.logstore.emit"),
            "net.logstore.commit_s": inclusive_s("net.logstore.commit"),
            "net.logstore.bytes": tree_bytes(workdir / LOG_DIR),
            "obs.export.self_s": self_s("obs.export"),
            "obs.features.self_s": self_s("obs.features"),
            "obs.verdicts.self_s": self_s("obs.verdicts"),
            "obs.trace.spans": len(report.spans),
            "survey.respondents.self_s": self_s("survey.respondents"),
            "survey.chi_square.self_s": self_s("survey.chi_square"),
            "report.pool.busy_ratio": _ratio(
                sum(timings.values()), report.workers * pool_wall
            ),
            "report.merge_s": merge_s,
        }
        for key in BATTERY_KEYS:
            values[f"report.experiment_s.{key}"] = timings.get(key, 0.0)
        return values
