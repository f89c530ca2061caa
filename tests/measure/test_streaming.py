"""Streaming aggregations must be byte-identical to the in-memory ones.

The streaming plane iterates shard archives (O(shard) resident state)
instead of materialized SiteRecords; every Figure 2-4 / Table 3 output
must match the classic SnapshotSeries computation exactly, including
ordering-sensitive payloads (removal-domain insertion order, the Table
4 row order).
"""

import pytest

from repro.measure.longitudinal import (
    allow_and_removal_trend,
    collect_shard_archives,
    collect_snapshots,
    first_allow_table,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from repro.measure.streaming import (
    streaming_allow_and_removal_trend,
    streaming_analysis_domains,
    streaming_coverage_table,
    streaming_first_allow_table,
    streaming_full_disallow_trend,
    streaming_per_agent_trend,
)
from repro.web.archive import ArchiveSet
from repro.web.population import PopulationConfig, build_web_population

CONFIG = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    population = build_web_population(CONFIG)
    series = collect_snapshots(population, workers=1)
    root = tmp_path_factory.mktemp("archive")
    collect_shard_archives(population, root, shards=3, workers=1)
    archive = ArchiveSet.open(root)
    yield population, series, archive
    archive.close()


class TestStreamingParity:
    def test_analysis_domains_identical(self, world):
        _, series, archive = world
        assert streaming_analysis_domains(archive) == series.analysis_domains
        assert archive.stable_domains() == series.stable_domains

    def test_figure2_rows_identical(self, world):
        population, series, archive = world
        top5k = {s.domain for s in population.stable_top5k}
        assert streaming_full_disallow_trend(archive) == full_disallow_trend(
            series, top5k
        )
        assert streaming_full_disallow_trend(
            archive, require_explicit=False
        ) == full_disallow_trend(series, top5k, require_explicit=False)

    def test_figure3_trends_identical(self, world):
        _, series, archive = world
        assert streaming_per_agent_trend(archive) == per_agent_trend(series)

    def test_figure4_trend_identical_including_order(self, world):
        _, series, archive = world
        classic = allow_and_removal_trend(series)
        streamed = streaming_allow_and_removal_trend(archive)
        assert streamed.explicit_allow_counts == classic.explicit_allow_counts
        assert streamed.removals_per_period == classic.removals_per_period
        # Dict equality AND iteration order: the paper artifact renders
        # removal domains in first-removal order.
        assert list(streamed.removal_domains.items()) == list(
            classic.removal_domains.items()
        )

    def test_table4_rows_identical(self, world):
        _, series, archive = world
        assert streaming_first_allow_table(archive) == first_allow_table(series)

    def test_table3_rows_identical(self, world):
        _, series, archive = world
        assert streaming_coverage_table(archive) == snapshot_coverage_table(series)

    def test_body_store_backend_changes_nothing(self, world):
        population, series, archive = world
        store = archive.body_store()
        cold = streaming_full_disallow_trend(archive, store=store)
        store.flush()
        # A second pass answers from the persisted per-body facts.
        warm = streaming_full_disallow_trend(archive, store=store)
        top5k = {s.domain for s in population.stable_top5k}
        assert cold == warm == full_disallow_trend(series, top5k)
        assert store.body_entry_count() > 0


class TestStreamingRunners:
    def test_experiment_results_identical(self, world):
        from repro.report.experiments import (
            LongitudinalBundle,
            run_figure2,
            run_figure2_streaming,
            run_figure3,
            run_figure3_streaming,
            run_figure4,
            run_figure4_streaming,
            run_table3,
            run_table3_streaming,
        )

        population, series, archive = world
        bundle = LongitudinalBundle(population=population, series=series)
        pairs = [
            (run_figure2(bundle), run_figure2_streaming(archive)),
            (run_figure3(bundle), run_figure3_streaming(archive)),
            (run_figure4(bundle), run_figure4_streaming(archive)),
            (run_table3(bundle), run_table3_streaming(archive)),
        ]
        for classic, streamed in pairs:
            assert streamed.text == classic.text
            assert streamed.metrics == classic.metrics
            assert streamed.experiment_id == classic.experiment_id
