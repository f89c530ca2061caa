"""Unit tests for the experiment runners (tiny populations).

The benches exercise the runners at full scale with band assertions;
these tests pin down the *structure* of every runner's output -- ids,
rendered text, metric keys -- quickly enough for the main suite.
"""

import sys

import pytest

from repro.core import compiled, lexer, parser
from repro.core.diagnostics import lint
from repro.core.legacy import LegacyPolicy, LegacyQuirks
from repro.measure.artists import measure_artist_sites
from repro.report.experiments import (
    build_longitudinal_bundle,
    run_appb2_parser_comparison,
    run_change_taxonomy,
    run_ext_adoption_by_category,
    run_figure2,
    run_figure3,
    run_figure4,
    run_sec22_meta_tags,
    run_sec62_active_blocking,
    run_sec63_cloudflare,
    run_sec81_mistakes,
    run_survey_crosstabs,
    run_survey_tables,
    run_table1_compliance,
    run_table2_artists,
    run_table3,
    run_tables9_12_codebooks,
)
from repro.web.artists import build_artist_population
from repro.web.population import PopulationConfig, build_web_population

TINY = PopulationConfig(
    universe_size=700, list_size=450, top5k_cut=60, audit_size=120, seed=23
)


@pytest.fixture(scope="module")
def bundle():
    return build_longitudinal_bundle(TINY)


@pytest.fixture(scope="module")
def population():
    return build_web_population(TINY)


class TestLongitudinalRunners:
    def test_figure2_structure(self, bundle):
        result = run_figure2(bundle)
        assert result.experiment_id == "figure2"
        assert "Figure 2" in result.text and "CSV:" in result.text
        assert {"final_top5k_pct", "final_other_pct"} <= set(result.metrics)

    def test_figure3_structure(self, bundle):
        result = run_figure3(bundle)
        assert result.experiment_id == "figure3"
        assert "GPTBot" in result.text
        assert "final_GPTBot" in result.metrics

    def test_figure4_structure(self, bundle):
        result = run_figure4(bundle)
        assert "Table 4" in result.text
        assert result.metrics["total_removals"] >= 0

    def test_table3_structure(self, bundle):
        result = run_table3(bundle)
        assert result.metrics["n_snapshots"] == 15

    def test_change_taxonomy_structure(self, bundle):
        result = run_change_taxonomy(bundle)
        assert "change kind" in result.text
        assert "n_no-change" in result.metrics

    def test_category_adoption_structure(self, bundle):
        result = run_ext_adoption_by_category(bundle)
        assert any(key.startswith("pct_") for key in result.metrics)


class TestPopulationRunners:
    def test_sec62(self, population):
        result = run_sec62_active_blocking(population=population)
        assert "95% CI" in result.text
        assert 0 <= result.metrics["pct_blocking"] <= 100

    def test_sec63(self, population):
        result = run_sec63_cloudflare(population=population)
        assert result.metrics["n_greybox_blocked_uas"] > 0

    def test_sec22(self, population):
        result = run_sec22_meta_tags(population=population)
        assert "noai" in result.text

    def test_appb2(self, population):
        result = run_appb2_parser_comparison(population=population)
        assert result.metrics["pct_sites_disagree"] >= 0

    def test_sec81(self, population):
        result = run_sec81_mistakes(population=population)
        assert 0 <= result.metrics["pct_mistakes"] <= 100


def _record_calls(monkeypatch, fn):
    """Count calls of *fn* from every ``repro`` module that imported it.

    Returns the list of first arguments (the robots.txt bodies), one per
    call; modules bind the function by name, so each binding is patched.
    """
    seen = []

    def recording(source, *args, **kwargs):
        seen.append(source)
        return fn(source, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recording)
    return seen


class TestCompileOnce:
    """Each distinct robots.txt body is tokenized and parsed once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # A cold shared compile cache, so the counts are not vacuous.
        monkeypatch.setattr(compiled, "_SHARED_CACHE", compiled.CompiledPolicyCache())
        return (
            _record_calls(monkeypatch, parser.parse),
            _record_calls(monkeypatch, lexer.tokenize),
        )

    def test_sec81_and_appb2_parse_each_body_once(self, population, calls):
        bodies = {site.robots_at(24) for site in population.stable} - {None}
        run_sec81_mistakes(population=population)
        run_appb2_parser_comparison(population=population)
        parses, tokenizes = calls
        assert 0 < len(parses) <= len(bodies)
        assert len(tokenizes) <= len(bodies)

    def test_appb2_builds_each_legacy_policy_once(self, population, calls, monkeypatch):
        served = [site.robots_at(24) for site in population.stable]
        bodies = set(served) - {None}
        assert len(bodies) < len(served) - served.count(None)  # bodies repeat
        built = _record_calls(monkeypatch, LegacyPolicy)
        result = run_appb2_parser_comparison(population=population)
        assert 0 < len(built) <= len(bodies)
        # The per-body tallies, weighted by site count, equal the
        # per-site probe grid.
        probes = ["/", "/page", "/images/a.png"]
        agents = ["GPTBot", "CCBot", "anthropic-ai", "Claudebot", "randombot"]
        n_sites = n_disagree = disagreements = 0
        for text in served:
            if text is None:
                continue
            compliant = compiled.CompiledRobots(text)
            legacy = LegacyPolicy(text)
            wrong = sum(
                compliant.is_allowed(agent, path) != legacy.is_allowed(agent, path)
                for agent in agents
                for path in probes
            )
            n_sites += 1
            n_disagree += bool(wrong)
            disagreements += wrong
        assert result.metrics == {
            "pct_sites_disagree": 100.0 * n_disagree / n_sites,
            "pct_decisions_disagree": 100.0 * disagreements / (n_sites * 15),
        }

    def test_change_taxonomy_tokenizes_each_body_once(self, bundle, calls):
        series = bundle.series
        columns = [series.body_ids(snapshot) for snapshot in series.snapshots]
        edited = {
            body_id
            for before, after in zip(columns, columns[1:])
            for pair in zip(before, after)
            if pair[0] != pair[1]
            for body_id in pair
        }
        run_change_taxonomy(bundle)
        _, tokenizes = calls
        assert 0 < len(tokenizes) <= len(edited)

    def test_table2_parses_each_body_once(self, calls):
        measure_artist_sites(build_artist_population(n_artists=300))
        parses, tokenizes = calls
        assert 0 < len(parses) <= len(set(parses))
        assert len(tokenizes) <= len(set(parses))

    def test_cached_parse_gives_identical_legacy_verdicts_and_lint(self, population):
        probes = ["/", "/page", "/images/a.png"]
        agents = ["GPTBot", "CCBot", "anthropic-ai", "Claudebot", "randombot"]
        bodies = sorted({site.robots_at(24) for site in population.stable} - {None})
        for body in bodies:
            parsed = compiled.shared_policy_cache().policy(body).parsed
            assert lint(parsed) == lint(body)
            for quirks in (LegacyQuirks(), LegacyQuirks.none()):
                from_text = LegacyPolicy(body, quirks)
                from_parse = LegacyPolicy(parsed, quirks)
                for agent in agents:
                    for path in probes:
                        assert from_parse.verdict(agent, path) == from_text.verdict(
                            agent, path
                        )


class TestStandaloneRunners:
    def test_table1(self):
        result = run_table1_compliance(n_apps=600)
        assert "Bytespider" in result.text
        assert result.metrics["n_visited"] == 9

    def test_table2(self):
        result = run_table2_artists(n_artists=400)
        assert "Squarespace" in result.text
        assert "ToS on AI training" in result.text

    def test_survey(self):
        result = run_survey_tables()
        assert "Table 5" in result.text and "Table 8" in result.text

    def test_codebooks(self):
        result = run_tables9_12_codebooks()
        assert "Table 12" in result.text

    def test_crosstabs(self):
        result = run_survey_crosstabs()
        assert "chi2" in result.text
