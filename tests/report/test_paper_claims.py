"""The committed results and the paper's headline claims, in tier-1.

One cold serial run of the full experiment battery at the default
configuration (the paper's scale, seed 42) must reproduce every
``results/<id>.txt`` byte for byte, and the claims the benchmark suite
checks (``benchmarks/bench_fig2_disallow_trend.py``,
``benchmarks/bench_table1_compliance.py``) must hold on it, so a drift
fails here rather than only in a bench run.
"""

from pathlib import Path

import pytest

from repro.report.orchestrator import EXPERIMENT_REGISTRY, run_all
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

RESULTS = Path(__file__).resolve().parents[2] / "results"
#: Every committed experiment text (``summary.txt`` is not one).
RESULT_IDS = sorted(p.stem for p in RESULTS.glob("*.txt") if p.stem != "summary")


@pytest.fixture(scope="module")
def battery():
    report = run_all(PopulationConfig(), workers=1, mode="serial", store=WorldStore())
    return {result.experiment_id: result for result in report.results}


def test_every_experiment_has_a_committed_result(battery):
    assert len(battery) == len(EXPERIMENT_REGISTRY) == 18
    assert sorted(battery) == RESULT_IDS


@pytest.mark.parametrize("result_id", RESULT_IDS)
def test_result_text_matches_committed_file(battery, result_id):
    committed = (RESULTS / f"{result_id}.txt").read_text(encoding="utf-8")
    assert battery[result_id].text + "\n" == committed


def test_figure2_top5k_band(battery):
    metrics = battery["figure2"].metrics
    assert 10.0 <= metrics["final_top5k_pct"] <= 17.0
    assert metrics["final_top5k_pct"] > metrics["final_other_pct"]


def test_table1_compliance_counts(battery):
    metrics = battery["table1"].metrics
    assert metrics["n_visited"] == 9
    assert metrics["bytespider_respects"] == 0
    assert metrics["builtin_respect"] == 2
    assert metrics["third_party_total"] == 23
    assert metrics["third_party_no_fetch"] == 20
    # Seven passive visitors respect + ChatGPT-User via active = 8 "Yes".
    assert metrics["n_respect_yes"] == 8
