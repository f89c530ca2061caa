"""Tests for survey cross-tabulations and chi-square analysis."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.survey.crosstabs import (
    ContingencyTable,
    actions_by_impact,
    awareness_by_professional,
    build_contingency,
    chi_square,
    intent_by_familiarity,
)
from repro.survey.respondents import Respondent, filter_valid, generate_respondents


@pytest.fixture(scope="module")
def pool():
    return filter_valid(generate_respondents(seed=42))


class TestContingencyTable:
    def _table(self):
        return ContingencyTable(["a", "b"], ["x", "y"], [[10, 30], [20, 40]])

    def test_totals(self):
        table = self._table()
        assert table.total == 100
        assert table.row_totals() == [40, 60]
        assert table.col_totals() == [30, 70]

    def test_proportions(self):
        props = self._table().proportions_by_row()
        assert props[0] == [0.25, 0.75]
        assert props[1] == pytest.approx([1 / 3, 2 / 3])

    def test_zero_row_safe(self):
        table = ContingencyTable(["a"], ["x", "y"], [[0, 0]])
        assert table.proportions_by_row() == [[0.0, 0.0]]


class TestBuildContingency:
    def test_skips_unmapped(self):
        respondents = [
            Respondent(rid=0, answers={"k": "a", "v": "x"}),
            Respondent(rid=1, answers={"k": "weird", "v": "x"}),
            Respondent(rid=2, answers={"k": "a"}),
        ]
        table = build_contingency(
            respondents,
            row_of=lambda r: r.answers.get("k"),
            col_of=lambda r: r.answers.get("v"),
            row_labels=["a"],
            col_labels=["x"],
        )
        assert table.counts == [[1]]


class TestChiSquare:
    def test_independent_table_low_statistic(self):
        table = ContingencyTable(["a", "b"], ["x", "y"], [[50, 50], [50, 50]])
        result = chi_square(table)
        assert result.statistic == pytest.approx(0.0, abs=1e-9)
        assert result.dof == 1
        assert result.p_value is not None and result.p_value > 0.9

    def test_strong_association(self):
        table = ContingencyTable(["a", "b"], ["x", "y"], [[90, 10], [10, 90]])
        result = chi_square(table)
        assert result.statistic > 50
        assert result.p_value < 1e-6

    def test_degenerate_table(self):
        table = ContingencyTable(["a"], ["x", "y"], [[5, 5]])
        result = chi_square(table)
        assert result.dof == 0 and result.p_value is None

    def test_zero_margins_dropped(self):
        table = ContingencyTable(
            ["a", "b", "empty"], ["x", "y"], [[30, 10], [10, 30], [0, 0]]
        )
        result = chi_square(table)
        assert result.dof == 1  # empty row dropped


class TestChiSquareOracle:
    """``chi_square`` against scipy, which stays a test-only dependency."""

    # (rows, cols) shapes covering dof 1 through 6.
    SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 6), (3, 4), (4, 3), (2, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_scipy_on_random_tables(self, shape):
        stats = pytest.importorskip("scipy.stats")
        n_rows, n_cols = shape
        rng = random.Random(n_rows * 10 + n_cols)
        for _ in range(200):
            scale = rng.choice([3, 10, 60, 300])
            counts = [
                [rng.randint(0, scale) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            # A zero cell here and there, but no zero margins: scipy
            # rejects those, and chi_square drops them (tested above).
            if any(sum(row) == 0 for row in counts) or any(
                sum(column) == 0 for column in zip(*counts)
            ):
                continue
            table = ContingencyTable(
                [f"r{i}" for i in range(n_rows)], [f"c{j}" for j in range(n_cols)], counts
            )
            ours = chi_square(table)
            statistic, p_value, dof, _ = stats.chi2_contingency(counts)
            assert ours.dof == dof == (n_rows - 1) * (n_cols - 1)
            assert ours.statistic == pytest.approx(statistic, rel=1e-12, abs=0)
            assert ours.p_value == pytest.approx(p_value, rel=1e-12, abs=0)

    def test_crosstabs_experiment_does_not_import_scipy(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "from repro.report.experiments import run_survey_crosstabs\n"
            "assert 'p=' in run_survey_crosstabs().text\n"
            "print('scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestCannedAnalyses:
    def test_awareness_by_professional_covers_everyone(self, pool):
        table = awareness_by_professional(pool)
        assert table.total == len(pool)
        assert sum(table.col_totals()) == 203
        # Marginals match the paper: 84 heard / 119 never.
        heard_total = table.col_totals()[0]
        assert heard_total == 84

    def test_intent_by_familiarity_restricted_to_never_heard(self, pool):
        table = intent_by_familiarity(pool)
        # Only the never-heard-and-understood group answered Q26.
        assert table.total <= 119
        assert table.total > 80

    def test_actions_by_impact(self, pool):
        table = actions_by_impact(pool)
        assert table.total == len(pool)
        result = chi_square(table)
        assert result.dof == 1
        assert result.p_value is not None
