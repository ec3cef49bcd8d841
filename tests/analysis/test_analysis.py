"""Tests for stats, table rendering, and the timing harness."""

import pytest

from repro.analysis.stats import accuracy, refinement_holds
from repro.analysis.tables import (
    format_markdown_table,
    format_table,
    write_markdown_table,
)
from repro.analysis.timing import TimedRun, incremental_times, time_classifier
from repro.baselines import get_classifier
from repro.workloads.random_functions import random_tables


class TestStats:
    def test_accuracy(self):
        assert accuracy(49, 49) == 1.0
        assert accuracy(251, 49) > 1
        assert accuracy(44, 49) < 1
        with pytest.raises(ValueError):
            accuracy(10, 0)

    def test_refinement_holds(self):
        assert refinement_holds([1, 2, 2, 5])
        assert not refinement_holds([3, 2])
        assert refinement_holds([])


class TestTables:
    ROWS = [
        {"n": 4, "classes": 49, "time": 0.0013},
        {"n": 5, "classes": 312, "time": 0.0049},
    ]

    def test_format_table(self):
        text = format_table(self.ROWS, title="Table III")
        assert "Table III" in text
        assert "classes" in text
        assert "312" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_column_selection(self):
        text = format_table(self.ROWS, columns=["n", "classes"])
        assert "time" not in text

    def test_markdown(self):
        text = format_markdown_table(self.ROWS)
        assert text.startswith("| n | classes | time |")
        assert "| 4 | 49 |" in text

    def test_write_markdown(self, tmp_path):
        path = tmp_path / "table.md"
        write_markdown_table(self.ROWS, path, title="Table II")
        content = path.read_text()
        assert content.startswith("## Table II")
        assert "| 5 | 312 |" in content


class TestTiming:
    def test_time_keyed_classifier(self):
        tables = random_tables(4, 60, seed=2)
        run = time_classifier(get_classifier("ours"), tables, chunks=3)
        assert run.method == "ours"
        assert run.functions == 60
        assert run.classes >= 1
        assert run.seconds > 0
        assert len(run.chunk_seconds) >= 3

    def test_time_exact_classifier(self):
        tables = random_tables(4, 30, seed=3)
        run = time_classifier(get_classifier("exact"), tables)
        assert run.classes >= 1
        assert run.seconds > 0

    def test_counts_agree_with_direct(self):
        tables = random_tables(4, 50, seed=4)
        clf = get_classifier("huang13")
        run = time_classifier(clf, tables)
        assert run.classes == clf.count_classes(tables)

    def test_stability_metrics(self):
        run = TimedRun("x", 10, 5, 1.0, [0.1, 0.1, 0.1])
        assert run.chunk_stdev == pytest.approx(0.0)
        assert run.chunk_relative_spread == pytest.approx(0.0)
        spread = TimedRun("x", 10, 5, 1.0, [0.1, 0.3])
        assert spread.chunk_relative_spread > 0

    def test_incremental_times_monotone(self):
        tables = random_tables(4, 80, seed=5)
        series = incremental_times(
            get_classifier("ours"), tables, points=[20, 40, 80]
        )
        xs = [p for p, _ in series]
        ys = [t for _, t in series]
        assert xs == [20, 40, 80]
        assert ys == sorted(ys)
