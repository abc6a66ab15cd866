"""Metrics and the result-table harness."""

import pytest

from repro.eval import (
    ResultTable,
    average_precision,
    error_histogram,
    error_stats,
    sensitivity_specificity,
)
from repro.eval.harness import render_histogram


class TestErrorStats:
    def test_basic(self):
        stats = error_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.max == 4.0
        assert stats.n == 4

    def test_rmse_exceeds_mean_for_spread(self):
        stats = error_stats([0.0, 10.0])
        assert stats.rmse > stats.mean

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            error_stats([])


class TestHistogram:
    def test_counts_and_clipping(self):
        counts, edges = error_histogram([0.1, 0.1, 0.6, 99.0],
                                        bin_width=0.5, max_value=2.0)
        assert counts.sum() == 4
        assert counts[0] == 2
        assert counts[-1] == 1  # clipped outlier lands in the last bin

    def test_render(self):
        counts, edges = error_histogram([0.1, 0.2, 0.9], bin_width=0.5,
                                        max_value=1.0)
        text = render_histogram(counts, edges)
        assert "#" in text


class TestClassificationMetrics:
    def test_sensitivity_specificity(self):
        m = sensitivity_specificity(tp=9, fp=1, tn=9, fn=1)
        assert m["sensitivity"] == pytest.approx(0.9)
        assert m["specificity"] == pytest.approx(0.9)


class TestAveragePrecision:
    def test_perfect_detector(self):
        ap = average_precision([0.9, 0.8, 0.7], [True, True, True])
        assert ap == pytest.approx(1.0)

    def test_worst_detector(self):
        ap = average_precision([0.9, 0.8], [False, False], n_positives=2)
        assert ap == 0.0

    def test_ranking_matters(self):
        good = average_precision([0.9, 0.8, 0.1], [True, True, False])
        bad = average_precision([0.9, 0.8, 0.1], [False, True, True])
        assert good > bad

    def test_missed_positives_lower_ap(self):
        full = average_precision([0.9, 0.8], [True, True], n_positives=2)
        missed = average_precision([0.9, 0.8], [True, True], n_positives=4)
        assert missed < full

    def test_empty(self):
        assert average_precision([], []) == 0.0


class TestResultTable:
    def test_render_and_status(self):
        table = ResultTable("E1", "demo")
        table.add("error", "0.2 m", "0.25 m", ok=True)
        table.add("note", "-", "-")
        text = table.render()
        assert "E1" in text and "PASS" in text
        assert table.all_ok()

    def test_all_ok_fails_when_any_false(self):
        table = ResultTable("E2", "demo")
        table.add("a", "1", "2", ok=False)
        assert not table.all_ok()
