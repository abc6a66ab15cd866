"""Evaluation: metrics, result tables, and the experiment harness."""

from repro.eval.metrics import (
    average_precision,
    error_histogram,
    error_stats,
    sensitivity_specificity,
)
from repro.eval.harness import ExperimentResult, ResultTable

__all__ = [
    "ExperimentResult",
    "ResultTable",
    "average_precision",
    "error_histogram",
    "error_stats",
    "sensitivity_specificity",
]
