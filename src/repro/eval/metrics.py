"""Metrics used across the experiment suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ErrorStats:
    """Summary statistics of an error sample."""

    n: int
    mean: float
    std: float
    median: float
    rmse: float
    p90: float
    p95: float
    max: float

    def __str__(self) -> str:
        return (f"n={self.n} mean={self.mean:.3f} std={self.std:.3f} "
                f"median={self.median:.3f} rmse={self.rmse:.3f} "
                f"p95={self.p95:.3f} max={self.max:.3f}")


def error_stats(errors: Sequence[float]) -> ErrorStats:
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("no errors to summarize")
    return ErrorStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        median=float(np.median(arr)),
        rmse=float(np.sqrt(np.mean(arr**2))),
        p90=float(np.percentile(arr, 90)),
        p95=float(np.percentile(arr, 95)),
        max=float(arr.max()),
    )


def error_histogram(errors: Sequence[float], bin_width: float = 0.25,
                    max_value: float = 5.0) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of errors (counts, bin_edges) — the Figure 2 artefact."""
    arr = np.clip(np.asarray(list(errors), dtype=float), 0.0, max_value)
    edges = np.arange(0.0, max_value + bin_width, bin_width)
    counts, _ = np.histogram(arr, bins=edges)
    return counts, edges


def sensitivity_specificity(tp: int, fp: int, tn: int, fn: int) -> Dict[str, float]:
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    return {"sensitivity": sensitivity, "specificity": specificity}


def average_precision(scores: Sequence[float], labels: Sequence[bool],
                      n_positives: int | None = None) -> float:
    """AP over scored detections: ``labels[i]`` marks detection i as a TP.

    ``n_positives`` is the total ground-truth count (defaults to the TP
    count, i.e. assumes every positive was detected at some score).
    """
    scores = np.asarray(list(scores), dtype=float)
    labels = np.asarray(list(labels), dtype=bool)
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores)
    labels = labels[order]
    total_pos = int(labels.sum()) if n_positives is None else n_positives
    if total_pos == 0:
        return 0.0
    tp_cum = np.cumsum(labels)
    fp_cum = np.cumsum(~labels)
    precision = tp_cum / (tp_cum + fp_cum)
    recall = tp_cum / total_pos
    # 101-point interpolation (VOC-style).
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0
