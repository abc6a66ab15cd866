"""Geometric lane learning from low-accuracy crowd data (Kim et al. [45]).

Crowdsourced lane observations are individually poor (cheap sensors), but
lanes obey strong geometric priors: they are smooth and locally straight.
The learner fits a lane polyline to binned crowd points with a
second-difference (curvature) penalty — a linear smoother solved in closed
form — which beats naive per-bin averaging exactly when the data is noisy
and sparse, the paper's operating regime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.polyline import Polyline


class LaneLearner:
    """Smoothness-regularized lane fit along a reference corridor."""

    def __init__(self, reference: Polyline, station_bin: float = 10.0,
                 smoothness: float = 25.0) -> None:
        self.reference = reference
        self.station_bin = station_bin
        self.smoothness = smoothness

    # ------------------------------------------------------------------
    def fit(self, points: np.ndarray) -> Optional[Polyline]:
        """Fit a lane centerline to crowd points near the reference.

        Solves ridge-style least squares over per-bin lateral offsets d_i:
        sum_i w_i (d_i - mean_i)^2 + lambda * sum |d_{i-1} - 2 d_i + d_{i+1}|^2.
        """
        ref = self.reference
        n_bins = max(3, int(ref.length / self.station_bin))
        edges = np.linspace(0.0, ref.length, n_bins + 1)
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if pts.shape[0]:
            s_all, d_all = ref.project_batch(pts)
            keep = ((s_all >= 0.0) & (s_all <= ref.length)
                    & (np.abs(d_all) <= 10.0))
            bins = np.minimum((s_all[keep] / ref.length * n_bins).astype(int),
                              n_bins - 1)
            # np.add.at accumulates in point order — same float sums as the
            # scalar loop it replaced.
            np.add.at(sums, bins, d_all[keep])
            np.add.at(counts, bins, 1.0)
        observed = counts > 0
        if observed.sum() < 3:
            return None
        means = np.where(observed, sums / np.maximum(counts, 1), 0.0)

        # Build (W + lambda D^T D) d = W m.
        W = np.diag(counts)
        D = np.zeros((n_bins - 2, n_bins))
        for i in range(n_bins - 2):
            D[i, i] = 1.0
            D[i, i + 1] = -2.0
            D[i, i + 2] = 1.0
        A = W + self.smoothness * (D.T @ D)
        b = counts * means
        try:
            d = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            return None

        s_mid = (edges[:-1] + edges[1:]) / 2.0
        return Polyline(ref.points_at(s_mid) + d[:, None] * ref.normals_at(s_mid))

    # ------------------------------------------------------------------
    def fit_naive(self, points: np.ndarray) -> Optional[Polyline]:
        """Baseline: per-bin averaging without the geometric prior."""
        saved = self.smoothness
        self.smoothness = 0.0
        try:
            return self.fit(points)
        finally:
            self.smoothness = saved

    # ------------------------------------------------------------------
    def score(self, fitted: Optional[Polyline],
              truth: Polyline) -> ErrorStats:
        if fitted is None:
            return error_stats([float("nan")])
        sampled = fitted.resample(self.station_bin).points
        errors = np.abs(truth.project_batch(sampled)[1])
        return error_stats(errors)
