"""Arc-length-parameterized polylines.

``Polyline`` is the single geometric representation used by every HD-map
element with extent (lane boundaries, centerlines, stop lines, road edges).
It provides the operations the surveyed algorithms rely on: arc-length
interpolation, projection (point -> station/lateral offset), resampling,
lateral offsetting (for deriving boundaries from centerlines), heading and
curvature queries, and Douglas-Peucker simplification (used by the compact
storage codec of Li et al. [60]).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import perp_left, segment_point_distance

#: Cap on the (points x segments) temporary a single batched-projection
#: chunk may allocate. 2M pairs of float64 triples keeps peak memory for
#: one chunk under ~100 MB regardless of polyline size.
PROJECT_BATCH_MAX_PAIRS = 2_000_000


class Polyline:
    """An ordered sequence of 2-D vertices with arc-length parameterization.

    Vertices are stored as an immutable ``(N, 2)`` float array with N >= 2
    and no zero-length segments.
    """

    __slots__ = ("_pts", "_seg_len", "_cum")

    def __init__(self, points: Iterable[Sequence[float]]) -> None:
        pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                         dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"polyline needs an (N, 2) array, got {pts.shape}")
        if pts.shape[0] < 2:
            raise GeometryError("polyline needs at least two vertices")
        seg = pts[1:] - pts[:-1]
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if seg_len.min() <= 0.0:
            # Drop duplicate consecutive vertices rather than failing: noisy
            # extraction pipelines produce them routinely.
            keep = np.concatenate(([True], seg_len > 0.0))
            pts = pts[keep]
            if pts.shape[0] < 2:
                raise GeometryError("polyline degenerate after removing duplicates")
            seg = pts[1:] - pts[:-1]
            seg_len = np.hypot(seg[:, 0], seg[:, 1])
        pts.setflags(write=False)
        self._pts = pts
        self._seg_len = seg_len
        self._cum = None

    @property
    def _cum_len(self) -> np.ndarray:
        """Station of every vertex, built on first arc-length use: a
        polyline decoded from a tile is mostly only ever bounds-tested."""
        cum = self._cum
        if cum is None:
            cum = self._cum = np.concatenate(
                ([0.0], np.cumsum(self._seg_len)))
        return cum

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The ``(N, 2)`` vertex array (read-only view)."""
        return self._pts

    @property
    def length(self) -> float:
        """Total arc length in metres."""
        return float(self._cum_len[-1])

    @property
    def start(self) -> np.ndarray:
        return self._pts[0]

    @property
    def end(self) -> np.ndarray:
        return self._pts[-1]

    def __len__(self) -> int:
        return self._pts.shape[0]

    def __repr__(self) -> str:
        return f"Polyline({len(self)} pts, {self.length:.1f} m)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyline):
            return NotImplemented
        return self._pts.shape == other._pts.shape and bool(
            np.allclose(self._pts, other._pts)
        )

    def __hash__(self) -> int:  # frozen content => hashable by bytes
        return hash(self._pts.tobytes())

    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
        mn = self._pts.min(axis=0)
        mx = self._pts.max(axis=0)
        return float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1])

    # ------------------------------------------------------------------
    # Arc-length parameterization
    # ------------------------------------------------------------------
    def point_at(self, s: float) -> np.ndarray:
        """Point at station ``s`` (clamped to [0, length])."""
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self._cum_len, s, side="right") - 1)
        i = min(i, len(self._seg_len) - 1)
        ds = s - self._cum_len[i]
        if self._seg_len[i] == 0.0:
            return self._pts[i].copy()
        t = ds / self._seg_len[i]
        return self._pts[i] + t * (self._pts[i + 1] - self._pts[i])

    def points_at(self, stations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`point_at` for an array of stations."""
        s = np.clip(np.asarray(stations, dtype=float), 0.0, self.length)
        idx = np.clip(
            np.searchsorted(self._cum_len, s, side="right") - 1,
            0,
            len(self._seg_len) - 1,
        )
        ds = s - self._cum_len[idx]
        t = np.where(self._seg_len[idx] > 0, ds / self._seg_len[idx], 0.0)
        a = self._pts[idx]
        b = self._pts[idx + 1]
        return a + t[:, None] * (b - a)

    def headings_at(self, stations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`heading_at` for an array of stations."""
        s = np.clip(np.asarray(stations, dtype=float), 0.0, self.length)
        idx = np.clip(
            np.searchsorted(self._cum_len, s, side="right") - 1,
            0,
            len(self._seg_len) - 1,
        )
        d = self._pts[idx + 1] - self._pts[idx]
        return np.arctan2(d[:, 1], d[:, 0])

    def normals_at(self, stations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`normal_at`: ``(N, 2)`` left-hand unit normals."""
        h = self.headings_at(stations)
        return np.stack([-np.sin(h), np.cos(h)], axis=1)

    def heading_at(self, s: float) -> float:
        """Tangent heading (radians) at station ``s``."""
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self._cum_len, s, side="right") - 1)
        i = min(max(i, 0), len(self._seg_len) - 1)
        d = self._pts[i + 1] - self._pts[i]
        return float(np.arctan2(d[1], d[0]))

    def tangent_at(self, s: float) -> np.ndarray:
        h = self.heading_at(s)
        return np.array([np.cos(h), np.sin(h)])

    def normal_at(self, s: float) -> np.ndarray:
        """Left-hand unit normal at station ``s``."""
        return perp_left(self.tangent_at(s))

    def curvature_at(self, s: float, window: float = 2.0) -> float:
        """Discrete curvature estimate (1/m) using heading change over a window."""
        s0 = max(0.0, s - window / 2.0)
        s1 = min(self.length, s + window / 2.0)
        if s1 - s0 < 1e-9:
            return 0.0
        h0 = self.heading_at(s0)
        h1 = self.heading_at(s1)
        dh = float(np.arctan2(np.sin(h1 - h0), np.cos(h1 - h0)))
        return dh / (s1 - s0)

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, point: Sequence[float]) -> tuple[float, float]:
        """Project ``point`` onto the polyline.

        Returns ``(station, signed_lateral)`` where ``signed_lateral`` is
        positive to the left of the direction of travel.
        """
        p = np.asarray(point, dtype=float)
        a = self._pts[:-1]
        b = self._pts[1:]
        d = b - a
        denom = np.einsum("ij,ij->i", d, d)
        t = np.clip(np.einsum("ij,ij->i", p - a, d) / np.maximum(denom, 1e-300), 0.0, 1.0)
        closest = a + t[:, None] * d
        dist2 = np.einsum("ij,ij->i", p - closest, p - closest)
        i = int(np.argmin(dist2))
        station = float(self._cum_len[i] + t[i] * self._seg_len[i])
        seg_dir = d[i] / max(np.hypot(*d[i]), 1e-300)
        offset_vec = p - closest[i]
        signed = float(seg_dir[0] * offset_vec[1] - seg_dir[1] * offset_vec[0])
        return station, signed

    def project_batch(self, points: Iterable[Sequence[float]],
                      max_pairs: int = PROJECT_BATCH_MAX_PAIRS
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`project` for many points at once.

        Returns ``(stations, laterals)`` arrays of shape ``(P,)``. Each row
        is bit-identical to the scalar ``project`` result for the same
        point: the per-segment dot products, clipping, argmin tie-breaking,
        and sign computation all use the same operations in the same order.

        The computation covers all ``(P, S)`` point/segment pairs at once,
        with x/y components kept as separate 2-D arrays (cheaper than
        ``(P, S, 2)`` temporaries) and chunked over points so no temporary
        exceeds ``max_pairs`` pairs — projection onto country-scale
        boundary lines stays within a bounded memory footprint.
        """
        pts = np.asarray(points if isinstance(points, np.ndarray) else list(points),
                         dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"project_batch needs (P, 2) points, got {pts.shape}")
        n_pts = pts.shape[0]
        stations = np.empty(n_pts)
        laterals = np.empty(n_pts)
        if n_pts == 0:
            return stations, laterals
        a = self._pts[:-1]
        d = self._pts[1:] - a
        denom = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        seg_dir = d / np.maximum(self._seg_len, 1e-300)[:, None]
        ax, ay = a[:, 0], a[:, 1]
        dx, dy = d[:, 0], d[:, 1]
        chunk = max(1, min(n_pts, max_pairs // max(a.shape[0], 1)))
        for lo in range(0, n_pts, chunk):
            p = pts[lo:lo + chunk]
            px = p[:, 0, None]
            py = p[:, 1, None]
            relx = px - ax[None, :]
            rely = py - ay[None, :]
            t = np.clip((relx * dx[None, :] + rely * dy[None, :])
                        / denom[None, :], 0.0, 1.0)
            cx = ax[None, :] + t * dx[None, :]
            cy = ay[None, :] + t * dy[None, :]
            fx = px - cx
            fy = py - cy
            dist2 = fx * fx + fy * fy
            i = np.argmin(dist2, axis=1)
            rows = np.arange(p.shape[0])
            ti = t[rows, i]
            stations[lo:lo + chunk] = self._cum_len[i] + ti * self._seg_len[i]
            ox = p[:, 0] - cx[rows, i]
            oy = p[:, 1] - cy[rows, i]
            sd = seg_dir[i]
            laterals[lo:lo + chunk] = sd[:, 0] * oy - sd[:, 1] * ox
        return stations, laterals

    def distance_to(self, point: Sequence[float]) -> float:
        """Unsigned Euclidean distance from ``point`` to the polyline."""
        p = np.asarray(point, dtype=float)
        a = self._pts[:-1]
        b = self._pts[1:]
        d = b - a
        denom = np.einsum("ij,ij->i", d, d)
        t = np.clip(
            np.einsum("ij,ij->i", p - a, d) / np.maximum(denom, 1e-300), 0.0, 1.0
        )
        closest = a + t[:, None] * d
        dist2 = np.einsum("ij,ij->i", p - closest, p - closest)
        return float(np.sqrt(dist2.min()))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def resample(self, spacing: float) -> "Polyline":
        """Resample to (approximately) uniform ``spacing`` metres.

        Always keeps the exact first and last vertex.
        """
        if spacing <= 0:
            raise GeometryError("spacing must be positive")
        n = max(2, int(np.ceil(self.length / spacing)) + 1)
        stations = np.linspace(0.0, self.length, n)
        return Polyline(self.points_at(stations))

    def offset(self, distance: float, spacing: Optional[float] = None) -> "Polyline":
        """Parallel curve offset ``distance`` metres to the left (negative = right).

        Implemented by resampling and shifting along the local normal — the
        standard way centerlines and lane boundaries are derived from each
        other in HD-map models.
        """
        base = self if spacing is None else self.resample(spacing)
        stations = base._cum_len if spacing is None else np.linspace(0.0, base.length, len(base))
        shifted = base.points_at(stations) + distance * base.normals_at(stations)
        return Polyline(shifted)

    def reversed(self) -> "Polyline":
        return Polyline(self._pts[::-1].copy())

    def slice(self, s0: float, s1: float) -> "Polyline":
        """Sub-polyline between stations ``s0`` and ``s1`` (s0 < s1)."""
        s0 = float(np.clip(s0, 0.0, self.length))
        s1 = float(np.clip(s1, 0.0, self.length))
        if s1 - s0 <= 1e-9:
            raise GeometryError("slice needs s1 > s0")
        inner = self._cum_len[(self._cum_len > s0) & (self._cum_len < s1)]
        stations = np.concatenate(([s0], inner, [s1]))
        return Polyline(self.points_at(stations))

    def simplify(self, tolerance: float) -> "Polyline":
        """Douglas-Peucker simplification within ``tolerance`` metres."""
        if tolerance <= 0:
            return Polyline(self._pts.copy())
        keep = _douglas_peucker_mask(self._pts, tolerance)
        return Polyline(self._pts[keep])

    def concat(self, other: "Polyline") -> "Polyline":
        """Join ``other`` onto the end of this polyline."""
        gap = float(np.hypot(*(other.start - self.end)))
        if gap < 1e-9:
            pts = np.vstack([self._pts, other.points[1:]])
        else:
            pts = np.vstack([self._pts, other.points])
        return Polyline(pts)

def _douglas_peucker_mask(pts: np.ndarray, tol: float) -> np.ndarray:
    """Boolean keep-mask for Douglas-Peucker simplification."""
    n = pts.shape[0]
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        a, b = pts[lo], pts[hi]
        best_d, best_i = -1.0, -1
        for i in range(lo + 1, hi):
            d, _ = segment_point_distance(a, b, pts[i])
            if d > best_d:
                best_d, best_i = d, i
        # A chord whose endpoints coincide (out-and-back or closed line) has
        # no direction: keep its farthest vertex even within tolerance, or
        # the result collapses to one repeated point.
        if best_d > tol or (best_d > 0.0 and np.array_equal(a, b)):
            keep[best_i] = True
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return keep


def straight(a: Sequence[float], b: Sequence[float], spacing: float = 5.0) -> Polyline:
    """Straight segment from ``a`` to ``b`` sampled every ``spacing`` metres."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    length = float(np.hypot(*(b_arr - a_arr)))
    n = max(2, int(np.ceil(length / spacing)) + 1)
    t = np.linspace(0.0, 1.0, n)
    return Polyline(a_arr + t[:, None] * (b_arr - a_arr))
