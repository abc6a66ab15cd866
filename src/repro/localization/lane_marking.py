"""LiDAR lane-marking localization (Ghallabi et al. [50]).

Pipeline, as in the paper: (1) segment road points out of the scan using
ring smoothness, (2) extract marking candidates by LiDAR intensity,
(3) fit marking lines with a Hough transform, (4) match the lines against
the HD map's boundary lines to correct the lateral/heading estimate inside
a particle filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.elements import LaneBoundary
from repro.core.hdmap import HDMap
from repro.errors import LocalizationError
from repro.geometry.transform import SE2
from repro.localization.particle_filter import ParticleFilter2D
from repro.sensors.lidar import LidarScan

MARKING_INTENSITY_THRESHOLD = 0.52
EDGE_INTENSITY_BAND = (0.28, 0.50)


def extract_points_in_band(scan: LidarScan, lo: float,
                           hi: float) -> np.ndarray:
    """Body-frame ground points whose intensity falls in [lo, hi)."""
    ground = scan.ground
    mask = (ground.intensity >= lo) & (ground.intensity < hi)
    return ground.points[mask]


def extract_marking_points(scan: LidarScan,
                           threshold: float = MARKING_INTENSITY_THRESHOLD
                           ) -> np.ndarray:
    """Body-frame ground points whose intensity says 'paint'."""
    return extract_points_in_band(scan, threshold, 1.01)


def extract_edge_points(scan: LidarScan) -> np.ndarray:
    """Body-frame ground points in the curb/road-edge intensity band.

    Road edges are *unique* laterally (one per side), which is what breaks
    the one-lane-over aliasing that pure paint matching suffers from.
    """
    return extract_points_in_band(scan, *EDGE_INTENSITY_BAND)


@dataclass(frozen=True)
class HoughLine:
    """A line in normal form: x cos(a) + y sin(a) = rho (body frame)."""

    angle: float
    rho: float
    support: int

    def lateral_offset(self) -> float:
        """Signed lateral distance of the line from the vehicle.

        For near-longitudinal markings the normal is near-lateral, so
        ``rho``'s sign in the body frame is the signed offset (left > 0).
        """
        return self.rho if math.sin(self.angle) >= 0 else -self.rho

def hough_lines(points: np.ndarray, n_angles: int = 90,
                rho_resolution: float = 0.15, max_rho: float = 15.0,
                min_support: int = 8, max_lines: int = 6) -> List[HoughLine]:
    """Classic Hough transform restricted to near-longitudinal lines.

    Markings the vehicle drives along appear as lines roughly parallel to
    the body x-axis, i.e. with normals near ±90°; the accumulator spans
    ±25° around that.
    """
    if points.shape[0] < min_support:
        return []
    angles = np.linspace(math.pi / 2 - math.radians(25),
                         math.pi / 2 + math.radians(25), n_angles)
    rhos = points @ np.stack([np.cos(angles), np.sin(angles)])  # (P, A)
    n_rho = int(2 * max_rho / rho_resolution) + 1
    rho_idx = np.round((rhos + max_rho) / rho_resolution).astype(int)
    valid = (rho_idx >= 0) & (rho_idx < n_rho)
    accumulator = np.zeros((n_angles, n_rho), dtype=int)
    for a in range(n_angles):
        v = valid[:, a]
        np.add.at(accumulator[a], rho_idx[v, a], 1)

    lines: List[HoughLine] = []
    acc = accumulator.copy()
    for _ in range(max_lines):
        peak = np.unravel_index(int(np.argmax(acc)), acc.shape)
        support = int(acc[peak])
        if support < min_support:
            break
        angle = float(angles[peak[0]])
        rho = float(peak[1] * rho_resolution - max_rho)
        lines.append(HoughLine(angle=angle, rho=rho, support=support))
        # Non-maximum suppression around the peak.
        a0 = max(0, peak[0] - 5)
        a1 = min(n_angles, peak[0] + 6)
        r0 = max(0, peak[1] - int(1.2 / rho_resolution))
        r1 = min(n_rho, peak[1] + int(1.2 / rho_resolution) + 1)
        acc[a0:a1, r0:r1] = 0
    return lines


class LaneMarkingLocalizer:
    """PF localizer whose update aligns Hough marking lines with the map."""

    def __init__(self, hdmap: HDMap, rng: np.random.Generator,
                 n_particles: int = 250,
                 sigma_offset: float = 0.12) -> None:
        self.map = hdmap
        self.filter = ParticleFilter2D(n_particles, rng)
        self.sigma_offset = sigma_offset
        self._initialized = False
        self._boundary_cache: Optional[Tuple[Tuple[float, float], list]] = None

    def initialize(self, pose: SE2, sigma_xy: float = 2.0,
                   sigma_theta: float = 0.08) -> None:
        self.filter.init_gaussian(pose, sigma_xy, sigma_theta)
        self._initialized = True

    def predict(self, ds: float, dtheta: float) -> None:
        self._check()
        # Prediction noise must dominate any systematic odometry error
        # (wheel-scale bias), or the whole cloud drifts longitudinally
        # faster than absolute updates can re-weight it.
        self.filter.predict(ds, dtheta,
                            sigma_ds=0.05 + 0.08 * abs(ds),
                            sigma_dtheta=0.005 + 0.05 * abs(dtheta))

    def update_markings(self, scan: LidarScan) -> int:
        """Weight particles by marking-line/map-boundary agreement.

        Paint lines and road-edge lines are matched against their own map
        boundary classes; the edges, being laterally unique, anchor the
        estimate absolutely while the paint lines sharpen it. Returns the
        number of lines used.
        """
        self._check()
        paint_lines = hough_lines(extract_marking_points(scan))
        edge_lines = hough_lines(extract_edge_points(scan), min_support=6,
                                 max_lines=2)
        if not paint_lines and not edge_lines:
            return 0
        measurements = (
            [(line.lateral_offset(), "paint") for line in paint_lines]
            + [(line.lateral_offset(), "edge") for line in edge_lines]
        )
        boundaries = self._nearby_boundaries()

        def weight(states: np.ndarray) -> np.ndarray:
            n = states.shape[0]
            # A boundary group's signed lateral per particle does not depend
            # on the measurement, so compute it once per (class, group) over
            # the whole cloud instead of once per particle per measurement.
            laterals = {
                cls: [_batch_signed_laterals(states, a_pts, b_pts)
                      for a_pts, b_pts in boundaries.get(cls, ())]
                for cls in ("paint", "edge")
            }
            total = np.zeros(n)
            for m, cls in measurements:
                best = np.full(n, np.inf)
                for lat, valid in laterals[cls]:
                    err = np.where(valid, np.abs(lat - m), np.inf)
                    np.minimum(best, err, out=best)
                scale = 2.0 if cls == "edge" else 1.0
                term = scale * (np.minimum(best, 3.0 * self.sigma_offset)
                                / self.sigma_offset)**2
                total += np.where(np.isfinite(best), term, 0.0)
            log_w = -0.5 * total
            log_w -= log_w.max()
            return np.exp(log_w)

        self.filter.update(weight)
        self.filter.resample_if_needed()
        return len(measurements)

    def update_gnss(self, position: np.ndarray, sigma: float) -> None:
        self._check()

        def weight(states: np.ndarray) -> np.ndarray:
            d2 = ((states[:, 0] - position[0])**2
                  + (states[:, 1] - position[1])**2)
            return np.exp(-0.5 * d2 / sigma**2)

        self.filter.update(weight)
        self.filter.resample_if_needed()

    def estimate(self) -> SE2:
        self._check()
        return self.filter.estimate()

    # ------------------------------------------------------------------
    def _nearby_boundaries(self):
        from repro.core.elements import BoundaryType

        estimate = self.filter.estimate()
        key = (round(estimate.x / 20.0), round(estimate.y / 20.0))
        if self._boundary_cache is not None and self._boundary_cache[0] == key:
            return self._boundary_cache[1]
        segs = {"paint": [], "edge": []}
        for element in self.map.elements_in_radius(estimate.x, estimate.y,
                                                   30.0, kind="boundary"):
            assert isinstance(element, LaneBoundary)
            cls = ("edge" if element.boundary_type in (BoundaryType.ROAD_EDGE,
                                                       BoundaryType.CURB)
                   else "paint")
            pts = element.line.points
            centre = np.array([estimate.x, estimate.y])
            mid = (pts[:-1] + pts[1:]) / 2.0
            near = np.hypot(*(mid - centre).T) <= 30.0
            if near.any():
                segs[cls].append((pts[:-1][near], pts[1:][near]))
        self._boundary_cache = (key, segs)
        return segs

    def _check(self) -> None:
        if not self._initialized:
            raise LocalizationError("localizer not initialized")


def _batch_signed_laterals(states: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Signed lateral offset of every particle to its nearest marking.

    Returns ``(lateral, valid)`` arrays of shape (N,); ``valid`` is False
    where the closest point is farther than 20 m. Every operation is the
    elementwise twin of the scalar
    ``repro.perf.reference._signed_lateral_reference`` in the same order,
    so results are bit-identical.
    """
    p = states[:, :2]  # (N, 2)
    theta = states[:, 2]
    d = b - a  # (S, 2)
    denom = np.einsum("ij,ij->i", d, d)
    rel = p[:, None, :] - a[None, :, :]  # (N, S, 2)
    t = np.clip(np.einsum("nsj,sj->ns", rel, d)
                / np.maximum(denom, 1e-300)[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * d[None, :, :]
    diff = p[:, None, :] - closest
    dist2 = np.einsum("nsj,nsj->ns", diff, diff)
    i = np.argmin(dist2, axis=1)
    rows = np.arange(states.shape[0])
    valid = dist2[rows, i] <= 20.0**2
    rel_c = closest[rows, i] - p
    lateral = -np.sin(theta) * rel_c[:, 0] + np.cos(theta) * rel_c[:, 1]
    return lateral, valid
