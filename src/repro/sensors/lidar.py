"""Multi-ring LiDAR model with ground-intensity and object returns.

Two return channels reproduce what the surveyed LiDAR pipelines consume:

- **ground returns** — rings of ground hits at fixed radii (the geometry of
  a multi-layer scanner's downward beams). Each hit carries an intensity:
  high on retro-reflective paint (lane markings, Ghallabi et al. [50]),
  medium on curbs/road edges (Zhao et al. [32]), low on asphalt, with
  nothing but clutter off the road.
- **object returns** — a horizontal sweep ray-cast against vertical
  landmarks (signs, lights, poles — the HRLs of [53]) and any dynamic
  obstacles supplied by the caller (for the perception experiments [6]).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elements import BoundaryType, LaneBoundary, PointLandmark
from repro.core.hdmap import HDMap
from repro.geometry.transform import SE2
from repro.perf.instrument import timed

ASPHALT_INTENSITY = 0.18
OFFROAD_INTENSITY = 0.08
PAINT_HALF_WIDTH = 0.15  # painted line half width, metres
CURB_HALF_WIDTH = 0.25
LANDMARK_RADIUS = 0.25  # landmark cylinder radius for ray casting

#: Cap on the (points x segments) temporary one distance chunk allocates.
DISTANCE_MAX_PAIRS = 2_000_000


@dataclass(frozen=True)
class Obstacle:
    """A dynamic object (vehicle, pedestrian) visible to the LiDAR."""

    position: np.ndarray
    radius: float = 1.0
    reflectivity: float = 0.4
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    kind: str = "vehicle"
    on_road: bool = True


@dataclass(frozen=True)
class GroundReturns:
    """Ground-channel hits, sensor frame."""

    points: np.ndarray  # (N, 2) sensor-frame coordinates
    intensity: np.ndarray  # (N,)
    ring: np.ndarray  # (N,) ring index


@dataclass(frozen=True)
class ObjectReturns:
    """Object-channel hits: polar in the sensor frame."""

    angles: np.ndarray  # (M,)
    ranges: np.ndarray  # (M,)
    intensity: np.ndarray  # (M,)

    def points(self) -> np.ndarray:
        return np.stack([
            self.ranges * np.cos(self.angles),
            self.ranges * np.sin(self.angles),
        ], axis=1)


@dataclass(frozen=True)
class LidarScan:
    t: float
    ground: GroundReturns
    objects: ObjectReturns
    max_range: float


class _GroundContext:
    """Cropped scan-range geometry, cached per map state and pose cell.

    Building this is the expensive part of a ground scan (index query plus
    per-polyline segment crop); consecutive scans from nearly the same pose
    — the sensor-rate access pattern every surveyed localizer produces —
    reuse one context until the vehicle leaves the pose cell or the map
    changes underneath it (version or structural mutation count).
    """

    __slots__ = ("map_ref", "map_version", "map_mutations", "cell",
                 "paint_a", "paint_b", "paint_refl", "paint_half",
                 "lane_a", "lane_b")

    def __init__(self, hdmap: HDMap, cell: Tuple[int, int],
                 paint_segments: List[Tuple[np.ndarray, np.ndarray, float, float]],
                 lane_lines: List[Tuple[np.ndarray, np.ndarray]]) -> None:
        self.map_ref = weakref.ref(hdmap)
        self.map_version = hdmap.version
        self.map_mutations = hdmap.mutation_count
        self.cell = cell
        # Stack every group into flat per-segment arrays once at build time:
        # the scan kernels then run one batched pass over all segments.
        # (Per-group max/any reductions and per-segment ones are exactly
        # equal — all segments in a group share refl/half.)
        if paint_segments:
            self.paint_a = np.concatenate([g[0] for g in paint_segments])
            self.paint_b = np.concatenate([g[1] for g in paint_segments])
            self.paint_refl = np.concatenate(
                [np.full(g[0].shape[0], g[2]) for g in paint_segments])
            self.paint_half = np.concatenate(
                [np.full(g[0].shape[0], g[3]) for g in paint_segments])
        else:
            self.paint_a = np.zeros((0, 2))
            self.paint_b = np.zeros((0, 2))
            self.paint_refl = np.zeros(0)
            self.paint_half = np.zeros(0)
        if lane_lines:
            self.lane_a = np.concatenate([g[0] for g in lane_lines])
            self.lane_b = np.concatenate([g[1] for g in lane_lines])
        else:
            self.lane_a = np.zeros((0, 2))
            self.lane_b = np.zeros((0, 2))

    def valid_for(self, hdmap: HDMap, cell: Tuple[int, int]) -> bool:
        return (self.cell == cell
                and self.map_ref() is hdmap
                and self.map_version == hdmap.version
                and self.map_mutations == hdmap.mutation_count)


class LidarScanner:
    """Scans the ground-truth map from a vehicle pose."""

    def __init__(self, n_azimuth: int = 360,
                 ground_ring_radii: Sequence[float] = (4.0, 6.5, 9.0, 12.0, 16.0, 21.0),
                 max_range: float = 60.0,
                 range_sigma: float = 0.02,
                 intensity_sigma: float = 0.05,
                 dropout: float = 0.02,
                 context_cell_size: float = 8.0) -> None:
        self.n_azimuth = n_azimuth
        self.ground_ring_radii = tuple(ground_ring_radii)
        self.max_range = max_range
        self.range_sigma = range_sigma
        self.intensity_sigma = intensity_sigma
        self.dropout = dropout
        self.context_cell_size = context_cell_size
        self._ground_ctx: Optional[_GroundContext] = None

    # ------------------------------------------------------------------
    @timed("lidar.scan")
    def scan(self, hdmap: HDMap, pose: SE2, rng: np.random.Generator,
             t: float = 0.0,
             obstacles: Optional[Sequence[Obstacle]] = None) -> LidarScan:
        ground = self._scan_ground(hdmap, pose, rng)
        objects = self._scan_objects(hdmap, pose, rng, obstacles or ())
        return LidarScan(t=t, ground=ground, objects=objects,
                         max_range=self.max_range)

    # ------------------------------------------------------------------
    def _ground_context(self, hdmap: HDMap, pose: SE2) -> _GroundContext:
        """Cropped paint/lane segments covering every pose in the cell.

        The crop is taken around the *cell centre* with the cell's half
        diagonal added to the crop radius, so it is a superset of the
        per-pose crop for any pose inside the cell. Supersets do not change
        scan output: every extra segment lies farther from every scan point
        than the widest intensity threshold (2.2 m lane half-width versus a
        >= ~7 m crop margin beyond max ring reach), so its distances never
        cross a paint/curb/on-road boundary.
        """
        cell_size = self.context_cell_size
        cell = (int(np.floor(pose.x / cell_size)),
                int(np.floor(pose.y / cell_size)))
        ctx = self._ground_ctx
        if ctx is not None and ctx.valid_for(hdmap, cell):
            return ctx

        centre = np.array([(cell[0] + 0.5) * cell_size,
                           (cell[1] + 0.5) * cell_size])
        margin = cell_size * float(np.sqrt(2.0)) / 2.0
        max_r = max(self.ground_ring_radii) + 2.0
        crop_r = max_r + 5.0 + margin

        def _crop(pts: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
            a, b = pts[:-1], pts[1:]
            seg_mid = (a + b) / 2.0
            reach = np.hypot(*(b - a).T) / 2.0 + crop_r
            near = np.hypot(*(seg_mid - centre).T) <= reach
            if not near.any():
                return None
            return a[near], b[near]

        nearby = hdmap.elements_in_radius(float(centre[0]), float(centre[1]),
                                          crop_r)
        paint_segments: List[Tuple[np.ndarray, np.ndarray, float, float]] = []
        lane_lines: List[Tuple[np.ndarray, np.ndarray]] = []
        for element in nearby:
            if isinstance(element, LaneBoundary):
                half = (CURB_HALF_WIDTH
                        if element.boundary_type in (BoundaryType.CURB,
                                                     BoundaryType.ROAD_EDGE)
                        else PAINT_HALF_WIDTH)
                cropped = _crop(element.line.points)
                if cropped is not None:
                    paint_segments.append((cropped[0], cropped[1],
                                           element.reflectivity, half))
            elif element.id.kind == "lane":
                cropped = _crop(element.centerline.points)
                if cropped is not None:
                    lane_lines.append(cropped)
        ctx = _GroundContext(hdmap, cell, paint_segments, lane_lines)
        self._ground_ctx = ctx
        return ctx

    def _scan_ground(self, hdmap: HDMap, pose: SE2,
                     rng: np.random.Generator) -> GroundReturns:
        azimuths = np.linspace(-np.pi, np.pi, self.n_azimuth, endpoint=False)
        ctx = self._ground_context(hdmap, pose)

        # Draw every ring's samples first — in the exact per-ring order the
        # unfused implementation consumed the rng stream — then run the
        # paint/lane distance kernels once over all rings stacked. The
        # per-point arithmetic is row-independent, so fusing rings changes
        # nothing numerically while cutting kernel launches by the ring
        # count.
        all_local: List[np.ndarray] = []
        all_noise: List[np.ndarray] = []
        all_ring: List[np.ndarray] = []
        for ring_idx, radius in enumerate(self.ground_ring_radii):
            keep = rng.uniform(size=azimuths.size) >= self.dropout
            az = azimuths[keep]
            r = radius + rng.normal(0.0, self.range_sigma * 2.0, size=az.size)
            local = np.stack([r * np.cos(az), r * np.sin(az)], axis=1)
            noise = rng.normal(0.0, self.intensity_sigma, size=az.size)
            all_local.append(local)
            all_noise.append(noise)
            all_ring.append(np.full(local.shape[0], ring_idx, dtype=int))

        local = np.concatenate(all_local, axis=0)
        world = pose.apply(local)
        n_pts = world.shape[0]

        # Conservative per-scan segment prune. Every scan point lies within
        # r_max of the pose, so (triangle inequality) a segment whose
        # distance from the pose exceeds r_max + threshold cannot come
        # within threshold of any point; dropping it cannot change any
        # hit/on-road bit. The 1e-6 slack dwarfs the rounding error of the
        # two distance computations.
        r_max = (float(np.hypot(local[:, 0], local[:, 1]).max())
                 if n_pts else 0.0)
        pose_pt = np.array([[pose.x, pose.y]])

        # Distance to nearest painted line decides the intensity. One
        # batched pass over all cached paint segments: per-point best
        # reflectivity is an exact max, identical to the per-group chain.
        best_refl = np.full(n_pts, -1.0)
        if n_pts and ctx.paint_a.shape[0]:
            pose_d = _segment_distances_block(pose_pt, ctx.paint_a,
                                              ctx.paint_b)[0]
            near = pose_d <= r_max + ctx.paint_half + 1e-6
            if near.any():
                a, b = ctx.paint_a[near], ctx.paint_b[near]
                refl, half = ctx.paint_refl[near], ctx.paint_half[near]
                chunk = max(1, min(n_pts,
                                   DISTANCE_MAX_PAIRS // max(a.shape[0], 1)))
                for lo in range(0, n_pts, chunk):
                    d = _segment_distances_block(world[lo:lo + chunk], a, b)
                    hit = d <= half[None, :]
                    best_refl[lo:lo + chunk] = np.where(
                        hit, refl[None, :], -1.0).max(axis=1)

        on_road = np.zeros(n_pts, dtype=bool)
        if n_pts and ctx.lane_a.shape[0]:
            pose_d = _segment_distances_block(pose_pt, ctx.lane_a,
                                              ctx.lane_b)[0]
            near = pose_d <= r_max + 2.2 + 1e-6
            if near.any():
                a, b = ctx.lane_a[near], ctx.lane_b[near]
                chunk = max(1, min(n_pts,
                                   DISTANCE_MAX_PAIRS // max(a.shape[0], 1)))
                for lo in range(0, n_pts, chunk):
                    d = _segment_distances_block(world[lo:lo + chunk], a, b)
                    # within a lane half-width-ish
                    on_road[lo:lo + chunk] = (d <= 2.2).any(axis=1)

        intensity = np.where(
            best_refl >= 0.0, best_refl,
            np.where(on_road, ASPHALT_INTENSITY, OFFROAD_INTENSITY),
        )
        intensity = np.clip(intensity + np.concatenate(all_noise), 0.0, 1.0)
        return GroundReturns(
            points=local,
            intensity=intensity,
            ring=np.concatenate(all_ring),
        )

    # ------------------------------------------------------------------
    def _scan_objects(self, hdmap: HDMap, pose: SE2,
                      rng: np.random.Generator,
                      obstacles: Sequence[Obstacle]) -> ObjectReturns:
        landmarks = hdmap.landmarks_in_radius(pose.x, pose.y, self.max_range)
        # Cylinders: (centre, radius, reflectivity).
        cylinders = [
            (lm.position, LANDMARK_RADIUS, lm.reflectivity)
            for lm in landmarks
            if not _is_flat(lm)
        ]
        cylinders.extend(
            (ob.position, ob.radius, ob.reflectivity) for ob in obstacles
        )
        if not cylinders:
            empty = np.zeros(0)
            return ObjectReturns(empty, empty, empty)

        azimuths = np.linspace(-np.pi, np.pi, self.n_azimuth, endpoint=False)
        dirs = np.stack([np.cos(azimuths + pose.theta),
                         np.sin(azimuths + pose.theta)], axis=1)
        origin = np.array([pose.x, pose.y])

        best_range = np.full(azimuths.size, np.inf)
        best_refl = np.zeros(azimuths.size)
        for centre, radius, refl in cylinders:
            rel = np.asarray(centre, dtype=float) - origin
            # |o + t d - c|^2 = r^2  ->  t^2 - 2 t (d.rel) + |rel|^2 - r^2 = 0
            b = dirs @ rel
            c = float(rel @ rel) - radius * radius
            disc = b * b - c
            ok = disc >= 0.0
            t_hit = b - np.sqrt(np.where(ok, disc, 0.0))
            valid = ok & (t_hit > 0.1) & (t_hit < self.max_range)
            closer = valid & (t_hit < best_range)
            best_range = np.where(closer, t_hit, best_range)
            best_refl = np.where(closer, refl, best_refl)

        hit = np.isfinite(best_range)
        hit &= rng.uniform(size=hit.size) >= self.dropout
        angles = azimuths[hit]
        ranges = best_range[hit] + rng.normal(0.0, self.range_sigma,
                                              size=int(hit.sum()))
        intensity = np.clip(
            best_refl[hit] + rng.normal(0.0, self.intensity_sigma,
                                        size=int(hit.sum())), 0.0, 1.0)
        return ObjectReturns(angles=angles, ranges=ranges, intensity=intensity)


def _is_flat(landmark: PointLandmark) -> bool:
    """Road markings lie on the ground; they never produce object returns."""
    return landmark.height <= 0.05


def _segment_distances_block(points: np.ndarray, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Exact (P, S) point-to-segment distance matrix.

    x/y components stay as separate 2-D arrays (no (P, S, 2) temporaries);
    every elementwise operation mirrors the einsum formulation in the same
    order, so the distances are bit-identical to it.
    """
    ax, ay = a[:, 0], a[:, 1]
    dx = b[:, 0] - ax
    dy = b[:, 1] - ay
    denom = dx * dx + dy * dy  # (S,)
    px = points[:, 0, None]
    py = points[:, 1, None]
    relx = px - ax[None, :]
    rely = py - ay[None, :]
    t = np.clip((relx * dx[None, :] + rely * dy[None, :])
                / np.maximum(denom, 1e-300)[None, :], 0.0, 1.0)
    fx = px - (ax[None, :] + t * dx[None, :])
    fy = py - (ay[None, :] + t * dy[None, :])
    return np.sqrt(fx * fx + fy * fy)

