"""Raster-differencing map change detection (Diff-Net [46]).

Diff-Net projects map elements into rasterized images and lets a DNN
compare them with camera features to emit changes in one step. The
reproduction keeps the rasterize-and-difference architecture with a
classical comparator: the prior map and the camera evidence are both
rasterized around the vehicle, blurred (tolerance to small misalignment),
differenced, and thresholded into change regions with scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import ndimage

from repro.core.changes import ChangeType, MapChange
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.raster import GridSpec, RasterGrid
from repro.geometry.transform import SE2


@dataclass
class DiffRegion:
    """One detected change region."""

    position: Tuple[float, float]
    change_type: ChangeType  # ADDED (world has it, map lacks it) / REMOVED
    score: float

    def to_change(self) -> MapChange:
        return MapChange(self.change_type, ElementId("diff", 0),
                         self.position, detail="diffnet")


class DiffNet:
    """Rasterize prior vs observation, difference, extract regions."""

    def __init__(self, window: float = 60.0, resolution: float = 0.5,
                 blur_px: float = 1.2, threshold: float = 0.35,
                 min_region_cells: int = 3) -> None:
        self.window = window
        self.resolution = resolution
        self.blur_px = blur_px
        self.threshold = threshold
        self.min_region_cells = min_region_cells

    # ------------------------------------------------------------------
    def _raster(self, points: np.ndarray, spec: GridSpec) -> np.ndarray:
        grid = RasterGrid(spec)
        if points.shape[0]:
            grid.set_points(points, 1.0)
        blurred = ndimage.gaussian_filter(grid.data, self.blur_px)
        # Normalize so one isolated feature peaks at ~1.0 regardless of the
        # blur width (otherwise the change threshold depends on blur_px).
        return blurred / self._impulse_peak()

    def _impulse_peak(self) -> float:
        impulse = np.zeros((33, 33))
        impulse[16, 16] = 1.0
        return float(ndimage.gaussian_filter(impulse, self.blur_px).max())

    def _landmark_points(self, hdmap: HDMap, pose: SE2) -> np.ndarray:
        pts = [lm.position for lm in hdmap.landmarks_in_radius(
            pose.x, pose.y, self.window)]
        return np.array(pts) if pts else np.zeros((0, 2))

    # ------------------------------------------------------------------
    def compare(self, prior: HDMap, pose: SE2,
                observed_points: np.ndarray) -> List[DiffRegion]:
        """Detect changes around ``pose``.

        ``observed_points`` are world-frame landmark detections from the
        camera/LiDAR front end this frame (with localization noise already
        in them).
        """
        half = self.window
        spec = GridSpec.from_bounds(
            (pose.x - half, pose.y - half, pose.x + half, pose.y + half),
            self.resolution)
        map_raster = self._raster(self._landmark_points(prior, pose), spec)
        obs_raster = self._raster(np.asarray(observed_points, dtype=float)
                                  if len(observed_points) else
                                  np.zeros((0, 2)), spec)
        diff = obs_raster - map_raster
        regions: List[DiffRegion] = []
        regions.extend(self._extract(diff, spec, ChangeType.ADDED))
        regions.extend(self._extract(-diff, spec, ChangeType.REMOVED))
        return regions

    def _extract(self, signed_diff: np.ndarray, spec: GridSpec,
                 change_type: ChangeType) -> List[DiffRegion]:
        mask = signed_diff > self.threshold
        labelled, n = ndimage.label(mask)
        regions = []
        for k in range(1, n + 1):
            cells = np.argwhere(labelled == k)
            if cells.shape[0] < self.min_region_cells:
                continue
            centre_cell = cells.mean(axis=0)  # (row, col)
            world = spec.cell_to_world(
                np.array([centre_cell[1], centre_cell[0]]))
            score = float(signed_diff[labelled == k].max())
            regions.append(DiffRegion(
                position=(float(world[0]), float(world[1])),
                change_type=change_type,
                score=min(1.0, score),
            ))
        return regions
