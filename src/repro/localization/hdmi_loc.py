"""HDMI-Loc: bitwise raster-map particle localization [23].

The vector HD map is rasterized once into an 8-bit-per-cell
:class:`~repro.geometry.raster.BitmaskRaster` (one bit per semantic
class). Online, the vehicle builds a small body-frame patch of labelled
points from its sensors; each particle projects the patch into the map
raster and scores the bitwise agreement. Storage drops by orders of
magnitude versus the vector map while the filter stays sub-metre — the
paper reports a 0.3 m median over an 11 km drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.elements import BoundaryType, LaneBoundary
from repro.core.hdmap import HDMap
from repro.errors import LocalizationError
from repro.geometry.raster import BitmaskRaster, GridSpec
from repro.geometry.transform import SE2
from repro.localization.particle_filter import ParticleFilter2D

RASTER_CLASSES = ("marking", "road_edge", "crosswalk", "landmark")

DASH_LENGTH = 3.0
DASH_GAP = 4.5


def boundary_sample_points(boundary: LaneBoundary,
                           spacing: float = 0.35) -> np.ndarray:
    """Sample a boundary's painted surface.

    Dashed boundaries are sampled only on their painted dashes — the
    along-track structure that makes raster matching observable in the
    longitudinal direction.
    """
    line = boundary.line
    stations = np.arange(0.0, line.length, spacing)
    if boundary.boundary_type is BoundaryType.DASHED:
        period = DASH_LENGTH + DASH_GAP
        painted = np.mod(stations, period) < DASH_LENGTH
        stations = stations[painted]
    if stations.size == 0:
        return np.zeros((0, 2))
    return line.points_at(stations)


def _boundary_class(boundary: LaneBoundary) -> str:
    return ("road_edge"
            if boundary.boundary_type in (BoundaryType.ROAD_EDGE,
                                          BoundaryType.CURB)
            else "marking")


def rasterize_map(hdmap: HDMap, resolution: float = 0.25,
                  padding: float = 10.0) -> BitmaskRaster:
    """Collapse the vector map into the HDMI-Loc 8-bit label image."""
    spec = GridSpec.from_bounds(hdmap.bounds(), resolution, padding)
    raster = BitmaskRaster(spec, RASTER_CLASSES)
    # Every mark is dilated by one cell: observation noise (several cm)
    # must not drop a correctly positioned point into an unmarked
    # neighbouring cell, or the true pose scores little better than a
    # dash-period alias.
    offsets = np.array([[dx, dy] for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                       dtype=float) * resolution
    for boundary in hdmap.boundaries():
        pts = boundary_sample_points(boundary, spacing=resolution * 0.6)
        if pts.shape[0]:
            dilated = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
            raster.mark_points(_boundary_class(boundary), dilated)
    for crosswalk in hdmap.crosswalks():
        raster.mark_points("crosswalk", crosswalk.polygon)
    for lm in hdmap.landmarks():
        raster.mark_points("landmark", lm.position[None, :] + offsets)
    return raster


@dataclass
class LabelledPatch:
    """Body-frame labelled points observed by the vehicle this frame."""

    points_by_class: Dict[str, np.ndarray]

def observe_patch(reality: HDMap, pose: SE2, rng: np.random.Generator,
                  radius: float = 25.0, spacing: float = 0.75,
                  noise_sigma: float = 0.08,
                  dropout: float = 0.25) -> LabelledPatch:
    """Sensor surrogate: sample labelled points around the true pose.

    Emulates the front-end (stereo semantics in the paper) by sampling the
    *reality* map's elements near the vehicle, in the body frame, with
    point noise and dropout.
    """
    inv = pose.inverse()
    by_class: Dict[str, List[np.ndarray]] = {c: [] for c in RASTER_CLASSES}
    for element in reality.elements_in_radius(pose.x, pose.y, radius):
        if isinstance(element, LaneBoundary):
            cls = _boundary_class(element)
            sampled = boundary_sample_points(element, spacing)
            if sampled.shape[0] == 0:
                continue
            near = np.hypot(sampled[:, 0] - pose.x,
                            sampled[:, 1] - pose.y) <= radius
            pts = sampled[near]
            if pts.shape[0] == 0:
                continue
            keep = rng.uniform(size=pts.shape[0]) >= dropout
            pts = pts[keep]
            if pts.shape[0] == 0:
                continue
            body = inv.apply(pts) + rng.normal(0.0, noise_sigma,
                                               size=(pts.shape[0], 2))
            by_class[cls].append(body)
    landmarks = reality.landmarks_in_radius(pose.x, pose.y, radius)
    if landmarks:
        pts = np.array([lm.position for lm in landmarks])
        keep = rng.uniform(size=pts.shape[0]) >= dropout
        pts = pts[keep]
        if pts.shape[0]:
            body = inv.apply(pts) + rng.normal(0.0, noise_sigma,
                                               size=(pts.shape[0], 2))
            by_class["landmark"].append(body)
    return LabelledPatch({
        cls: (np.concatenate(chunks) if chunks else np.zeros((0, 2)))
        for cls, chunks in by_class.items()
    })


class HdmiLocalizer:
    """Bitwise particle filter over the rasterized map."""

    def __init__(self, raster: BitmaskRaster, rng: np.random.Generator,
                 n_particles: int = 500, match_sharpness: float = 60.0) -> None:
        self.raster = raster
        self.filter = ParticleFilter2D(n_particles, rng)
        self.match_sharpness = match_sharpness
        self._initialized = False
        self._bits = {cls: self.raster.bit_of(cls) for cls in raster.class_names}

    def initialize(self, pose: SE2, sigma_xy: float = 3.0,
                   sigma_theta: float = 0.1) -> None:
        self.filter.init_gaussian(pose, sigma_xy, sigma_theta)
        self._initialized = True

    def predict(self, ds: float, dtheta: float) -> None:
        self._check()
        self.filter.predict(ds, dtheta,
                            sigma_ds=0.04 + 0.04 * abs(ds),
                            sigma_dtheta=0.008 + 0.08 * abs(dtheta))

    # Sparse unambiguous features (landmarks) outvote the dense-but-
    # longitudinally-aliased marking dashes; without this the filter can
    # lock one dash period off.
    CLASS_WEIGHTS = {"marking": 1.0, "road_edge": 1.0, "crosswalk": 4.0,
                     "landmark": 12.0}

    def update(self, patch: LabelledPatch) -> None:
        """Weight = exp(sharpness * weighted bitwise match fraction)."""
        self._check()
        total = sum(self.CLASS_WEIGHTS.get(cls, 1.0) * body.shape[0]
                    for cls, body in patch.points_by_class.items())
        if total == 0:
            return
        spec = self.raster.spec
        data = self.raster.data

        def weight(states: np.ndarray) -> np.ndarray:
            scores = np.zeros(states.shape[0])
            cos_t = np.cos(states[:, 2])
            sin_t = np.sin(states[:, 2])
            for cls, body in patch.points_by_class.items():
                if body.shape[0] == 0:
                    continue
                bit = self._bits[cls]
                class_weight = self.CLASS_WEIGHTS.get(cls, 1.0)
                # World points per particle: (N, P, 2) — vectorized rotate.
                wx = (states[:, 0][:, None]
                      + body[:, 0][None, :] * cos_t[:, None]
                      - body[:, 1][None, :] * sin_t[:, None])
                wy = (states[:, 1][:, None]
                      + body[:, 0][None, :] * sin_t[:, None]
                      + body[:, 1][None, :] * cos_t[:, None])
                cols = np.floor((wx - spec.origin_x) / spec.resolution).astype(int)
                rows = np.floor((wy - spec.origin_y) / spec.resolution).astype(int)
                ok = ((cols >= 0) & (cols < spec.width)
                      & (rows >= 0) & (rows < spec.height))
                vals = np.zeros(ok.shape, dtype=np.uint8)
                vals[ok] = data[rows[ok], cols[ok]]
                scores += class_weight * ((vals & bit) != 0).sum(axis=1)
            match_fraction = scores / total
            w = np.exp(self.match_sharpness * (match_fraction
                                               - match_fraction.max()))
            return w

        self.filter.update(weight)
        self.filter.resample_if_needed()

    def estimate(self) -> SE2:
        self._check()
        return self.filter.estimate()

    def _check(self) -> None:
        if not self._initialized:
            raise LocalizationError("localizer not initialized")
