"""Localization: the survey's most populated application area.

Substrates (:class:`ParticleFilter2D`, :class:`PoseEKF`) plus one module
per surveyed technique family — lane-marking LiDAR localization [50],
landmark triangulation and HRLs [53], [72], geometric-strength analysis
[49], lane-surface particles [48], bitwise raster matching (HDMI-Loc)
[23], monocular vector-map localization (MLVHM) [22], lane-level map
matching with integrity [59], ADAS multi-sensor fusion [54], cooperative
LDM exchange [55], and coarse-to-fine semantic alignment [56].
"""

from repro.localization.particle_filter import ParticleFilter2D
from repro.localization.ekf import PoseEKF
from repro.localization.map_matching import (
    LaneMatch,
    LaneMatcher,
)
from repro.localization.landmarks import (
    LandmarkLocalizer,
    associate_detections,
    detect_hrl,
)
from repro.localization.geometric import (
    LandmarkLayout,
    simulate_layout_error,
)
from repro.localization.lane_marking import (
    LaneMarkingLocalizer,
    extract_marking_points,
    hough_lines,
)
from repro.localization.hdmi_loc import HdmiLocalizer, rasterize_map
from repro.localization.mlvhm import MonocularLocalizer
from repro.localization.surfaces import LaneSurfaceFilter
from repro.localization.adas import AdasFusionLocalizer
from repro.localization.cooperative import CooperativeLocalizer, LdmMessage
from repro.localization.semantic import SemanticAligner

__all__ = [
    "AdasFusionLocalizer",
    "CooperativeLocalizer",
    "HdmiLocalizer",
    "LandmarkLayout",
    "LandmarkLocalizer",
    "LaneMarkingLocalizer",
    "LaneMatch",
    "LaneMatcher",
    "LaneSurfaceFilter",
    "LdmMessage",
    "MonocularLocalizer",
    "ParticleFilter2D",
    "PoseEKF",
    "SemanticAligner",
    "associate_detections",
    "detect_hrl",
    "extract_marking_points",
    "hough_lines",
    "rasterize_map",
    "simulate_layout_error",
]
