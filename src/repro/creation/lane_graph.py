"""Lane-level HD maps from a road graph + BEV lane semantics
(Zhou et al. [38]).

The paper starts from OpenStreetMap (road-segment topology, no lanes) and
adds lane-level detail from bird's-eye-view semantic segmentation of ego
drives. Here: the "OSM" input is the true map's segment skeleton (reference
lines + connectivity, coarsened), and the BEV semantics are lateral
lane-marking offsets observed along drives. Output: a directed lane-level
graph with per-segment lane counts and centerlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elements import LaneBoundary, RoadSegment
from repro.core.hdmap import HDMap
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.world.traffic import Trajectory


@dataclass
class BevObservation:
    """One BEV frame: marking lateral offsets seen around the vehicle."""

    t: float
    pose: SE2
    marking_offsets: List[float]  # signed body-frame laterals of markings


def observe_bev_markings(reality: HDMap, pose: SE2,
                         rng: np.random.Generator,
                         max_lateral: float = 9.0,
                         noise_sigma: float = 0.1,
                         detection_prob: float = 0.85) -> BevObservation:
    """BEV semantic-segmentation surrogate: visible marking offsets."""
    offsets: List[float] = []
    point = np.array([pose.x, pose.y])
    for element in reality.elements_in_radius(pose.x, pose.y,
                                              max_lateral + 5.0,
                                              kind="boundary"):
        assert isinstance(element, LaneBoundary)
        s, _ = element.line.project(point)
        if not 0.0 < s < element.line.length:
            continue
        body = pose.inverse().apply(element.line.point_at(s))
        if abs(body[1]) <= max_lateral and rng.uniform() < detection_prob:
            offsets.append(float(body[1] + rng.normal(0.0, noise_sigma)))
    return BevObservation(t=0.0, pose=pose, marking_offsets=offsets)


@dataclass
class LaneGraphResult:
    lanes: List[Polyline]
    lane_count_accuracy: float  # fraction of segments with correct count
    centerline_error: ErrorStats


class LaneGraphBuilder:
    """Builds the lane-level graph from the segment skeleton + BEV frames."""

    def __init__(self, truth: HDMap, lane_width: float = 3.5) -> None:
        self.truth = truth
        self.lane_width = lane_width

    # ------------------------------------------------------------------
    def collect(self, trajectory: Trajectory, rng: np.random.Generator,
                stride_s: float = 1.0) -> List[BevObservation]:
        frames = []
        t = trajectory.start_time
        while t <= trajectory.end_time:
            pose = trajectory.pose_at(t)
            frame = observe_bev_markings(self.truth, pose, rng)
            frame = BevObservation(t=t, pose=pose,
                                   marking_offsets=frame.marking_offsets)
            frames.append(frame)
            t += stride_s
        return frames

    # ------------------------------------------------------------------
    def build(self, frames: Sequence[BevObservation]) -> LaneGraphResult:
        lanes: List[Polyline] = []
        correct_counts = 0
        evaluated = 0
        for segment in self.truth.segments():
            seg_lanes, count_ok = self._segment_lanes(segment, frames)
            lanes.extend(seg_lanes)
            if count_ok is not None:
                evaluated += 1
                correct_counts += int(count_ok)
        true_lines = [lane.centerline for lane in self.truth.lanes()]
        errors: List[float] = []
        for line in lanes:
            for p in line.resample(20.0).points:
                errors.append(min(t.distance_to(p) for t in true_lines))
        if not errors:
            errors = [float("nan")]
        return LaneGraphResult(
            lanes=lanes,
            lane_count_accuracy=(correct_counts / evaluated) if evaluated else 0.0,
            centerline_error=error_stats(errors),
        )

    # ------------------------------------------------------------------
    def _segment_lanes(self, segment: RoadSegment,
                       frames: Sequence[BevObservation]
                       ) -> Tuple[List[Polyline], Optional[bool]]:
        ref = segment.reference_line
        # Gather marking offsets relative to the *reference line* from all
        # frames whose pose lies on this segment.
        offsets: List[float] = []
        for frame in frames:
            s, d_vehicle = ref.project((frame.pose.x, frame.pose.y))
            if not (0.0 < s < ref.length) or abs(d_vehicle) > 12.0:
                continue
            heading = ref.heading_at(s)
            flip = np.cos(frame.pose.theta - heading) < 0
            for off in frame.marking_offsets:
                d = d_vehicle + (-off if flip else off)
                offsets.append(d)
        if len(offsets) < 20:
            return [], None
        marking_positions = _offset_peaks(np.array(offsets))
        if len(marking_positions) < 2:
            return [], None
        marking_positions.sort()
        lanes: List[Polyline] = []
        for left, right in zip(marking_positions[1:], marking_positions[:-1]):
            gap = left - right
            if not 2.2 <= gap <= 5.5:
                continue
            centre_offset = (left + right) / 2.0
            try:
                lanes.append(ref.offset(centre_offset, spacing=10.0))
            except Exception:
                continue
        inferred_count = len(lanes)
        true_count = segment.lane_count
        return lanes, inferred_count == true_count


def _offset_peaks(offsets: np.ndarray, bin_width: float = 0.4,
                  min_fraction: float = 0.05) -> List[float]:
    bins = np.arange(offsets.min() - bin_width, offsets.max() + bin_width,
                     bin_width)
    if bins.size < 3:
        return []
    counts, edges = np.histogram(offsets, bins=bins)
    total = counts.sum()
    peaks: List[float] = []
    order = np.argsort(-counts)
    for i in order:
        if counts[i] < max(4, min_fraction * total / 3):
            break
        candidate = float((edges[i] + edges[i + 1]) / 2.0)
        if all(abs(candidate - p) >= 1.8 for p in peaks):
            members = offsets[np.abs(offsets - candidate) <= bin_width * 1.5]
            if members.size:
                peaks.append(float(members.mean()))
    return peaks
