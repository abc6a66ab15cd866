"""HD-map geometry from vehicle probe data (Massow et al. [28]).

Connected vehicles stream position probes; the pipeline aggregates them
into lane centerlines. Two operating modes, as in the paper:

- *GPS-only*: raw probe fixes, clustered laterally per road corridor.
  Per-vehicle GNSS biases do not cancel within one trace, so accuracy
  saturates in the low metres (paper: 2.4 m).
- *sensor-fused*: each probe also carries the camera's lane-centre offset,
  which removes the in-lane wander and part of the lateral GNSS error
  (paper: 1.9 m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.elements import RoadSegment
from repro.core.hdmap import HDMap
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.polyline import Polyline
from repro.sensors.probe import ProbeTrace


@dataclass
class ProbeMapResult:
    """Inferred centerlines per (segment, lane index) with accuracy."""

    centerlines: List[Polyline]
    centerline_error: ErrorStats
    lanes_found: int
    lanes_true: int


class ProbeMapper:
    """Aggregates probe traces into per-lane centerlines.

    The road *corridors* (segment reference lines without lane detail, the
    "navigation map" prior the paper assumes) come from the true map's
    segments; the lane-level content is inferred purely from probes.
    """

    def __init__(self, truth: HDMap, station_bin: float = 20.0,
                 use_lane_sensor: bool = False) -> None:
        self.truth = truth
        self.station_bin = station_bin
        self.use_lane_sensor = use_lane_sensor

    # ------------------------------------------------------------------
    def build(self, traces: Sequence[ProbeTrace]) -> ProbeMapResult:
        segments = list(self.truth.segments())
        centerlines: List[Polyline] = []
        for segment in segments:
            centerlines.extend(self._lanes_for_segment(segment, traces))
        error = self._score(centerlines)
        lanes_true = sum(s.lane_count for s in segments)
        return ProbeMapResult(
            centerlines=centerlines,
            centerline_error=error,
            lanes_found=len(centerlines),
            lanes_true=lanes_true,
        )

    # ------------------------------------------------------------------
    def _lanes_for_segment(self, segment: RoadSegment,
                           traces: Sequence[ProbeTrace]) -> List[Polyline]:
        ref = segment.reference_line
        corridor = 3.7 * (max(len(segment.forward_lanes), 1)
                          + max(len(segment.backward_lanes), 1)) / 2.0 + 6.0
        # Collect (station, lateral) samples inside the corridor.
        samples: List[Tuple[float, float]] = []
        for trace in traces:
            lane_offsets = {
                round(obs.t, 3): obs.lane_centre_offset
                for obs in trace.lane_observations
                if obs.lane_centre_offset is not None
            } if self.use_lane_sensor else {}
            for fix in trace.fixes:
                s, d = ref.project(fix.position)
                if not (0.0 < s < ref.length) or abs(d) > corridor:
                    continue
                if self.use_lane_sensor:
                    offset = lane_offsets.get(round(fix.t, 3))
                    if offset is not None:
                        # The camera says how far the vehicle sits from its
                        # lane centre; subtracting it snaps the probe onto
                        # the centre of whatever lane it drives.
                        d = d - offset
                samples.append((s, d))
        if len(samples) < 30:
            return []
        arr = np.array(samples)

        # Lateral clustering into lanes: histogram peaks at 3.5 m pitch.
        laterals = arr[:, 1]
        lane_centres = _lateral_peaks(laterals)
        if not lane_centres:
            return []

        lanes: List[Polyline] = []
        n_bins = max(2, int(ref.length / self.station_bin))
        edges = np.linspace(0.0, ref.length, n_bins + 1)
        for centre in lane_centres:
            members = arr[np.abs(arr[:, 1] - centre) <= 1.6]
            if members.shape[0] < 20:
                continue
            pts = []
            for b in range(n_bins):
                in_bin = members[(members[:, 0] >= edges[b])
                                 & (members[:, 0] < edges[b + 1])]
                if in_bin.shape[0] < 3:
                    continue
                s_mid = float(in_bin[:, 0].mean())
                d_mid = float(np.median(in_bin[:, 1]))
                base = ref.point_at(s_mid)
                normal = ref.normal_at(s_mid)
                pts.append(base + d_mid * normal)
            if len(pts) >= 2:
                try:
                    lanes.append(Polyline(np.array(pts)))
                except Exception:
                    continue
        return lanes

    # ------------------------------------------------------------------
    def _score(self, centerlines: Sequence[Polyline]) -> ErrorStats:
        true_lines = [lane.centerline for lane in self.truth.lanes()]
        errors: List[float] = []
        for inferred in centerlines:
            for p in inferred.resample(15.0).points:
                errors.append(min(line.distance_to(p) for line in true_lines))
        if not errors:
            errors = [float("nan")]
        return error_stats(errors)


def _lateral_peaks(laterals: np.ndarray, lane_pitch: float = 3.5,
                   min_fraction: float = 0.12) -> List[float]:
    """Find lane-centre offsets as peaks of the lateral histogram."""
    if laterals.size < 10:
        return []  # a handful of probes does not define a lane
    bins = np.arange(laterals.min() - 1.0, laterals.max() + 1.0, 0.5)
    if bins.size < 3:
        return []
    counts, edges = np.histogram(laterals, bins=bins)
    total = counts.sum()
    centres: List[float] = []
    order = np.argsort(-counts)
    for i in order:
        if counts[i] < min_fraction * total / 2:
            break
        candidate = float((edges[i] + edges[i + 1]) / 2.0)
        if all(abs(candidate - c) >= lane_pitch * 0.7 for c in centres):
            # Refine with the local mean.
            members = laterals[np.abs(laterals - candidate) <= 1.2]
            if members.size:
                centres.append(float(members.mean()))
    return sorted(centres)
