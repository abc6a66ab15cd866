"""Distributed crowd-sensing map update via RSU/MEC servers (Qi et al. [47]).

Vehicles upload raw detections to the *roadside unit* covering their
region; the MEC server in each RSU matches them against its HD-map tile
and forwards only the extracted *changes* to the central aggregator. The
win is architectural: the central node receives kilobytes of change
records instead of the raw detection firehose, and aggregation latency is
bounded by the per-region traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.changes import ChangeType, MapChange
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import TileId, TileScheme

RAW_DETECTION_BYTES = 32  # t, x, y, type, covariance summary
CHANGE_RECORD_BYTES = 24


@dataclass
class RsuRegion:
    """One RSU's coverage tile."""

    tile: TileId
    bounds: Tuple[float, float, float, float]


@dataclass
class MecServer:
    """Edge server: matches uploads against its map tile, emits changes."""

    region: RsuRegion
    prior: HDMap
    match_radius: float = 3.0
    min_evidence: int = 3
    raw_bytes_received: int = 0
    _unmatched: List[np.ndarray] = field(default_factory=list)
    _miss_counts: Dict[ElementId, int] = field(default_factory=dict)
    _seen_counts: Dict[ElementId, int] = field(default_factory=dict)

    def ingest(self, detections: Sequence[np.ndarray],
               visible_prior_ids: Sequence[ElementId]) -> None:
        """One vehicle's upload inside this region."""
        self.raw_bytes_received += RAW_DETECTION_BYTES * len(detections)
        prior_positions = {
            eid: self.prior.get(eid).position  # type: ignore[attr-defined]
            for eid in visible_prior_ids
        }
        matched = set()
        for det in detections:
            best = None
            best_d = self.match_radius
            for eid, pos in prior_positions.items():
                d = float(np.hypot(*(pos - det)))
                if d < best_d:
                    best, best_d = eid, d
            if best is None:
                self._unmatched.append(np.asarray(det, dtype=float))
            else:
                matched.add(best)
                self._seen_counts[best] = self._seen_counts.get(best, 0) + 1
        for eid in visible_prior_ids:
            if eid not in matched:
                self._miss_counts[eid] = self._miss_counts.get(eid, 0) + 1

    def extract_changes(self) -> List[MapChange]:
        """Pre-processing result: only changes leave the edge."""
        changes: List[MapChange] = []
        for eid, misses in self._miss_counts.items():
            seen = self._seen_counts.get(eid, 0)
            if misses >= self.min_evidence and misses > 2 * seen:
                pos = self.prior.get(eid).position  # type: ignore[attr-defined]
                changes.append(MapChange(
                    ChangeType.REMOVED, eid,
                    (float(pos[0]), float(pos[1])),
                ))
        if self._unmatched:
            from repro.creation.crowdsource import _greedy_cluster

            pts = np.array(self._unmatched)
            for members in _greedy_cluster(pts, self.match_radius):
                if len(members) < self.min_evidence:
                    continue
                centre = pts[members].mean(axis=0)
                changes.append(MapChange(
                    ChangeType.ADDED, ElementId("mec", len(changes)),
                    (float(centre[0]), float(centre[1])),
                ))
        return changes


class CentralAggregator:
    """Receives change records from the MEC fleet; tracks traffic."""

    def __init__(self) -> None:
        self.changes: List[MapChange] = []
        self.bytes_received: int = 0

    def receive(self, changes: Sequence[MapChange]) -> None:
        self.changes.extend(changes)
        self.bytes_received += CHANGE_RECORD_BYTES * len(changes)

    def centralized_baseline_bytes(self, servers: Sequence[MecServer]) -> int:
        """What the central node would have received without MEC: all raw."""
        return sum(s.raw_bytes_received for s in servers)

    def compression_factor(self, servers: Sequence[MecServer]) -> float:
        if self.bytes_received == 0:
            return float("inf")
        return self.centralized_baseline_bytes(servers) / self.bytes_received


def build_rsu_grid(prior: HDMap, tile_size: float = 500.0
                   ) -> List[Tuple[RsuRegion, MecServer]]:
    """One RSU/MEC per tile covering the map."""
    scheme = TileScheme(tile_size)
    out = []
    for tile in scheme.coverage(prior):
        region = RsuRegion(tile=tile, bounds=scheme.tile_bounds(tile))
        out.append((region, MecServer(region=region, prior=prior)))
    return out
