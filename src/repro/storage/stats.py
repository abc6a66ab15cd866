"""Storage accounting across representations."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hdmap import HDMap
from repro.storage.binary import encode_map
from repro.storage.geojson import map_to_dict
from repro.storage.pointcloud import build_pointcloud_map


@dataclass(frozen=True)
class StorageReport:
    """Bytes (total and per mile) for each representation of one map."""

    road_miles: float
    pointcloud_bytes: int
    geojson_bytes: int
    binary_bytes: int
    binary_simplified_bytes: int

    @property
    def pointcloud_per_mile(self) -> float:
        return self.pointcloud_bytes / self.road_miles

    @property
    def geojson_per_mile(self) -> float:
        return self.geojson_bytes / self.road_miles

    @property
    def binary_per_mile(self) -> float:
        return self.binary_bytes / self.road_miles

    @property
    def binary_simplified_per_mile(self) -> float:
        return self.binary_simplified_bytes / self.road_miles

    @property
    def reduction_factor(self) -> float:
        """Point cloud vs compact vector (the Li et al. two-orders claim)."""
        return self.pointcloud_bytes / max(self.binary_simplified_bytes, 1)


def storage_report(hdmap: HDMap, rng: Optional[np.random.Generator] = None,
                   simplify_tolerance: float = 0.05) -> StorageReport:
    """Measure one map under every representation."""
    if rng is None:
        rng = np.random.default_rng(0)
    from repro.geometry.geodesy import MILE_METRES

    road_metres = sum(seg.reference_line.length for seg in hdmap.segments())
    road_miles = road_metres / MILE_METRES
    cloud = build_pointcloud_map(hdmap, rng)
    return StorageReport(
        road_miles=road_miles,
        pointcloud_bytes=len(cloud.to_bytes()),
        geojson_bytes=len(json.dumps(map_to_dict(hdmap),
                                     separators=(",", ":")).encode()),
        binary_bytes=len(encode_map(hdmap)),
        binary_simplified_bytes=len(encode_map(hdmap, simplify_tolerance)),
    )
