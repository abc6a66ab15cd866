"""OSM-style road-network ingestion.

Zhou et al. [38] bootstrap lane-level maps from OpenStreetMap; this module
provides the ingestion side: a minimal OSM-like document (nodes with
lat/lon, ways with highway tags) is projected into the local metric frame
and expanded into a full HD map via :class:`~repro.world.builder.
WorldBuilder` — lanes, boundaries, and topology included, using the tag
conventions OSM actually uses (``lanes``, ``maxspeed``, ``oneway``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hdmap import HDMap
from repro.errors import MapModelError
from repro.geometry.geodesy import LocalProjector
from repro.geometry.polyline import Polyline
from repro.world.builder import RoadSpec, WorldBuilder

# Default urban speed by highway class, m/s.
SPEED_BY_HIGHWAY = {
    "motorway": 33.33,
    "trunk": 27.78,
    "primary": 22.22,
    "secondary": 16.67,
    "tertiary": 13.89,
    "residential": 8.33,
    "service": 5.56,
}

DRIVABLE_HIGHWAYS = frozenset(SPEED_BY_HIGHWAY)


@dataclass
class OsmDocument:
    """A minimal OSM extract: nodes (lat, lon) and tagged ways."""

    nodes: Dict[int, Tuple[float, float]]
    ways: List[Dict]

    @staticmethod
    def from_dict(data: Dict) -> "OsmDocument":
        nodes = {int(k): (float(v[0]), float(v[1]))
                 for k, v in data["nodes"].items()}
        return OsmDocument(nodes=nodes, ways=list(data["ways"]))


def _parse_maxspeed(value: Optional[str]) -> Optional[float]:
    """OSM maxspeed tag -> m/s (supports '50', '50 km/h', '30 mph')."""
    if value is None:
        return None
    text = str(value).strip().lower()
    try:
        if text.endswith("mph"):
            return float(text[:-3].strip()) * 0.44704
        if text.endswith("km/h"):
            text = text[:-4].strip()
        return float(text) / 3.6
    except ValueError:
        return None


def _lane_split(tags: Dict) -> Tuple[int, int]:
    """(forward, backward) lane counts from OSM tags."""
    oneway = str(tags.get("oneway", "no")).lower() in ("yes", "true", "1")
    try:
        total = max(1, int(tags.get("lanes", 2 if not oneway else 1)))
    except (TypeError, ValueError):
        total = 1 if oneway else 2
    if oneway:
        return total, 0
    forward = max(1, total // 2)
    return forward, max(1, total - forward)


def import_osm(document: OsmDocument,
               projector: Optional[LocalProjector] = None,
               name: str = "osm-import",
               connect_radius: float = 18.0) -> HDMap:
    """Build an HD map from an OSM-like document.

    Non-drivable ways (no recognized ``highway`` tag) are skipped. Way
    endpoints shared by several ways become intersections, and turn
    connectors are generated across them.
    """
    if not document.nodes:
        raise MapModelError("OSM document has no nodes")
    if projector is None:
        lats = [lat for lat, _ in document.nodes.values()]
        lons = [lon for _, lon in document.nodes.values()]
        projector = LocalProjector(lat0=float(np.mean(lats)),
                                   lon0=float(np.mean(lons)))

    positions = {
        node_id: projector.to_local(np.array([lat]), np.array([lon]))[0]
        for node_id, (lat, lon) in document.nodes.items()
    }

    # Count how many drivable ways touch each node (intersection test).
    usage: Dict[int, int] = {}
    drivable = []
    for way in document.ways:
        tags = way.get("tags", {})
        if tags.get("highway") not in DRIVABLE_HIGHWAYS:
            continue
        node_ids = [int(n) for n in way["nodes"]]
        if len(node_ids) < 2:
            continue
        drivable.append((way, node_ids))
        for end in (node_ids[0], node_ids[-1]):
            usage[end] = usage.get(end, 0) + 1

    builder = WorldBuilder(name)
    intersections = [positions[n] for n, count in usage.items() if count > 1]
    for way, node_ids in drivable:
        tags = way.get("tags", {})
        pts = np.array([positions[n] for n in node_ids])
        try:
            ref = Polyline(pts)
        except Exception:
            continue
        setback = 12.0
        # Pull back from shared intersections so connectors take over.
        s0 = setback if usage.get(node_ids[0], 0) > 1 else 0.0
        s1 = (ref.length - setback if usage.get(node_ids[-1], 0) > 1
              else ref.length)
        if s1 - s0 < 15.0:
            continue
        ref = ref.slice(s0, s1)
        forward, backward = _lane_split(tags)
        speed = (_parse_maxspeed(tags.get("maxspeed"))
                 or SPEED_BY_HIGHWAY[tags["highway"]])
        builder.add_road(RoadSpec(
            reference=ref,
            forward_lanes=forward,
            backward_lanes=backward,
            speed_limit=speed,
        ))

    if intersections:
        from repro.world.generator import connect_intersections

        connect_intersections(builder.map, intersections,
                              radius=connect_radius)
    hdmap = builder.finish()
    if not list(hdmap.lanes()):
        raise MapModelError("no drivable ways found in the OSM document")
    return hdmap
