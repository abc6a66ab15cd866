"""GeoJSON-flavoured text serialization of HD maps.

One feature per element; element ids, kinds and typed attributes are kept
in ``properties`` so a round trip is lossless for every element type in
:mod:`repro.core.elements`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.elements import (
    BoundaryType,
    Crosswalk,
    Lane,
    LaneBoundary,
    LaneType,
    MapElement,
    Node,
    Pole,
    RoadMarking,
    RoadSegment,
    SignType,
    StopLine,
    TrafficLight,
    TrafficSign,
)
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.regulatory import RegulatoryElement, RuleType
from repro.errors import StorageError
from repro.geometry.polyline import Polyline

FORMAT_VERSION = 1


def _coords(line: Polyline) -> List[List[float]]:
    return [[round(float(x), 4), round(float(y), 4)] for x, y in line.points]


def _point(position: np.ndarray) -> List[float]:
    return [round(float(position[0]), 4), round(float(position[1]), 4)]


def _id_str(eid: Optional[ElementId]) -> Optional[str]:
    return None if eid is None else str(eid)


def _element_to_feature(element: MapElement) -> Dict:
    props: Dict[str, object] = {"id": str(element.id), "kind": element.id.kind}
    geometry: Dict[str, object]
    if isinstance(element, Node):
        geometry = {"type": "Point", "coordinates": _point(element.position)}
    elif isinstance(element, LaneBoundary):
        geometry = {"type": "LineString", "coordinates": _coords(element.line)}
        props.update(boundary_type=element.boundary_type.value,
                     reflectivity=element.reflectivity)
    elif isinstance(element, Lane):
        geometry = {"type": "LineString", "coordinates": _coords(element.centerline)}
        props.update(
            left_boundary=_id_str(element.left_boundary),
            right_boundary=_id_str(element.right_boundary),
            width=element.width,
            lane_type=element.lane_type.value,
            speed_limit=element.speed_limit,
            segment=_id_str(element.segment),
        )
    elif isinstance(element, RoadSegment):
        geometry = {"type": "LineString",
                    "coordinates": _coords(element.reference_line)}
        props.update(
            start_node=_id_str(element.start_node),
            end_node=_id_str(element.end_node),
            forward_lanes=[str(i) for i in element.forward_lanes],
            backward_lanes=[str(i) for i in element.backward_lanes],
        )
    elif isinstance(element, TrafficSign):
        geometry = {"type": "Point", "coordinates": _point(element.position)}
        props.update(sign_type=element.sign_type.value, value=element.value,
                     facing=element.facing, height=element.height,
                     reflectivity=element.reflectivity)
    elif isinstance(element, TrafficLight):
        geometry = {"type": "Point", "coordinates": _point(element.position)}
        props.update(facing=element.facing, cycle=list(element.cycle),
                     phase_offset=element.phase_offset, height=element.height)
    elif isinstance(element, Pole):
        geometry = {"type": "Point", "coordinates": _point(element.position)}
        props.update(height=element.height, reflectivity=element.reflectivity)
    elif isinstance(element, RoadMarking):
        geometry = {"type": "Point", "coordinates": _point(element.position)}
        props.update(marking_type=element.marking_type,
                     reflectivity=element.reflectivity)
    elif isinstance(element, Crosswalk):
        geometry = {"type": "Polygon",
                    "coordinates": [[list(map(float, p)) for p in element.polygon]]}
    elif isinstance(element, StopLine):
        geometry = {"type": "LineString", "coordinates": _coords(element.line)}
    elif isinstance(element, RegulatoryElement):
        geometry = {"type": "Point", "coordinates": [0.0, 0.0]}
        props.update(
            rule_type=element.rule_type.value,
            lanes=[str(i) for i in element.lanes],
            evidence=[str(i) for i in element.evidence],
            value=element.value,
            yields_to=[str(i) for i in element.yields_to],
        )
    else:
        raise StorageError(f"cannot serialize element type {type(element).__name__}")
    attributes = getattr(element, "attributes", None)
    if attributes:
        props["attributes"] = attributes
    return {"type": "Feature", "geometry": geometry, "properties": props}


def map_to_dict(hdmap: HDMap) -> Dict:
    """Serialize a map to a GeoJSON-style dict."""
    return {
        "type": "FeatureCollection",
        "format_version": FORMAT_VERSION,
        "name": hdmap.name,
        "map_version": hdmap.version,
        "features": [_element_to_feature(e) for e in hdmap.elements()],
    }


def _opt_id(value: Optional[str]) -> Optional[ElementId]:
    return None if value is None else ElementId.parse(value)


def _feature_to_element(feature: Dict) -> MapElement:
    props = feature["properties"]
    geometry = feature["geometry"]
    eid = ElementId.parse(props["id"])
    kind = props["kind"]
    coords = geometry.get("coordinates")
    if kind == "node":
        return Node(id=eid, position=np.asarray(coords, dtype=float))
    if kind == "boundary":
        return LaneBoundary(
            id=eid, line=Polyline(coords),
            boundary_type=BoundaryType(props["boundary_type"]),
            reflectivity=float(props["reflectivity"]),
        )
    if kind == "lane":
        return Lane(
            id=eid, centerline=Polyline(coords),
            left_boundary=_opt_id(props.get("left_boundary")),
            right_boundary=_opt_id(props.get("right_boundary")),
            width=float(props["width"]),
            lane_type=LaneType(props["lane_type"]),
            speed_limit=float(props["speed_limit"]),
            segment=_opt_id(props.get("segment")),
        )
    if kind == "segment":
        return RoadSegment(
            id=eid,
            start_node=_opt_id(props.get("start_node")),
            end_node=_opt_id(props.get("end_node")),
            reference_line=Polyline(coords),
            forward_lanes=[ElementId.parse(s) for s in props["forward_lanes"]],
            backward_lanes=[ElementId.parse(s) for s in props["backward_lanes"]],
        )
    if kind == "sign":
        return TrafficSign(
            id=eid, position=np.asarray(coords, dtype=float),
            sign_type=SignType(props["sign_type"]),
            value=props.get("value"),
            facing=float(props["facing"]),
            height=float(props["height"]),
            reflectivity=float(props["reflectivity"]),
        )
    if kind == "light":
        return TrafficLight(
            id=eid, position=np.asarray(coords, dtype=float),
            facing=float(props["facing"]),
            cycle=tuple(props["cycle"]),
            phase_offset=float(props["phase_offset"]),
            height=float(props["height"]),
        )
    if kind == "pole":
        return Pole(id=eid, position=np.asarray(coords, dtype=float),
                    height=float(props["height"]),
                    reflectivity=float(props["reflectivity"]))
    if kind == "marking":
        return RoadMarking(id=eid, position=np.asarray(coords, dtype=float),
                           marking_type=props["marking_type"],
                           reflectivity=float(props["reflectivity"]))
    if kind == "crosswalk":
        return Crosswalk(id=eid, polygon=np.asarray(coords[0], dtype=float))
    if kind == "stopline":
        return StopLine(id=eid, line=Polyline(coords))
    if kind == "regulatory":
        return RegulatoryElement(
            id=eid,
            rule_type=RuleType(props["rule_type"]),
            lanes=[ElementId.parse(s) for s in props["lanes"]],
            evidence=[ElementId.parse(s) for s in props["evidence"]],
            value=props.get("value"),
            yields_to=[ElementId.parse(s) for s in props["yields_to"]],
        )
    raise StorageError(f"unknown element kind {kind!r}")


def map_from_dict(data: Dict) -> HDMap:
    """Deserialize a map produced by :func:`map_to_dict`."""
    if not isinstance(data, dict) or data.get("type") != "FeatureCollection":
        raise StorageError("not a FeatureCollection document")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported format version {version!r}")
    hdmap = HDMap(data.get("name", "map"))
    hdmap.version = int(data.get("map_version", 0))
    for feature in data["features"]:
        hdmap.add(_feature_to_element(feature))
    return hdmap


def save_map(hdmap: HDMap, path: Union[str, Path]) -> int:
    """Write a map as JSON; returns the byte size written."""
    text = json.dumps(map_to_dict(hdmap), separators=(",", ":"))
    Path(path).write_text(text)
    return len(text.encode())


def load_map(path: Union[str, Path]) -> HDMap:
    """Read a map written by :func:`save_map`; a file that is not JSON
    raises :class:`StorageError` naming the path."""
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise StorageError(f"{path}: not a JSON map ({exc})") from None
    return map_from_dict(data)
