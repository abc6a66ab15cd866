"""Frozen pre-optimization kernels, kept verbatim for equivalence + speedup.

Every function here is the hot-path implementation as it existed *before*
the vectorization pass, preserved so that:

- the equivalence tests can assert the optimized kernels produce
  bit-identical outputs on the same rng stream, and
- the benchmark suite can report honest speedups against the real
  predecessor rather than a strawman.

Nothing in the production path imports this module.
"""

from __future__ import annotations

import math
import struct
import zlib
from io import BytesIO
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.changes import ChangeType, MapChange
from repro.core.elements import (
    BoundaryType,
    Crosswalk,
    Lane,
    LaneBoundary,
    MapElement,
    Node,
    Pole,
    RoadMarking,
    RoadSegment,
    StopLine,
    TrafficLight,
    TrafficSign,
)
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.regulatory import RegulatoryElement
from repro.errors import StorageError
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.pack.delta import (
    _CHANGE_TAGS,
    _TAG_CHANGES,
    DELTA_MAGIC,
    DELTA_VERSION,
    _collect_kinds,
)
from repro.sensors.lidar import (
    ASPHALT_INTENSITY,
    CURB_HALF_WIDTH,
    OFFROAD_INTENSITY,
    PAINT_HALF_WIDTH,
    GroundReturns,
    LidarScan,
    LidarScanner,
)
from repro.storage.binary import (
    _BOUNDARY_TYPES,
    _LANE_TYPES,
    _RULE_TYPES,
    _SIGN_TYPES,
    _TAG_TYPES,
    _TYPE_TAGS,
    MAGIC,
    QUANTUM,
    VERSION,
    _simplified,
)
from repro.storage.binary import referenced_ids as _referenced_ids
from repro.update.distribution import SyncDelta


# ----------------------------------------------------------------------
# Polyline projection: the scalar per-point loop every consumer ran.
# ----------------------------------------------------------------------
def project_scalar(polyline: Polyline,
                   points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point ``Polyline.project`` loop — what ``project_batch`` replaced."""
    pts = np.asarray(points, dtype=float)
    stations = np.empty(pts.shape[0])
    laterals = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        s, d = polyline.project(p)
        stations[i] = s
        laterals[i] = d
    return stations, laterals


# ----------------------------------------------------------------------
# Point-to-segments distance: the unchunked (P, S) matrix version.
# ----------------------------------------------------------------------
def points_to_segments_min_distance_reference(points: np.ndarray,
                                              a: np.ndarray,
                                              b: np.ndarray) -> np.ndarray:
    d = b - a  # (S, 2)
    denom = np.einsum("ij,ij->i", d, d)  # (S,)
    rel = points[:, None, :] - a[None, :, :]  # (P, S, 2)
    t = np.einsum("psj,sj->ps", rel, d) / np.maximum(denom[None, :], 1e-300)
    t = np.clip(t, 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * d[None, :, :]
    diff = points[:, None, :] - closest
    dist2 = np.einsum("psj,psj->ps", diff, diff)
    return np.sqrt(dist2.min(axis=1))


# ----------------------------------------------------------------------
# LiDAR ground channel: per-scan crop + per-ring segment loops.
# ----------------------------------------------------------------------
def scan_ground_reference(scanner: LidarScanner, hdmap: HDMap, pose: SE2,
                          rng: np.random.Generator) -> GroundReturns:
    """The original ``LidarScanner._scan_ground``: re-crops map geometry on
    every call and runs the paint/lane distance loops per ring."""
    azimuths = np.linspace(-np.pi, np.pi, scanner.n_azimuth, endpoint=False)
    max_r = max(scanner.ground_ring_radii) + 2.0
    cx, cy = pose.x, pose.y

    centre = np.array([cx, cy])
    crop_r = max_r + 5.0

    def _crop(pts: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        a, b = pts[:-1], pts[1:]
        seg_mid = (a + b) / 2.0
        reach = np.hypot(*(b - a).T) / 2.0 + crop_r
        near = np.hypot(*(seg_mid - centre).T) <= reach
        if not near.any():
            return None
        return a[near], b[near]

    nearby = hdmap.elements_in_radius(cx, cy, crop_r)
    paint_segments: List[Tuple[np.ndarray, np.ndarray, float, float]] = []
    lane_lines: List[Tuple[np.ndarray, np.ndarray]] = []
    for element in nearby:
        if isinstance(element, LaneBoundary):
            half = (CURB_HALF_WIDTH
                    if element.boundary_type in (BoundaryType.CURB,
                                                 BoundaryType.ROAD_EDGE)
                    else PAINT_HALF_WIDTH)
            cropped = _crop(element.line.points)
            if cropped is not None:
                paint_segments.append((cropped[0], cropped[1],
                                       element.reflectivity, half))
        elif element.id.kind == "lane":
            cropped = _crop(element.centerline.points)
            if cropped is not None:
                lane_lines.append(cropped)

    all_points = []
    all_intensity = []
    all_ring = []
    for ring_idx, radius in enumerate(scanner.ground_ring_radii):
        keep = rng.uniform(size=azimuths.size) >= scanner.dropout
        az = azimuths[keep]
        r = radius + rng.normal(0.0, scanner.range_sigma * 2.0, size=az.size)
        local = np.stack([r * np.cos(az), r * np.sin(az)], axis=1)
        world = pose.apply(local)

        best_refl = np.full(world.shape[0], -1.0)
        for a, b, refl, half in paint_segments:
            d = points_to_segments_min_distance_reference(world, a, b)
            hit = d <= half
            best_refl = np.where(hit & (refl > best_refl), refl, best_refl)

        on_road = np.zeros(world.shape[0], dtype=bool)
        for a, b in lane_lines:
            d = points_to_segments_min_distance_reference(world, a, b)
            on_road |= d <= 2.2

        intensity = np.where(
            best_refl >= 0.0, best_refl,
            np.where(on_road, ASPHALT_INTENSITY, OFFROAD_INTENSITY),
        )
        intensity = np.clip(
            intensity + rng.normal(0.0, scanner.intensity_sigma,
                                   size=intensity.size), 0.0, 1.0)
        all_points.append(local)
        all_intensity.append(intensity)
        all_ring.append(np.full(local.shape[0], ring_idx, dtype=int))

    return GroundReturns(
        points=np.concatenate(all_points, axis=0),
        intensity=np.concatenate(all_intensity, axis=0),
        ring=np.concatenate(all_ring, axis=0),
    )


def scan_reference(scanner: LidarScanner, hdmap: HDMap, pose: SE2,
                   rng: np.random.Generator, t: float = 0.0,
                   obstacles=None) -> LidarScan:
    """Full pre-optimization scan: frozen ground channel + the (unchanged)
    object channel, consuming the rng stream in the original order."""
    ground = scan_ground_reference(scanner, hdmap, pose, rng)
    objects = scanner._scan_objects(hdmap, pose, rng, obstacles or ())
    return LidarScan(t=t, ground=ground, objects=objects,
                     max_range=scanner.max_range)


# ----------------------------------------------------------------------
# Particle weighting: the per-particle / per-measurement scalar loop.
# ----------------------------------------------------------------------
def _signed_lateral_reference(a: np.ndarray, b: np.ndarray, x: float,
                              y: float, theta: float) -> Optional[float]:
    p = np.array([x, y])
    d = b - a
    denom = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", p - a, d)
                / np.maximum(denom, 1e-300), 0.0, 1.0)
    closest = a + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", p - closest, p - closest)
    i = int(np.argmin(dist2))
    if dist2[i] > 20.0**2:
        return None
    rel = closest[i] - p
    return float(-math.sin(theta) * rel[0] + math.cos(theta) * rel[1])


def particle_weights_reference(states: np.ndarray,
                               measurements: Sequence[Tuple[float, str]],
                               boundaries, sigma_offset: float) -> np.ndarray:
    """The original ``LaneMarkingLocalizer.update_markings`` weight closure."""
    log_w = np.zeros(states.shape[0])
    for i in range(states.shape[0]):
        x, y, theta = states[i]
        best_total = 0.0
        for m, cls in measurements:
            best = np.inf
            for a_pts, b_pts in boundaries.get(cls, ()):
                d = _signed_lateral_reference(a_pts, b_pts, x, y, theta)
                if d is None:
                    continue
                err = abs(d - m)
                if err < best:
                    best = err
            if np.isfinite(best):
                scale = 2.0 if cls == "edge" else 1.0
                best_total += scale * (min(best, 3.0 * sigma_offset)
                                       / sigma_offset)**2
        log_w[i] = -0.5 * best_total
    log_w -= log_w.max()
    return np.exp(log_w)


# ----------------------------------------------------------------------
# Grid index ordering: the repr()-sorted query the ticket sort replaced.
# ----------------------------------------------------------------------
def query_box_repr_sorted(index, bounds) -> list:
    """The original ``GridIndex.query_box``: determinism via sort(key=repr)."""
    qx0, qy0, qx1, qy1 = bounds
    seen = set()
    hits = []
    for cell in index._cells_for_bounds(bounds):
        for key in index._cells.get(cell, ()):
            if key in seen:
                continue
            seen.add(key)
            bx0, by0, bx1, by1 = index._bounds[key]
            if bx0 <= qx1 and bx1 >= qx0 and by0 <= qy1 and by1 >= qy0:
                hits.append(key)
    hits.sort(key=repr)
    return hits


# ----------------------------------------------------------------------
# Geometric layout Monte-Carlo: sequential per-trial solves.
# ----------------------------------------------------------------------
def simulate_layout_error_reference(layout, range_sigma: float,
                                    rng: np.random.Generator,
                                    trials: int = 200) -> float:
    """The original ``simulate_layout_error``: one lstsq solve per trial."""
    from repro.localization.geometric import solve_position

    true_ranges = np.hypot(layout.positions[:, 0], layout.positions[:, 1])
    errors = np.empty(trials)
    for k in range(trials):
        measured = true_ranges + rng.normal(0.0, range_sigma,
                                            size=true_ranges.size)
        estimate = solve_position(layout, measured)
        errors[k] = float(np.hypot(*estimate))
    return float(np.sqrt(np.mean(errors**2)))


# ----------------------------------------------------------------------
# HDMV/HDDL codec: the ``BytesIO`` stream reader and writer, one
# ``read(1)`` / ``write(bytes([b]))`` per byte and a numpy call per
# polyline point — what ``BodyReader`` / ``BodyWriter`` replaced. The
# format constants and enum tables are the live ones: the bytes did
# not change, only how they are walked.
# ----------------------------------------------------------------------
def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _write_varint(buf: BytesIO, n: int) -> None:
    if n < 0:
        raise StorageError("varint must be non-negative")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            buf.write(bytes([byte | 0x80]))
        else:
            buf.write(bytes([byte]))
            return


def _read_varint(buf: BytesIO) -> int:
    shift = 0
    out = 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise StorageError("truncated varint")
        byte = raw[0]
        out |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return out
        shift += 7


def _write_svarint(buf: BytesIO, n: int) -> None:
    _write_varint(buf, _zigzag(n))


def _read_svarint(buf: BytesIO) -> int:
    return _unzigzag(_read_varint(buf))


# ----------------------------------------------------------------------
# Field helpers
# ----------------------------------------------------------------------
def _write_polyline(buf: BytesIO, line: Polyline) -> None:
    q = np.round(line.points / QUANTUM).astype(np.int64)
    _write_varint(buf, q.shape[0])
    prev = np.zeros(2, dtype=np.int64)
    for row in q:
        _write_svarint(buf, int(row[0] - prev[0]))
        _write_svarint(buf, int(row[1] - prev[1]))
        prev = row


def _read_polyline(buf: BytesIO) -> Polyline:
    n = _read_varint(buf)
    pts = np.zeros((n, 2), dtype=np.int64)
    prev = np.zeros(2, dtype=np.int64)
    for i in range(n):
        prev = prev + np.array([_read_svarint(buf), _read_svarint(buf)])
        pts[i] = prev
    return Polyline(pts.astype(float) * QUANTUM)


def _write_point(buf: BytesIO, position: np.ndarray) -> None:
    _write_svarint(buf, int(round(float(position[0]) / QUANTUM)))
    _write_svarint(buf, int(round(float(position[1]) / QUANTUM)))


def _read_point(buf: BytesIO) -> np.ndarray:
    return np.array([_read_svarint(buf), _read_svarint(buf)], dtype=float) * QUANTUM


def _write_id(buf: BytesIO, eid: Optional[ElementId],
              kinds: List[str]) -> None:
    if eid is None:
        _write_varint(buf, 0)
        return
    _write_varint(buf, kinds.index(eid.kind) + 1)
    _write_varint(buf, eid.num)


def _read_id(buf: BytesIO, kinds: List[str]) -> Optional[ElementId]:
    tag = _read_varint(buf)
    if tag == 0:
        return None
    return ElementId(kinds[tag - 1], _read_varint(buf))


def _write_id_list(buf: BytesIO, ids: Iterable[ElementId],
                   kinds: List[str]) -> None:
    ids = list(ids)
    _write_varint(buf, len(ids))
    for eid in ids:
        _write_id(buf, eid, kinds)


def _read_id_list(buf: BytesIO, kinds: List[str]) -> List[ElementId]:
    n = _read_varint(buf)
    out = []
    for _ in range(n):
        eid = _read_id(buf, kinds)
        if eid is not None:
            out.append(eid)
    return out


def _write_f32(buf: BytesIO, value: float) -> None:
    buf.write(struct.pack("<f", value))


def _read_f32(buf: BytesIO) -> float:
    return float(struct.unpack("<f", buf.read(4))[0])


def _encode_element(buf: BytesIO, element: MapElement,
                    kinds: List[str]) -> None:
    tag = _TYPE_TAGS.get(type(element))
    if tag is None:
        raise StorageError(f"cannot encode {type(element).__name__}")
    buf.write(bytes([tag]))
    _write_id(buf, element.id, kinds)
    if isinstance(element, Node):
        _write_point(buf, element.position)
    elif isinstance(element, LaneBoundary):
        buf.write(bytes([_BOUNDARY_TYPES.index(element.boundary_type)]))
        _write_f32(buf, element.reflectivity)
        _write_polyline(buf, element.line)
    elif isinstance(element, Lane):
        buf.write(bytes([_LANE_TYPES.index(element.lane_type)]))
        _write_f32(buf, element.width)
        _write_f32(buf, element.speed_limit)
        _write_id(buf, element.left_boundary, kinds)
        _write_id(buf, element.right_boundary, kinds)
        _write_id(buf, element.segment, kinds)
        _write_polyline(buf, element.centerline)
    elif isinstance(element, RoadSegment):
        _write_id(buf, element.start_node, kinds)
        _write_id(buf, element.end_node, kinds)
        _write_id_list(buf, element.forward_lanes, kinds)
        _write_id_list(buf, element.backward_lanes, kinds)
        _write_polyline(buf, element.reference_line)
    elif isinstance(element, TrafficSign):
        buf.write(bytes([_SIGN_TYPES.index(element.sign_type)]))
        has_value = element.value is not None
        buf.write(bytes([1 if has_value else 0]))
        if has_value:
            _write_f32(buf, float(element.value))
        _write_f32(buf, element.facing)
        _write_f32(buf, element.height)
        _write_f32(buf, element.reflectivity)
        _write_point(buf, element.position)
    elif isinstance(element, TrafficLight):
        _write_f32(buf, element.facing)
        for part in element.cycle:
            _write_f32(buf, part)
        _write_f32(buf, element.phase_offset)
        _write_f32(buf, element.height)
        _write_point(buf, element.position)
    elif isinstance(element, (Pole, RoadMarking)):
        _write_f32(buf, element.height)
        _write_f32(buf, element.reflectivity)
        _write_point(buf, element.position)
        if isinstance(element, RoadMarking):
            raw = element.marking_type.encode()
            _write_varint(buf, len(raw))
            buf.write(raw)
    elif isinstance(element, Crosswalk):
        _write_polyline(buf, Polyline(element.polygon))
    elif isinstance(element, StopLine):
        _write_polyline(buf, element.line)
    elif isinstance(element, RegulatoryElement):
        buf.write(bytes([_RULE_TYPES.index(element.rule_type)]))
        has_value = element.value is not None
        buf.write(bytes([1 if has_value else 0]))
        if has_value:
            _write_f32(buf, float(element.value))
        _write_id_list(buf, element.lanes, kinds)
        _write_id_list(buf, element.evidence, kinds)
        _write_id_list(buf, element.yields_to, kinds)


def _decode_element(buf: BytesIO, kinds: List[str]) -> MapElement:
    tag = buf.read(1)[0]
    element_type = _TAG_TYPES.get(tag)
    if element_type is None:
        raise StorageError(f"unknown element tag {tag}")
    eid = _read_id(buf, kinds)
    if eid is None:
        raise StorageError("element record with null id")
    if element_type is Node:
        return Node(id=eid, position=_read_point(buf))
    if element_type is LaneBoundary:
        btype = _BOUNDARY_TYPES[buf.read(1)[0]]
        refl = _read_f32(buf)
        return LaneBoundary(id=eid, line=_read_polyline(buf),
                            boundary_type=btype, reflectivity=refl)
    if element_type is Lane:
        ltype = _LANE_TYPES[buf.read(1)[0]]
        width = _read_f32(buf)
        limit = _read_f32(buf)
        left = _read_id(buf, kinds)
        right = _read_id(buf, kinds)
        segment = _read_id(buf, kinds)
        return Lane(id=eid, centerline=_read_polyline(buf),
                    left_boundary=left, right_boundary=right, width=width,
                    lane_type=ltype, speed_limit=limit, segment=segment)
    if element_type is RoadSegment:
        start = _read_id(buf, kinds)
        end = _read_id(buf, kinds)
        fwd = _read_id_list(buf, kinds)
        bwd = _read_id_list(buf, kinds)
        return RoadSegment(id=eid, start_node=start, end_node=end,
                           reference_line=_read_polyline(buf),
                           forward_lanes=fwd, backward_lanes=bwd)
    if element_type is TrafficSign:
        stype = _SIGN_TYPES[buf.read(1)[0]]
        value = _read_f32(buf) if buf.read(1)[0] else None
        facing = _read_f32(buf)
        height = _read_f32(buf)
        refl = _read_f32(buf)
        return TrafficSign(id=eid, position=_read_point(buf), sign_type=stype,
                           value=value, facing=facing, height=height,
                           reflectivity=refl)
    if element_type is TrafficLight:
        facing = _read_f32(buf)
        cycle = (_read_f32(buf), _read_f32(buf), _read_f32(buf))
        phase = _read_f32(buf)
        height = _read_f32(buf)
        return TrafficLight(id=eid, position=_read_point(buf), facing=facing,
                            cycle=cycle, phase_offset=phase, height=height)
    if element_type is Pole:
        height = _read_f32(buf)
        refl = _read_f32(buf)
        return Pole(id=eid, position=_read_point(buf), height=height,
                    reflectivity=refl)
    if element_type is RoadMarking:
        height = _read_f32(buf)
        refl = _read_f32(buf)
        position = _read_point(buf)
        n = _read_varint(buf)
        marking_type = buf.read(n).decode()
        return RoadMarking(id=eid, position=position, reflectivity=refl,
                           marking_type=marking_type)
    if element_type is Crosswalk:
        return Crosswalk(id=eid, polygon=_read_polyline(buf).points.copy())
    if element_type is StopLine:
        return StopLine(id=eid, line=_read_polyline(buf))
    if element_type is RegulatoryElement:
        rtype = _RULE_TYPES[buf.read(1)[0]]
        value = _read_f32(buf) if buf.read(1)[0] else None
        lanes = _read_id_list(buf, kinds)
        evidence = _read_id_list(buf, kinds)
        yields_to = _read_id_list(buf, kinds)
        return RegulatoryElement(id=eid, rule_type=rtype, value=value,
                                 lanes=lanes, evidence=evidence,
                                 yields_to=yields_to)
    raise StorageError(f"unhandled element type {element_type.__name__}")


def encode_map_reference(hdmap: HDMap, simplify_tolerance: float = 0.0) -> bytes:
    """Encode a map to compact bytes.

    ``simplify_tolerance`` > 0 applies Douglas-Peucker to every polyline
    first — the lossy knob Li et al. turn to hit their 100 KB/mile.
    """
    kinds_set = {e.id.kind for e in hdmap.elements()}
    for element in hdmap.elements():
        for ref in _referenced_ids(element):
            if ref is not None:
                kinds_set.add(ref.kind)
    kinds = sorted(kinds_set)
    body = BytesIO()
    name_raw = hdmap.name.encode()
    _write_varint(body, len(name_raw))
    body.write(name_raw)
    _write_varint(body, hdmap.version)
    _write_varint(body, len(kinds))
    for kind in kinds:
        raw = kind.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    elements = list(hdmap.elements())
    _write_varint(body, len(elements))
    for element in elements:
        if simplify_tolerance > 0:
            element = _simplified(element, simplify_tolerance)
        _encode_element(body, element, kinds)
    payload = zlib.compress(body.getvalue(), level=9)
    header = MAGIC + struct.pack("<BI", VERSION, len(payload))
    return header + payload


def decode_map_reference(data) -> HDMap:
    """Decode an HDMV blob (``bytes`` or any buffer, e.g. a zero-copy
    ``memoryview`` of a tile pack).

    Truncated, corrupt, or bad-magic input raises
    :class:`~repro.errors.StorageError` — raw ``struct.error`` /
    ``zlib.error`` / ``IndexError`` never escape, so callers can treat
    every undecodable blob uniformly.
    """
    data = bytes(data)
    if len(data) < 9:
        raise StorageError("truncated HDMV header")
    if data[:4] != MAGIC:
        raise StorageError("bad magic; not an HDMV blob")
    version, length = struct.unpack("<BI", data[4:9])
    if version != VERSION:
        raise StorageError(f"unsupported binary version {version}")
    if len(data) < 9 + length:
        raise StorageError("truncated HDMV payload")
    try:
        body = BytesIO(zlib.decompress(data[9:9 + length]))
    except zlib.error as exc:
        raise StorageError(f"corrupt HDMV payload: {exc}") from exc
    try:
        name = body.read(_read_varint(body)).decode()
        map_version = _read_varint(body)
        n_kinds = _read_varint(body)
        kinds = [body.read(_read_varint(body)).decode()
                 for _ in range(n_kinds)]
        hdmap = HDMap(name)
        hdmap.version = map_version
        n = _read_varint(body)
        for _ in range(n):
            hdmap.add(_decode_element(body, kinds))
        return hdmap
    except StorageError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError,
            ValueError, KeyError) as exc:
        raise StorageError(f"corrupt HDMV body: {exc}") from exc


def encode_delta_reference(delta: SyncDelta) -> bytes:
    """Pack one :class:`SyncDelta` into compact wire bytes."""
    kinds = _collect_kinds(delta)
    body = BytesIO()
    _write_varint(body, delta.version)
    _write_varint(body, len(kinds))
    for kind in kinds:
        raw = kind.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    _write_varint(body, len(delta.changes))
    for change in delta.changes:
        body.write(bytes([_CHANGE_TAGS[change.change_type]]))
        _write_id(body, change.element_id, kinds)
        _write_svarint(body, int(round(change.position[0] / QUANTUM)))
        _write_svarint(body, int(round(change.position[1] / QUANTUM)))
        if change.change_type is ChangeType.MOVED:
            _write_f32(body, float(change.magnitude))
        raw = change.detail.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    _write_varint(body, len(delta.elements))
    for eid, element in delta.elements.items():
        _write_id(body, eid, kinds)
        if element is None:
            body.write(b"\x00")  # removed: id only, no payload
        else:
            body.write(b"\x01")
            _encode_element(body, element, kinds)
    payload = zlib.compress(body.getvalue(), level=6)
    return DELTA_MAGIC + struct.pack("<BI", DELTA_VERSION, len(payload)) \
        + payload


def decode_delta_reference(data) -> SyncDelta:
    """Inverse of :func:`encode_delta_reference`; :class:`StorageError` on any
    truncated, corrupt, or bad-magic input."""
    data = bytes(data)
    if len(data) < 9:
        raise StorageError("truncated HDDL header")
    if data[:4] != DELTA_MAGIC:
        raise StorageError("bad magic; not an HDDL delta")
    version, length = struct.unpack("<BI", data[4:9])
    if version != DELTA_VERSION:
        raise StorageError(f"unsupported delta version {version}")
    if len(data) < 9 + length:
        raise StorageError("truncated HDDL payload")
    try:
        body = BytesIO(zlib.decompress(data[9:9 + length]))
    except zlib.error as exc:
        raise StorageError(f"corrupt HDDL payload: {exc}") from exc
    try:
        map_version = _read_varint(body)
        n_kinds = _read_varint(body)
        kinds = [body.read(_read_varint(body)).decode()
                 for _ in range(n_kinds)]
        changes: List[MapChange] = []
        for _ in range(_read_varint(body)):
            raw_tag = body.read(1)
            if not raw_tag:
                raise StorageError("truncated change record")
            tag = raw_tag[0]
            change_type = _TAG_CHANGES.get(tag)
            if change_type is None:
                raise StorageError(f"unknown change tag {tag}")
            eid = _read_id(body, kinds)
            if eid is None:
                raise StorageError("change record with null element id")
            x = _read_svarint(body) * QUANTUM
            y = _read_svarint(body) * QUANTUM
            magnitude = _read_f32(body) \
                if change_type is ChangeType.MOVED else 0.0
            detail = body.read(_read_varint(body)).decode()
            changes.append(MapChange(change_type, eid, (x, y),
                                     magnitude=magnitude, detail=detail))
        elements: Dict[ElementId, Optional[object]] = {}
        for _ in range(_read_varint(body)):
            eid = _read_id(body, kinds)
            if eid is None:
                raise StorageError("element record with null id")
            flag = body.read(1)
            if not flag:
                raise StorageError("truncated element presence flag")
            elements[eid] = _decode_element(body, kinds) \
                if flag[0] else None
        return SyncDelta(map_version, changes, elements)
    except StorageError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError,
            ValueError, KeyError) as exc:
        raise StorageError(f"corrupt HDDL body: {exc}") from exc
