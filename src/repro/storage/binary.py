"""Compact binary vector codec.

Li et al. [60] cut HD-map storage from ~10 MB/mile to ~100 KB/mile by
discarding the laser point cloud and keeping only delta-coded vector data
(lanes, links, limits, signs). This codec implements that strategy:

- coordinates quantized to 1 cm and delta-coded as zigzag varints,
- element records packed with one-byte type tags,
- zlib entropy coding over the whole payload.

Round-trips everything :func:`repro.storage.geojson.map_to_dict` handles,
at centimetre precision. :class:`BodyReader` / :class:`BodyWriter` are the
one reader and writer; the ``HDDL`` delta wire is built from them too.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
from repro.errors import GeometryError, MapModelError, StorageError
from repro.geometry.polyline import Polyline

MAGIC = b"HDMV"
VERSION = 1
QUANTUM = 0.01  # 1 cm

_TYPE_TAGS = {
    Node: 1,
    LaneBoundary: 2,
    Lane: 3,
    RoadSegment: 4,
    TrafficSign: 5,
    TrafficLight: 6,
    Pole: 7,
    RoadMarking: 8,
    Crosswalk: 9,
    StopLine: 10,
    RegulatoryElement: 11,
}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


_HEADER = struct.Struct("<BI")
_F32 = struct.Struct("<f")


@contextmanager
def corrupt_body_as_storage_error(what: str) -> Iterator[None]:
    """Everything a hostile body can raise — out of the reader or out of
    building and adding an element — leaves as ``StorageError``."""
    try:
        yield
    except (struct.error, IndexError, UnicodeDecodeError, ValueError,
            KeyError, OverflowError, GeometryError, MapModelError) as exc:
        raise StorageError(f"corrupt {what} body: {exc}") from exc


# ----------------------------------------------------------------------
# Body reader / writer (shared by HDMV tiles and HDDL deltas)
# ----------------------------------------------------------------------
class BodyReader:
    """Index cursor over an inflated HDMV/HDDL body: no stream object,
    no per-byte allocation. Running off the end raises ``IndexError`` /
    ``struct.error`` (see :func:`corrupt_body_as_storage_error`); every
    count is checked against the bytes that remain *before* anything is
    allocated or looped over, so a corrupt count cannot exhaust memory.
    """

    __slots__ = ("buf", "pos", "kinds")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0
        self.kinds: List[str] = []

    def byte(self) -> int:
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        buf = self.buf
        pos = self.pos
        byte = buf[pos]
        pos += 1
        out = byte & 0x7F
        shift = 7
        while byte > 0x7F:
            if shift > 63:
                raise StorageError("varint longer than 10 bytes")
            byte = buf[pos]
            pos += 1
            out |= (byte & 0x7F) << shift
            shift += 7
        self.pos = pos
        return out

    def svarint(self) -> int:
        n = self.varint()
        return (n >> 1) ^ -(n & 1)

    def count(self, min_bytes: int = 1) -> int:
        """A record count whose records take at least ``min_bytes`` each."""
        n = self.varint()
        if n * min_bytes > len(self.buf) - self.pos:
            raise StorageError(f"count {n} exceeds the bytes remaining")
        return n

    def f32(self) -> float:
        value = _F32.unpack_from(self.buf, self.pos)[0]
        self.pos += 4
        return value

    def string(self) -> str:
        n = self.count()
        self.pos += n
        return self.buf[self.pos - n:self.pos].decode()

    def kind_table(self) -> None:
        self.kinds = [self.string() for _ in range(self.count())]

    def point(self) -> np.ndarray:
        return np.array([self.svarint(), self.svarint()],
                        dtype=float) * QUANTUM

    def id(self) -> Optional[ElementId]:
        tag = self.varint()
        if tag == 0:
            return None
        return ElementId(self.kinds[tag - 1], self.varint())

    def id_list(self) -> List[ElementId]:
        ids = [self.id() for _ in range(self.count())]
        return [eid for eid in ids if eid is not None]

    def polyline(self) -> Polyline:
        """One loop per polyline: zig-zag decode and accumulate Python
        ints into a flat list, then cross into numpy once — never per
        point (decode runs on GIL-sharing threads; DESIGN.md item 4)."""
        n = self.count(2)
        buf = self.buf
        pos = self.pos
        flat: List[int] = []
        append = flat.append
        prev = cur = 0  # last value of the other / of this coordinate
        for _ in range(2 * n):
            # varint(), inlined; nearly every delta is one or two bytes
            out = buf[pos]
            pos += 1
            if out > 0x7F:
                byte = buf[pos]
                pos += 1
                out = (out & 0x7F) | (byte << 7)
                if byte > 0x7F:
                    out &= 0x3FFF
                    shift = 14
                    while byte > 0x7F:
                        if shift > 63:
                            raise StorageError("varint longer than 10 bytes")
                        byte = buf[pos]
                        pos += 1
                        out |= (byte & 0x7F) << shift
                        shift += 7
            prev, cur = cur + ((out >> 1) ^ -(out & 1)), prev
            append(prev)
        self.pos = pos
        points = np.array(flat, dtype=float).reshape(n, 2)
        points *= QUANTUM
        return Polyline(points)


class BodyWriter:
    """Mirror of :class:`BodyReader`: one ``bytearray``, appended bytewise."""

    __slots__ = ("buf", "append", "kinds")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.append = self.buf.append
        self.kinds: Dict[str, int] = {}

    def varint(self, n: int) -> None:
        if n < 0:
            raise StorageError("varint must be non-negative")
        append = self.append
        while n > 0x7F:
            append((n & 0x7F) | 0x80)
            n >>= 7
        append(n)

    def svarint(self, n: int) -> None:
        self.varint((n << 1) ^ (n >> 63))

    def f32(self, value: float) -> None:
        self.buf += _F32.pack(value)

    def string(self, text: str) -> None:
        raw = text.encode()
        self.varint(len(raw))
        self.buf += raw

    def kind_table(self, kinds: Iterable[str]) -> None:
        kinds = sorted(kinds)
        self.kinds = {kind: i + 1 for i, kind in enumerate(kinds)}
        self.varint(len(kinds))
        for kind in kinds:
            self.string(kind)

    def point(self, position: np.ndarray) -> None:
        self.svarint(int(round(float(position[0]) / QUANTUM)))
        self.svarint(int(round(float(position[1]) / QUANTUM)))

    def id(self, eid: Optional[ElementId]) -> None:
        if eid is None:
            self.append(0)
            return
        self.varint(self.kinds[eid.kind])
        self.varint(eid.num)

    def id_list(self, ids: Iterable[ElementId]) -> None:
        ids = list(ids)
        self.varint(len(ids))
        for eid in ids:
            self.id(eid)

    def polyline(self, line: Polyline) -> None:
        """Zig-zag deltas computed once in numpy, emitted from a list."""
        q = np.round(line.points / QUANTUM).astype(np.int64)
        self.varint(q.shape[0])
        delta = q.copy()
        delta[1:] -= q[:-1]
        zigzag = ((delta << 1) ^ (delta >> 63)).view(np.uint64)
        append = self.append
        for n in zigzag.ravel().tolist():
            while n > 0x7F:
                append((n & 0x7F) | 0x80)
                n >>= 7
            append(n)

    def seal(self, magic: bytes, version: int, level: int) -> bytes:
        """Deflate the body and frame it: magic, version, payload length."""
        payload = zlib.compress(self.buf, level)
        return magic + _HEADER.pack(version, len(payload)) + payload


def open_body(data, magic: bytes, version: int, what: str) -> BodyReader:
    """Check the 9-byte frame of an HDMV/HDDL blob and inflate its payload
    (fed to zlib as a ``memoryview`` slice: no copy of an mmap'd tile)."""
    view = memoryview(data)
    if len(view) < 9:
        raise StorageError(f"truncated {what} header")
    if view[:4] != magic:
        raise StorageError(f"bad magic; not an {what} blob")
    got, length = _HEADER.unpack_from(view, 4)
    if got != version:
        raise StorageError(f"unsupported {what} version {got}")
    if len(view) < 9 + length:
        raise StorageError(f"truncated {what} payload")
    try:
        return BodyReader(zlib.decompress(view[9:9 + length]))
    except zlib.error as exc:
        raise StorageError(f"corrupt {what} payload: {exc}") from exc


# ----------------------------------------------------------------------
# Element records
# ----------------------------------------------------------------------
_BOUNDARY_TYPES = list(BoundaryType)
_LANE_TYPES = list(LaneType)
_SIGN_TYPES = list(SignType)
_RULE_TYPES = list(RuleType)


def encode_element(w: BodyWriter, element: MapElement) -> None:
    tag = _TYPE_TAGS.get(type(element))
    if tag is None:
        raise StorageError(f"cannot encode {type(element).__name__}")
    w.append(tag)
    w.id(element.id)
    if isinstance(element, Node):
        w.point(element.position)
    elif isinstance(element, LaneBoundary):
        w.append(_BOUNDARY_TYPES.index(element.boundary_type))
        w.f32(element.reflectivity)
        w.polyline(element.line)
    elif isinstance(element, Lane):
        w.append(_LANE_TYPES.index(element.lane_type))
        w.f32(element.width)
        w.f32(element.speed_limit)
        w.id(element.left_boundary)
        w.id(element.right_boundary)
        w.id(element.segment)
        w.polyline(element.centerline)
    elif isinstance(element, RoadSegment):
        w.id(element.start_node)
        w.id(element.end_node)
        w.id_list(element.forward_lanes)
        w.id_list(element.backward_lanes)
        w.polyline(element.reference_line)
    elif isinstance(element, TrafficSign):
        w.append(_SIGN_TYPES.index(element.sign_type))
        _write_optional_f32(w, element.value)
        w.f32(element.facing)
        w.f32(element.height)
        w.f32(element.reflectivity)
        w.point(element.position)
    elif isinstance(element, TrafficLight):
        w.f32(element.facing)
        for part in element.cycle:
            w.f32(part)
        w.f32(element.phase_offset)
        w.f32(element.height)
        w.point(element.position)
    elif isinstance(element, (Pole, RoadMarking)):
        w.f32(element.height)
        w.f32(element.reflectivity)
        w.point(element.position)
        if isinstance(element, RoadMarking):
            w.string(element.marking_type)
    elif isinstance(element, Crosswalk):
        w.polyline(Polyline(element.polygon))
    elif isinstance(element, StopLine):
        w.polyline(element.line)
    elif isinstance(element, RegulatoryElement):
        w.append(_RULE_TYPES.index(element.rule_type))
        _write_optional_f32(w, element.value)
        w.id_list(element.lanes)
        w.id_list(element.evidence)
        w.id_list(element.yields_to)


def _write_optional_f32(w: BodyWriter, value: Optional[float]) -> None:
    w.append(0 if value is None else 1)
    if value is not None:
        w.f32(float(value))


def decode_element(r: BodyReader) -> MapElement:
    tag = r.byte()
    element_type = _TAG_TYPES.get(tag)
    if element_type is None:
        raise StorageError(f"unknown element tag {tag}")
    eid = r.id()
    if eid is None:
        raise StorageError("element record with null id")
    if element_type is Node:
        return Node(id=eid, position=r.point())
    if element_type is LaneBoundary:
        btype = _BOUNDARY_TYPES[r.byte()]
        refl = r.f32()
        return LaneBoundary(id=eid, line=r.polyline(),
                            boundary_type=btype, reflectivity=refl)
    if element_type is Lane:
        ltype = _LANE_TYPES[r.byte()]
        width = r.f32()
        limit = r.f32()
        left = r.id()
        right = r.id()
        segment = r.id()
        return Lane(id=eid, centerline=r.polyline(),
                    left_boundary=left, right_boundary=right, width=width,
                    lane_type=ltype, speed_limit=limit, segment=segment)
    if element_type is RoadSegment:
        start = r.id()
        end = r.id()
        fwd = r.id_list()
        bwd = r.id_list()
        return RoadSegment(id=eid, start_node=start, end_node=end,
                           reference_line=r.polyline(),
                           forward_lanes=fwd, backward_lanes=bwd)
    if element_type is TrafficSign:
        stype = _SIGN_TYPES[r.byte()]
        value = r.f32() if r.byte() else None
        facing = r.f32()
        height = r.f32()
        refl = r.f32()
        return TrafficSign(id=eid, position=r.point(), sign_type=stype,
                           value=value, facing=facing, height=height,
                           reflectivity=refl)
    if element_type is TrafficLight:
        facing = r.f32()
        cycle = (r.f32(), r.f32(), r.f32())
        phase = r.f32()
        height = r.f32()
        return TrafficLight(id=eid, position=r.point(), facing=facing,
                            cycle=cycle, phase_offset=phase, height=height)
    if element_type is Pole:
        height = r.f32()
        refl = r.f32()
        return Pole(id=eid, position=r.point(), height=height,
                    reflectivity=refl)
    if element_type is RoadMarking:
        r.f32()  # height: a marking lies on the asphalt, always 0
        refl = r.f32()
        position = r.point()
        return RoadMarking(id=eid, position=position, reflectivity=refl,
                           marking_type=r.string())
    if element_type is Crosswalk:
        return Crosswalk(id=eid, polygon=r.polyline().points.copy())
    if element_type is StopLine:
        return StopLine(id=eid, line=r.polyline())
    if element_type is RegulatoryElement:
        rtype = _RULE_TYPES[r.byte()]
        value = r.f32() if r.byte() else None
        lanes = r.id_list()
        evidence = r.id_list()
        yields_to = r.id_list()
        return RegulatoryElement(id=eid, rule_type=rtype, value=value,
                                 lanes=lanes, evidence=evidence,
                                 yields_to=yields_to)
    raise StorageError(f"unhandled element type {element_type.__name__}")


# ----------------------------------------------------------------------
# Whole-map codec
# ----------------------------------------------------------------------
def referenced_ids(element: MapElement) -> List[Optional[ElementId]]:
    """All element ids this element refers to (cross-tile refs included)."""
    if isinstance(element, Lane):
        return [element.left_boundary, element.right_boundary,
                element.segment]
    if isinstance(element, RoadSegment):
        return ([element.start_node, element.end_node]
                + list(element.forward_lanes) + list(element.backward_lanes))
    if isinstance(element, RegulatoryElement):
        return list(element.lanes) + list(element.evidence) \
            + list(element.yields_to)
    return []


def encode_map(hdmap: HDMap, simplify_tolerance: float = 0.0) -> bytes:
    """Encode a map to compact bytes.

    ``simplify_tolerance`` > 0 applies Douglas-Peucker to every polyline
    first — the lossy knob Li et al. turn to hit their 100 KB/mile.
    """
    elements = list(hdmap.elements())
    kinds = {e.id.kind for e in elements}
    for element in elements:
        kinds.update(ref.kind for ref in referenced_ids(element)
                     if ref is not None)
    body = BodyWriter()
    body.string(hdmap.name)
    body.varint(hdmap.version)
    body.kind_table(kinds)
    body.varint(len(elements))
    for element in elements:
        if simplify_tolerance > 0:
            element = _simplified(element, simplify_tolerance)
        encode_element(body, element)
    return body.seal(MAGIC, VERSION, level=9)


def _read_map_prefix(body: BodyReader) -> Tuple[str, int, int]:
    """Map name, map version and element count; fills the kind table."""
    name = body.string()
    version = body.varint()
    body.kind_table()
    return name, version, body.count(2)


def decode_map(data) -> HDMap:
    """Decode an HDMV blob (``bytes`` or any buffer, e.g. a zero-copy
    ``memoryview`` of a tile pack).

    Truncated, corrupt, or bad-magic input raises
    :class:`~repro.errors.StorageError` — raw ``struct.error`` /
    ``zlib.error`` / ``IndexError`` / ``GeometryError`` never escape, so
    callers can treat every undecodable blob uniformly.
    """
    body = open_body(data, MAGIC, VERSION, "HDMV")
    with corrupt_body_as_storage_error("HDMV"):
        name, version, n_elements = _read_map_prefix(body)
        hdmap = HDMap(name)
        hdmap.version = version
        for _ in range(n_elements):
            hdmap.add(decode_element(body))
        return hdmap


def element_count(blob) -> int:
    """Element count of an HDMV blob from its body prefix (name, version,
    kinds table, count varint) — no per-element decode."""
    body = open_body(blob, MAGIC, VERSION, "HDMV")
    with corrupt_body_as_storage_error("HDMV"):
        return _read_map_prefix(body)[2]


def _simplified(element: MapElement, tolerance: float) -> MapElement:
    import copy

    clone = copy.copy(element)
    if isinstance(clone, LaneBoundary):
        clone.line = clone.line.simplify(tolerance)
    elif isinstance(clone, Lane):
        clone.centerline = clone.centerline.simplify(tolerance)
    elif isinstance(clone, RoadSegment):
        clone.reference_line = clone.reference_line.simplify(tolerance)
    elif isinstance(clone, StopLine):
        clone.line = clone.line.simplify(tolerance)
    return clone
