"""Binary delta wire format for incremental sync.

``ChangesSince`` historically shipped a pickled
:class:`~repro.update.distribution.SyncDelta` — full Python objects,
numpy float64 geometry and all. This codec packs the same payload the
way :mod:`repro.storage.binary` packs tiles — with that module's own
``BodyWriter`` / ``BodyReader`` and element records: a kind table, varint
change records (type tag, id, zigzag-quantized position, detail), and
compact element records for the touched elements only, zlib-compressed.
The wire cost of a sync becomes proportional to what actually changed,
at a fraction of the pickled size.

Framing mirrors the HDMV tile blob: ``HDDL`` magic, format version,
payload length, compressed body. :func:`decode_delta` raises
:class:`~repro.errors.StorageError` on any truncated or corrupt input —
``struct.error``/``zlib.error`` never escape.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.changes import ChangeType, MapChange
from repro.core.ids import ElementId
from repro.errors import StorageError
from repro.storage.binary import (
    QUANTUM,
    BodyWriter,
    corrupt_body_as_storage_error,
    decode_element,
    encode_element,
    open_body,
    referenced_ids,
)
from repro.update.distribution import SyncDelta

DELTA_MAGIC = b"HDDL"
DELTA_VERSION = 1

_CHANGE_TAGS = {
    ChangeType.ADDED: 0,
    ChangeType.REMOVED: 1,
    ChangeType.MOVED: 2,
    ChangeType.MODIFIED: 3,
}
_TAG_CHANGES = {v: k for k, v in _CHANGE_TAGS.items()}


def _collect_kinds(delta: SyncDelta) -> List[str]:
    kinds = {change.element_id.kind for change in delta.changes}
    kinds.update(eid.kind for eid in delta.elements)
    for element in delta.elements.values():
        if element is None:
            continue
        kinds.add(element.id.kind)
        for ref in referenced_ids(element):
            if ref is not None:
                kinds.add(ref.kind)
    return sorted(kinds)


def encode_delta(delta: SyncDelta) -> bytes:
    """Pack one :class:`SyncDelta` into compact wire bytes."""
    body = BodyWriter()
    body.varint(delta.version)
    body.kind_table(_collect_kinds(delta))
    body.varint(len(delta.changes))
    for change in delta.changes:
        body.append(_CHANGE_TAGS[change.change_type])
        body.id(change.element_id)
        body.svarint(int(round(change.position[0] / QUANTUM)))
        body.svarint(int(round(change.position[1] / QUANTUM)))
        if change.change_type is ChangeType.MOVED:
            body.f32(float(change.magnitude))
        body.string(change.detail)
    body.varint(len(delta.elements))
    for eid, element in delta.elements.items():
        body.id(eid)
        if element is None:
            body.append(0)  # removed: id only, no payload
        else:
            body.append(1)
            encode_element(body, element)
    return body.seal(DELTA_MAGIC, DELTA_VERSION, level=6)


def decode_delta(data) -> SyncDelta:
    """Inverse of :func:`encode_delta`; :class:`StorageError` on any
    truncated, corrupt, or bad-magic input."""
    body = open_body(data, DELTA_MAGIC, DELTA_VERSION, "HDDL")
    with corrupt_body_as_storage_error("HDDL"):
        map_version = body.varint()
        body.kind_table()
        changes: List[MapChange] = []
        for _ in range(body.count()):
            tag = body.byte()
            change_type = _TAG_CHANGES.get(tag)
            if change_type is None:
                raise StorageError(f"unknown change tag {tag}")
            eid = body.id()
            if eid is None:
                raise StorageError("change record with null element id")
            x = body.svarint() * QUANTUM
            y = body.svarint() * QUANTUM
            magnitude = body.f32() \
                if change_type is ChangeType.MOVED else 0.0
            changes.append(MapChange(change_type, eid, (x, y),
                                     magnitude=magnitude,
                                     detail=body.string()))
        elements: Dict[ElementId, Optional[object]] = {}
        for _ in range(body.count()):
            eid = body.id()
            if eid is None:
                raise StorageError("element record with null id")
            elements[eid] = decode_element(body) if body.byte() else None
        return SyncDelta(map_version, changes, elements)
