"""Map distribution: the shared HD-map database and its subscribers.

SLAMCU's detected changes "are reported to the HD map database for
sharing with other vehicles/systems" [41]; Pannen et al.'s jobs feed a
fleet-wide map [44]. This module is that database: it ingests patches
from multiple independent pipelines with conflict resolution, versions
them atomically, and lets vehicles synchronize incrementally ("give me
everything since version N") instead of re-downloading the map.

Consistency guarantee (what the serving layer builds on):
:class:`MapDistributionServer` serializes every mutation and every read
of the version log behind one reentrant lock, so concurrent callers
observe *single-copy* semantics — each ``ingest`` is atomic (a patch is
fully applied at version N or not at all), the version sequence is
gap-free and monotonic, and :meth:`MapDistributionServer.delta_since`
returns a version, its change log suffix, and copies of the touched
elements captured at the *same* instant. A client applying deltas in
order therefore never sees a torn patch or versions out of order, and
after applying a delta for version N it is element-for-element identical
to the server at N.
"""

from __future__ import annotations

import copy
import enum
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


from repro.core.changes import MapChange
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.versioning import (
    AddElement,
    MapPatch,
    RemoveElement,
    ReplaceElement,
    VersionedMap,
)
from repro.errors import UpdateError


class ConflictPolicy(enum.Enum):
    REJECT = "reject"  # refuse patches touching recently-touched elements
    LAST_WRITER_WINS = "last_writer_wins"
    HIGHEST_CONFIDENCE = "highest_confidence"


@dataclass
class IngestResult:
    accepted: bool
    version: Optional[int]
    dropped_ops: int
    reason: str = ""


@dataclass
class _Provenance:
    source: str
    confidence: float
    version: int


@dataclass
class SyncDelta:
    """An atomic incremental-sync payload.

    ``version`` is the server version the delta was captured at;
    ``changes`` is the change-log suffix after the client's version; and
    ``elements`` maps every touched element id to a copy of its state at
    ``version`` (None when the element no longer exists). All three are
    read under the server lock, so the delta can never be torn by a
    concurrent ingest.
    """

    version: int
    changes: List[MapChange]
    elements: Dict[ElementId, Optional[object]]


class MapDistributionServer:
    """The authoritative, versioned HD-map database (thread-safe)."""

    #: conflict rule of an :meth:`ingest` that names none
    POLICY = ConflictPolicy.HIGHEST_CONFIDENCE
    #: two patches touching one element within this many versions conflict
    CONFLICT_WINDOW = 3

    def __init__(self, base: HDMap) -> None:
        self.db = VersionedMap(base)
        self._touched: Dict[ElementId, _Provenance] = {}
        self._lock = threading.RLock()

    @property
    def version(self) -> int:
        with self._lock:
            return self.db.version

    # ------------------------------------------------------------------
    def _op_target(self, op) -> ElementId:
        if isinstance(op, AddElement):
            return op.element.id
        if isinstance(op, RemoveElement):
            return op.element_id
        if isinstance(op, ReplaceElement):
            return op.element.id
        raise UpdateError(f"unknown op {op!r}")

    def _conflicts(self, patch: MapPatch) -> List[Tuple[object, _Provenance]]:
        out = []
        for op in patch.ops:
            target = self._op_target(op)
            previous = self._touched.get(target)
            if previous is None:
                continue
            if self.version - previous.version < self.CONFLICT_WINDOW:
                out.append((op, previous))
        return out

    # ------------------------------------------------------------------
    def ingest(self, patch: MapPatch,
               policy: Optional[ConflictPolicy] = None) -> IngestResult:
        """Apply a pipeline's patch atomically under the conflict policy.

        ``policy`` overrides :attr:`POLICY` for this one call, so
        independent ingestion pipelines can run different conflation rules
        against the same database.
        """
        if not patch.ops:
            return IngestResult(False, None, 0, "empty patch")
        with self._lock:
            return self._ingest_locked(patch, policy or self.POLICY)

    def _ingest_locked(self, patch: MapPatch,
                       policy: ConflictPolicy) -> IngestResult:
        conflicts = self._conflicts(patch)
        ops = list(patch.ops)
        dropped = 0
        if conflicts:
            if policy is ConflictPolicy.REJECT:
                return IngestResult(False, None, len(ops),
                                    f"{len(conflicts)} conflicting op(s)")
            if policy is ConflictPolicy.HIGHEST_CONFIDENCE:
                losing = {id(op) for op, prev in conflicts
                          if patch.confidence <= prev.confidence}
                dropped = len(losing)
                ops = [op for op in ops if id(op) not in losing]
            # LAST_WRITER_WINS keeps every op.
        if not ops:
            return IngestResult(False, None, dropped,
                                "all ops lost their conflicts")
        filtered = MapPatch(ops=ops, source=patch.source,
                            confidence=patch.confidence)
        version = self.db.apply(filtered)
        for op in ops:
            self._touched[self._op_target(op)] = _Provenance(
                source=patch.source, confidence=patch.confidence,
                version=version)
        return IngestResult(True, version, dropped)

    # ------------------------------------------------------------------
    def changes_since(self, version: int) -> List[MapChange]:
        with self._lock:
            return self.db.changes_since(version)

    def snapshot(self) -> HDMap:
        with self._lock:
            return self.db.map.copy()

    def delta_since(self, version: int) -> SyncDelta:
        """Atomically capture (version, change suffix, touched elements)."""
        with self._lock:
            changes = self.db.changes_since(version)
            touched: Set[ElementId] = {c.element_id for c in changes}
            elements = {
                eid: copy.copy(self.db.map.get(eid))
                if eid in self.db.map else None
                for eid in touched
            }
            return SyncDelta(self.db.version, changes, elements)

    def element_ids(self) -> Set[ElementId]:
        """Ids currently in the authoritative map (consistent read)."""
        with self._lock:
            return {e.id for e in self.db.map.elements()}

    def new_element_id(self, kind: str) -> ElementId:
        """Allocate a fresh id on the authoritative map, thread-safely."""
        with self._lock:
            return self.db.map.new_id(kind)


def apply_changes(local: HDMap, delta: SyncDelta) -> int:
    """Apply ``delta``'s changes to ``local`` in log order; returns how
    many. Idempotent per element: a change carrying an element adds it,
    or replaces the present copy; one without removes it if present."""
    for change in delta.changes:
        eid = change.element_id
        element = delta.elements.get(eid)
        in_local = eid in local
        if element is not None:
            if in_local:
                local.replace(element)
            else:
                local.add(element)
        elif in_local:
            local.remove(eid)
    return len(delta.changes)


@dataclass
class VehicleMapClient:
    """A vehicle's local map, kept current by incremental sync.

    With ``wire=True`` each sync round-trips the delta through the
    binary wire format (:mod:`repro.pack.delta`), and
    ``bytes_downloaded`` counts the actual encoded bytes instead of the
    ``CHANGE_RECORD_BYTES`` estimate.
    """

    server: MapDistributionServer
    local: HDMap = None  # type: ignore[assignment]
    synced_version: int = -1
    bytes_downloaded: int = 0
    wire: bool = False

    CHANGE_RECORD_BYTES = 48

    def __post_init__(self) -> None:
        if self.local is None:
            self.bootstrap()

    def bootstrap(self) -> None:
        """Full download (what incremental sync avoids afterwards)."""
        from repro.storage.binary import encode_map

        snapshot = self.server.snapshot()
        self.bytes_downloaded += len(encode_map(snapshot))
        self.local = snapshot
        self.synced_version = self.server.version

    def sync(self) -> int:
        """Incremental update; returns the number of changes applied.

        Change records describe what happened; the client re-fetches the
        touched elements from the server snapshot (element-level delta).
        The delta is captured atomically, so this is safe to call while
        other threads are ingesting patches.
        """
        if self.synced_version == self.server.version:
            return 0
        delta = self.server.delta_since(self.synced_version)
        if self.wire:
            from repro.pack.delta import decode_delta, encode_delta

            blob = encode_delta(delta)
            self.bytes_downloaded += len(blob)
            return self.apply_delta(decode_delta(blob), count_bytes=False)
        return self.apply_delta(delta)

    def apply_delta(self, delta: SyncDelta, count_bytes: bool = True) -> int:
        """Apply an atomic :class:`SyncDelta`; returns changes applied.

        Stale deltas (captured at or before the client's version) are
        ignored, so out-of-order delivery can never roll the client back.
        ``count_bytes=False`` skips the per-change download estimate (the
        wire path already counted the real encoded bytes).
        """
        if delta.version <= self.synced_version:
            return 0
        applied = apply_changes(self.local, delta)
        if count_bytes:
            self.bytes_downloaded += applied * self.CHANGE_RECORD_BYTES
        self.synced_version = delta.version
        return applied

    def is_consistent(self) -> bool:
        """Local matches the server snapshot element-for-element."""
        local_ids = {e.id for e in self.local.elements()}
        return self.server.element_ids() == local_ids
