"""Typed request/response API of the map serving layer.

The fleet never talks to :class:`~repro.update.distribution.MapDistributionServer`
or :class:`~repro.storage.tilestore.TileStore` directly; it submits one of
five request types to a :class:`~repro.serve.service.MapService` and receives
a :class:`Response` tagged with the map version it was served at:

- :class:`GetTile` — one decoded base-map tile (served through the sharded
  cache);
- :class:`SpatialQuery` — elements (or landmarks only) within a radius,
  answered from cached tiles exactly as ``StreamingMap`` would;
- :class:`ChangesSince` — incremental sync: an atomic
  :class:`~repro.update.distribution.SyncDelta` of everything after a version;
- :class:`IngestPatch` — a crowd-sourced :class:`~repro.core.versioning.MapPatch`
  for the authoritative database;
- :class:`Snapshot` — a full map copy (the expensive bootstrap path).

Requests carry a :class:`Priority`; the admission controller sheds stale
low-priority work under load, which surfaces as ``Status.SHED`` responses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.core.tiles import TileId
from repro.core.versioning import MapPatch


class Priority(enum.IntEnum):
    """Scheduling class of a request; higher values survive load-shedding."""

    LOW = 0      # opportunistic prefetch / telemetry
    NORMAL = 1   # interactive queries on the driving path
    HIGH = 2     # safety-relevant: ingests, incremental sync


class Status(enum.Enum):
    OK = "ok"
    REJECTED = "rejected"  # backpressure: bounded queue was full at submit
    SHED = "shed"          # admitted, then dropped as stale low-priority work
    ERROR = "error"        # the handler raised


class Request:
    """Marker base class; concrete requests are the dataclasses below."""

    priority: Priority

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass
class GetTile(Request):
    """Fetch one tile of the static base map.

    With ``encoded=True`` the response payload is the stored tile blob
    (``TileStore.encoded_view``: bytes, or a zero-copy ``memoryview`` of
    the pack mmap) rather than the decoded
    :class:`~repro.core.hdmap.HDMap`. Tiles are immutable, so the blob
    is the same at every served version.
    """

    tile: TileId
    priority: Priority = Priority.NORMAL
    encoded: bool = False


@dataclass
class SpatialQuery(Request):
    """All elements (or landmarks only) within ``radius`` of (x, y)."""

    x: float
    y: float
    radius: float
    landmarks_only: bool = False
    priority: Priority = field(default=Priority.NORMAL, init=False)


@dataclass
class ChangesSince(Request):
    """Incremental sync: atomic delta of everything after ``since_version``.

    The payload is the :class:`~repro.update.distribution.SyncDelta`.
    """

    since_version: int
    priority: Priority = field(default=Priority.HIGH, init=False)


@dataclass
class IngestPatch(Request):
    """Submit a crowd-sourced patch to the authoritative database."""

    patch: MapPatch
    priority: Priority = field(default=Priority.HIGH, init=False)


@dataclass
class Snapshot(Request):
    """Full map copy — the bootstrap path incremental sync avoids."""

    priority: Priority = field(default=Priority.LOW, init=False)


@dataclass
class Response:
    """Outcome of one request.

    ``version`` is the database version the request was served at (−1 when
    the request never reached a handler, e.g. REJECTED/SHED). ``latency_s``
    spans submit → completion, so it includes queueing delay.
    """

    status: Status
    payload: Any = None
    version: int = -1
    latency_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status is Status.OK
