"""Fleet-scale map serving: the concurrent front door of the HD-map database.

The survey's closing open problem is distributing "enormous map data" to
whole vehicle fleets [73]; ``repro.update.distribution`` and
``repro.storage.tilestore`` model the single-vehicle side. This package
adds the serving layer between them and the fleet:

- :mod:`repro.serve.api` — typed request/response messages
  (``GetTile``, ``SpatialQuery``, ``ChangesSince``, ``IngestPatch``,
  ``Snapshot``) with priorities and status codes;
- :mod:`repro.serve.cache` — :class:`ShardedTileCache`, one LRU of
  decoded tiles behind one lock (an *encoded* tile payload is the
  stored blob, ``TileStore.encoded_view``, and bypasses it);
- :mod:`repro.serve.admission` — :class:`AdmissionController`: bounded
  queueing with backpressure (reject on overflow, optionally displacing
  older low-priority work for high-priority arrivals) and load shedding
  of stale low-priority requests at dispatch;
- :mod:`repro.serve.metrics` — :class:`ServiceMetrics`: per-request-kind
  latency histograms, outcome counters, and the served map-freshness
  lag (primitives live in :mod:`repro.obs.metrics`);
- :mod:`repro.serve.service` — the worker-pool :class:`MapService` tying
  the above together;
- :mod:`repro.serve.fleet` — a synthetic-vehicle load generator and report.

Degradation under injected faults (hot shards, request spikes) is
certified by :mod:`repro.chaos`; ``docs/OPERATIONS.md``
maps the observable symptoms to these knobs.
"""

from repro.obs.metrics import Counter, LatencyHistogram
from repro.serve.admission import AdmissionController
from repro.serve.api import (
    ChangesSince,
    GetTile,
    IngestPatch,
    Priority,
    Request,
    Response,
    Snapshot,
    SpatialQuery,
    Status,
)
from repro.serve.cache import ShardedTileCache
from repro.serve.fleet import FleetReport, FleetSimulator, VehicleReport
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import MapService

__all__ = [
    "AdmissionController",
    "ChangesSince",
    "Counter",
    "FleetReport",
    "FleetSimulator",
    "GetTile",
    "IngestPatch",
    "LatencyHistogram",
    "MapService",
    "Priority",
    "Request",
    "Response",
    "ServiceMetrics",
    "ShardedTileCache",
    "Snapshot",
    "SpatialQuery",
    "Status",
    "VehicleReport",
]
