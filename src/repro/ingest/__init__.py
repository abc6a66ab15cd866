"""Streaming fleet-to-map ingestion: the continuous maintenance loop.

The surveyed map-maintenance ecosystem is a *loop* — fleets stream
observations, changes are detected and fused, patches are versioned and
redistributed (SLAMCU [41], Pannen et al. [42][44], Liu et al. [43], the
MEC/RSU crowd-sensing design [47]). ``repro.update`` holds the algorithms
and ``repro.serve`` the distribution front door; this package is the
concurrent path between them:

- :mod:`repro.ingest.observation` — the :class:`Observation` /
  :class:`ObservationBatch` work units with dedup keys;
- :mod:`repro.ingest.bus` — :class:`ObservationBus`, a tile-partitioned,
  bounded, deduplicating transport with batch leases (at-least-once);
- :mod:`repro.ingest.stages` — the validate -> associate -> fuse ->
  classify -> emit stage chain reusing ``IncrementalFuser``,
  ``DiscreteDBN``, and ``ChangeClassifier``;
- :mod:`repro.ingest.publisher` — :class:`PatchPublisher`, exactly-once
  (per patch key) publication under the server's ``ConflictPolicy``,
  retrying :class:`TransientPublishError` with exponential backoff;
- :mod:`repro.ingest.pipeline` — :class:`IngestPipeline`: supervised
  stage workers, retry with exponential backoff, a dead-letter queue;
- :mod:`repro.ingest.verify` — :class:`VerifyGate` /
  :class:`QuarantineStore`: the mandatory reference-free constraint
  gate between fuse and publish; violating patches are journaled with
  a structured report, never published (see docs/MAP_QUALITY.md);
- :mod:`repro.ingest.breaker` — :class:`CircuitBreaker` per pipeline
  stage (closed -> open -> half-open), failing fast via
  :class:`StageCircuitOpen` while a stage is sick;
- :mod:`repro.ingest.metrics` — per-stage latency, queue-depth gauges,
  and the map-freshness-lag histogram;
- :mod:`repro.ingest.fleetsource` — a synthetic producer fleet closing
  the world -> sensors -> ingest -> serve loop end to end.

Failure behavior under injected faults is certified by
:mod:`repro.chaos`; ``docs/OPERATIONS.md`` maps the symptoms to knobs.
"""

from repro.ingest.breaker import CircuitBreaker, StageCircuitOpen
from repro.ingest.bus import ObservationBus
from repro.ingest.fleetsource import FleetObservationSource, SourceReport
from repro.ingest.metrics import IngestMetrics
from repro.ingest.observation import (
    Observation,
    ObservationBatch,
    ObservationKind,
)
from repro.ingest.pipeline import DeadLetterQueue, IngestPipeline
from repro.ingest.publisher import (
    ConfirmedPatch,
    PatchPublisher,
    PublishResult,
    TransientPublishError,
)
from repro.ingest.stages import (
    AssociateStage,
    ClassifyStage,
    EmitStage,
    FuseStage,
    IngestConfig,
    Stage,
    TileState,
    ValidateStage,
    VerifyStage,
)
from repro.ingest.verify import QuarantineStore, VerifyGate
from repro.obs.metrics import Gauge

__all__ = [
    "AssociateStage",
    "CircuitBreaker",
    "ClassifyStage",
    "ConfirmedPatch",
    "DeadLetterQueue",
    "EmitStage",
    "FleetObservationSource",
    "FuseStage",
    "Gauge",
    "IngestConfig",
    "IngestMetrics",
    "IngestPipeline",
    "Observation",
    "ObservationBatch",
    "ObservationBus",
    "ObservationKind",
    "PatchPublisher",
    "PublishResult",
    "QuarantineStore",
    "SourceReport",
    "Stage",
    "StageCircuitOpen",
    "TileState",
    "TransientPublishError",
    "ValidateStage",
    "VerifyGate",
    "VerifyStage",
]
