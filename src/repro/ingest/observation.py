"""Fleet observations: the unit of work flowing through the ingest bus.

Every connected vehicle reports two kinds of landmark evidence (the inputs
every surveyed maintenance pipeline consumes — SLAMCU [41], Pannen et al.
[42][44], Liu et al. [43]):

- a *detection*: a sensed landmark at a world position with a measurement
  sigma, possibly one the prior map does not know about;
- a *miss*: a prior-map element that was in the sensor's field of view but
  was not observed — the evidence that something was removed.

Observations carry a ``(vehicle, seq)`` dedup key so at-least-once
transports (retries, duplicate uplinks from flaky cellular links) collapse
to exactly-once evidence, and an ``enqueued_at`` wall-clock stamp set by
the bus that anchors the end-to-end map-freshness lag metric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.ids import ElementId
from repro.core.tiles import TileId
from repro.errors import IngestError
from repro.obs.trace import TraceContext


class ObservationKind:
    DETECTION = "detection"
    MISS = "miss"

    ALL = (DETECTION, MISS)


@dataclass
class Observation:
    """One vehicle report: a landmark detection or an expected-miss.

    ``position`` is the world-frame estimate (the vehicle's localized
    pose applied to the body-frame measurement); ``sigma`` its 1-D
    standard deviation in metres. ``element_id`` is the prior-map
    association hint — required for MISS (which element was expected),
    optional for DETECTION (unknown for newly appeared landmarks).
    """

    kind: str
    position: Tuple[float, float]
    sigma: float
    vehicle: str
    seq: int
    t: float
    element_id: Optional[ElementId] = None
    sign_type: str = "direction"
    enqueued_at: float = 0.0  # stamped by the bus at publish time
    #: trace identity stamped by the bus (sampled observations only);
    #: pipeline stages continue the trace from it across worker threads.
    trace_ctx: Optional[TraceContext] = None

    @property
    def dedup_key(self) -> Tuple[str, int]:
        """At-least-once transports dedup on (vehicle, sequence number)."""
        return (self.vehicle, self.seq)

    def validate(self) -> None:
        """Raise :class:`IngestError` for malformed (poison) observations."""
        if self.kind not in ObservationKind.ALL:
            raise IngestError(f"unknown observation kind {self.kind!r}")
        x, y = self.position
        if not (math.isfinite(x) and math.isfinite(y)):
            raise IngestError(
                f"non-finite observation position ({x!r}, {y!r}) "
                f"from {self.vehicle}#{self.seq}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise IngestError(
                f"invalid observation sigma {self.sigma!r} "
                f"from {self.vehicle}#{self.seq}")
        if self.kind == ObservationKind.MISS and self.element_id is None:
            raise IngestError(
                f"miss observation without an expected element id "
                f"from {self.vehicle}#{self.seq}")


_batch_ids = itertools.count(1)


@dataclass
class ObservationBatch:
    """A tile-coherent batch leased from one bus partition.

    Batches are the at-least-once delivery unit: a batch stays *in
    flight* from :meth:`~repro.ingest.bus.ObservationBus.poll` until it
    is acked, and is redelivered (with ``attempts`` incremented) after a
    nack or an expired lease.
    """

    tile: TileId
    partition: int
    observations: List[Observation] = field(default_factory=list)
    batch_id: int = field(init=False,
                          default_factory=lambda: next(_batch_ids))
    attempts: int = 0

    @property
    def enqueued_at(self) -> float:
        """Enqueue stamp of the oldest observation in the batch — the
        anchor of the freshness-lag measurement."""
        if not self.observations:
            return 0.0
        return min(o.enqueued_at for o in self.observations)

    @property
    def trace_ctx(self) -> Optional[TraceContext]:
        """Trace context of the first sampled observation in the batch
        (the batch's stage spans attach to that observation's trace)."""
        for obs in self.observations:
            if obs.trace_ctx is not None:
                return obs.trace_ctx
        return None

    def __len__(self) -> int:
        return len(self.observations)
