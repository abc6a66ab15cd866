"""Tile-partitioned observation bus: bounded queues, dedup, backpressure.

The fleet-to-map path has to absorb "heavy traffic from millions of users"
without an unbounded backlog, and the MEC/RSU design of the source paper
aggregates crowd reports *per region* before they reach the map maker
[47]. :class:`ObservationBus` is that regional aggregation point in
process form:

- observations are partitioned by the tile of their position, so one
  tile's evidence always lands in one partition and downstream per-tile
  state needs no cross-worker locking;
- each partition is a *bounded* queue — when a partition overflows, the
  oldest unleased observation of that partition is shed (count exported),
  because stale evidence is the cheapest to lose;
- duplicate uplinks are dropped at the door via a sliding window over
  ``(vehicle, seq)`` dedup keys;
- :meth:`poll` leases a tile-coherent :class:`ObservationBatch`;
  the batch is redelivered if it is nacked (retry with backoff) or its
  lease expires (worker crash), which is what makes delivery
  at-least-once end to end.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.tiles import TileId, TileScheme
from repro.errors import IngestError
from repro.ingest.observation import Observation, ObservationBatch
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER

_log = get_logger("ingest.bus")

#: (vehicle, seq) dedup keys each partition remembers
DEDUP_WINDOW = 16384


class _Partition:
    """One bounded partition: pending queue + dedup window + delivery state."""

    __slots__ = ("pending", "recent", "inflight", "retry", "last_lease")

    def __init__(self) -> None:
        self.pending: Deque[Observation] = deque()
        self.recent: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        # batch_id -> (batch, lease deadline)
        self.inflight: Dict[int, Tuple[ObservationBatch, float]] = {}
        # (ready_time, tiebreak, batch) min-heap of nacked batches
        self.retry: List[Tuple[float, int, ObservationBatch]] = []
        # bus tick of this partition's latest lease (poll fairness)
        self.last_lease = -1

    def ready(self, now: float) -> bool:
        return bool(self.pending) or bool(self.retry
                                          and self.retry[0][0] <= now)

    def drained(self) -> bool:
        return not (self.pending or self.retry or self.inflight)


class ObservationBus:
    """Partitioned, bounded, deduplicating observation transport; one lock
    and one condition guard every partition."""

    def __init__(self, tile_size: float = 250.0, n_partitions: int = 4,
                 capacity_per_partition: int = 1024,
                 lease_timeout_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if n_partitions < 1:
            raise IngestError("n_partitions must be >= 1")
        if capacity_per_partition < 1:
            raise IngestError("capacity_per_partition must be >= 1")
        self.scheme = TileScheme(tile_size)
        self.n_partitions = n_partitions
        self.capacity_per_partition = capacity_per_partition
        self.lease_timeout_s = lease_timeout_s
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._partitions = [_Partition() for _ in range(n_partitions)]
        self._ticks = itertools.count()  # retry tiebreaks, lease recency
        self._closed = False
        #: the producer-side ``ingest.bus.*`` counters
        self.registry = MetricsRegistry()
        counter = self.registry.counter
        self.published = counter("ingest.bus.published")
        self.deduplicated = counter("ingest.bus.deduplicated")
        self.shed_oldest = counter("ingest.bus.shed_oldest")
        self.redelivered = counter("ingest.bus.redelivered")
        self.acked_batches = counter("ingest.bus.acked_batches")

    # -- producer side --------------------------------------------------
    def partition_of(self, tile: TileId) -> int:
        """Stable tile -> partition assignment (one tile, one partition)."""
        return ((tile.tx * 73856093) ^ (tile.ty * 19349663)) \
            % self.n_partitions

    def publish(self, obs: Observation) -> bool:
        """Enqueue one observation; returns False if deduplicated.

        A full partition sheds its *oldest* pending observation to admit
        the new one (freshest-evidence-wins backpressure); the shed count
        is exported, never silent.
        """
        if self._closed:
            raise IngestError("bus is closed")
        tile = self.scheme.tile_of(*obs.position)
        partition = self.partition_of(tile)
        part = self._partitions[partition]
        with self._cond:
            key = obs.dedup_key
            if key in part.recent:
                self.deduplicated.add()
                return False
            part.recent[key] = None
            while len(part.recent) > DEDUP_WINDOW:
                part.recent.popitem(last=False)
            if len(part.pending) >= self.capacity_per_partition:
                part.pending.popleft()
                self.shed_oldest.add()
                _log.warning("observation_shed", partition=partition,
                             capacity=self.capacity_per_partition)
            if TRACER.enabled:
                # Stamp the observation with a trace identity: a child of
                # the caller's active trace, or a fresh sampled root. The
                # enqueue span itself is instantaneous — the queue wait is
                # reconstructed by the pipeline as an `ingest.wait` span.
                cm = (TRACER.span("ingest.enqueue")
                      if TRACER.current() is not None
                      else TRACER.start_trace("ingest.enqueue"))
                with cm as sp:
                    if sp.context is not None:
                        sp.set("vehicle", obs.vehicle)
                        sp.set("seq", obs.seq)
                        sp.set("tile", str(tile))
                        obs.trace_ctx = sp.context
            obs.enqueued_at = self._clock()
            part.pending.append(obs)
            self.published.add()
            # Workers own disjoint partitions: one notify could wake the
            # wrong one.
            self._cond.notify_all()
        return True

    # -- consumer side --------------------------------------------------
    def _build_batch(self, part: _Partition, partition: int,
                     max_batch: int) -> ObservationBatch:
        """Lease a tile-coherent batch off a non-empty pending queue."""
        head_tile = self.scheme.tile_of(*part.pending[0].position)
        taken: List[Observation] = []
        kept: List[Observation] = []
        while part.pending and len(taken) < max_batch:
            obs = part.pending.popleft()
            if self.scheme.tile_of(*obs.position) == head_tile:
                taken.append(obs)
            else:
                kept.append(obs)
        for obs in reversed(kept):
            part.pending.appendleft(obs)
        return ObservationBatch(tile=head_tile, partition=partition,
                                observations=taken)

    def poll(self, partitions: Sequence[int], max_batch: int = 32,
             timeout: Optional[float] = None) -> Optional[ObservationBatch]:
        """Lease the next batch from any ready one of ``partitions``.

        Due retries go first, and the ready partition leased longest ago
        wins, so a refilling one cannot starve its siblings. Blocks only
        while none is ready, at most until the earliest retry among them
        is due. Returns None on ``timeout``, or once the bus is closed and
        ``partitions`` hold nothing pending, retrying or leased; an unacked
        lease expires after ``lease_timeout_s`` and is redelivered.
        """
        owned = [(p, self._partitions[p]) for p in partitions]
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                now = self._clock()
                ready = [(part.last_lease, p, part) for p, part in owned
                         if part.ready(now)]
                if ready:
                    _, p, part = min(ready)
                    if part.retry and part.retry[0][0] <= now:
                        batch = heapq.heappop(part.retry)[2]
                    else:
                        batch = self._build_batch(part, p, max_batch)
                    part.last_lease = next(self._ticks)
                    part.inflight[batch.batch_id] = (
                        batch, now + self.lease_timeout_s)
                    return batch
                if self._closed and all(part.drained() for _, part in owned):
                    return None
                due = [part.retry[0][0] for _, part in owned if part.retry]
                wait = max(0.0, min(due) - now) if due else None
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def ack(self, batch: ObservationBatch) -> None:
        """Mark a batch done; it will never be redelivered."""
        part = self._partitions[batch.partition]
        with self._cond:
            if part.inflight.pop(batch.batch_id, None) is not None:
                self.acked_batches.add()
                self._cond.notify_all()

    def nack(self, batch: ObservationBatch, delay_s: float = 0.0,
             count_attempt: bool = True) -> None:
        """Schedule a failed batch for redelivery after ``delay_s``.

        ``count_attempt=False`` redelivers without charging the batch's
        retry budget — used when the batch itself did not fail (e.g. a
        stage circuit breaker refused to run it), so a systemic outage
        cannot dead-letter healthy batches.
        """
        part = self._partitions[batch.partition]
        with self._cond:
            if part.inflight.pop(batch.batch_id, None) is None:
                return  # already acked or lease-expired elsewhere
            if count_attempt:
                batch.attempts += 1
            heapq.heappush(part.retry, (self._clock() + delay_s,
                                        next(self._ticks), batch))
            self.redelivered.add()
            self._cond.notify_all()

    def redeliver_expired(self) -> int:
        """Requeue every in-flight batch whose lease expired (crashed
        worker); returns how many were redelivered."""
        total = 0
        with self._cond:
            now = self._clock()
            for part in self._partitions:
                expired = [bid for bid, (_, dl) in part.inflight.items()
                           if dl <= now]
                for bid in expired:
                    batch, _ = part.inflight.pop(bid)
                    batch.attempts += 1
                    heapq.heappush(part.retry,
                                   (now, next(self._ticks), batch))
                    self.redelivered.add()
                    total += 1
            if total:
                self._cond.notify_all()
        return total

    # -- introspection --------------------------------------------------
    def depth(self, partition: int) -> int:
        part = self._partitions[partition]
        with self._cond:
            return len(part.pending) + len(part.retry)

    def total_depth(self) -> int:
        return sum(self.depth(p) for p in range(self.n_partitions))

    def in_flight(self) -> int:
        with self._cond:
            return sum(len(part.inflight) for part in self._partitions)

    def _drained(self) -> bool:
        return all(part.drained() for part in self._partitions)

    def is_drained(self) -> bool:
        """Nothing pending, retrying, or leased anywhere."""
        with self._cond:
            return self._drained()

    def wait_drained(self, timeout_s: Optional[float] = None) -> bool:
        """Block until :meth:`is_drained`; False if ``timeout_s`` elapses
        first. Woken by every ack, so there is no polling interval."""
        with self._cond:
            return self._cond.wait_for(self._drained, timeout_s)

    def close(self) -> None:
        """Stop admitting; wake all pollers so they can drain and exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
