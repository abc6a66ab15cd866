"""`IngestPipeline`: the streaming fleet-to-map maintenance loop.

Wires the subsystem together: producers :meth:`submit` observations into
the tile-partitioned :class:`~repro.ingest.bus.ObservationBus`; a pool of
stage workers (one worker owns a disjoint set of partitions, so per-tile
state is single-writer) leases tile-coherent batches and runs them through
validate -> associate -> fuse -> classify -> emit; confirmed patches go to
the idempotent :class:`~repro.ingest.publisher.PatchPublisher`, at which
point the serving layer's ``ChangesSince`` sees them.

Delivery semantics (documented in DESIGN.md and tested in
``tests/test_ingest.py``):

- *at-least-once*: a leased batch is redelivered after a nack (stage
  failure, exponential backoff) or an expired lease (worker crash);
- *bounded retries*: a batch that keeps failing lands in the dead-letter
  queue after ``max_attempts`` deliveries — poison never wedges a
  partition;
- *exactly-once effects*: observation dedup keys upstream and patch
  idempotency keys downstream collapse redeliveries, so no duplicate
  patch is ever published;
- *self-healing*: a supervisor thread requeues expired leases, restarts
  crashed workers, and keeps the queue-depth gauges current.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.tiles import TileId
from repro.ingest.breaker import CircuitBreaker, StageCircuitOpen
from repro.ingest.bus import ObservationBus
from repro.ingest.metrics import IngestMetrics
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER
from repro.ingest.observation import Observation, ObservationBatch
from repro.ingest.publisher import PatchPublisher
from repro.ingest.stages import (
    AssociateStage,
    ClassifyStage,
    EmitStage,
    FuseStage,
    IngestConfig,
    TileState,
    ValidateStage,
    VerifyStage,
    _PATCHES,
)
from repro.ingest.verify import QuarantineStore, VerifyGate
from repro.storage.journal import RecordJournal
from repro.update.dbn import DiscreteDBN
from repro.update.distribution import MapDistributionServer
from repro.update.incremental_fusion import IncrementalFuser


_log = get_logger("ingest.pipeline")


class DeadLetterQueue:
    """Terminal parking lot for poison batches, journaled for forensics."""

    def __init__(self, journal: Optional[RecordJournal] = None) -> None:
        self.journal = journal or RecordJournal()
        self._lock = threading.Lock()
        self._batches: List[Tuple[ObservationBatch, str]] = []

    def push(self, batch: ObservationBatch, reason: str) -> None:
        _log.error("batch_dead_lettered", batch_id=batch.batch_id,
                   tile=str(batch.tile), partition=batch.partition,
                   attempts=batch.attempts, observations=len(batch),
                   reason=reason)
        self.journal.append({
            "batch_id": batch.batch_id,
            "tile": str(batch.tile),
            "partition": batch.partition,
            "attempts": batch.attempts,
            "observations": len(batch),
            "dedup_keys": [f"{v}#{s}" for v, s in
                           (o.dedup_key for o in batch.observations)],
            "reason": reason,
        })
        with self._lock:
            self._batches.append((batch, reason))

    def batches(self) -> List[Tuple[ObservationBatch, str]]:
        with self._lock:
            return list(self._batches)

    def __len__(self) -> int:
        with self._lock:
            return len(self._batches)


class IngestPipeline:
    """Streaming observation ingestion with staged, supervised workers."""

    def __init__(self, server: MapDistributionServer,
                 tile_size: float = 250.0,
                 n_workers: int = 2,
                 n_partitions: Optional[int] = None,
                 capacity_per_partition: int = 2048,
                 lease_timeout_s: float = 2.0,
                 max_attempts: int = 4,
                 backoff_base_s: float = 0.02,
                 max_batch: int = 32,
                 dead_letter_journal: Optional[RecordJournal] = None,
                 stage_latency_s: float = 0.0,
                 delivery_hook: Optional[
                     Callable[[ObservationBatch], None]] = None,
                 supervisor_tick_s: float = 0.02,
                 breaker_cooldown_s: float = 0.25,
                 verify: bool = True,
                 quarantine_path: Optional[str] = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.server = server
        self.n_workers = n_workers
        self.n_partitions = n_partitions or max(4, n_workers)
        if self.n_partitions < n_workers:
            raise ValueError("need at least one partition per worker")
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.max_batch = max_batch
        self.stage_latency_s = stage_latency_s
        self.supervisor_tick_s = supervisor_tick_s
        #: test instrumentation: called at delivery time, before the
        #: guarded stage run — an exception here kills the worker thread
        #: (simulating a crash) and exercises the supervisor restart path.
        self.delivery_hook = delivery_hook

        self.config = IngestConfig()
        #: every ingest.* instrument: the pipeline's and its bus's
        self.registry = MetricsRegistry()
        self.metrics = IngestMetrics(self.registry)
        self.bus = ObservationBus(tile_size=tile_size,
                                  n_partitions=self.n_partitions,
                                  capacity_per_partition=capacity_per_partition,
                                  lease_timeout_s=lease_timeout_s)
        self.registry.register_collector(self.bus.registry.collect)
        self.prior = server.snapshot()
        # The mandatory constraint gate between fuse and publish
        # (ROADMAP item 4): one VerifyGate shared by the verify stage
        # and the publisher backstop, so direct publisher callers (e.g.
        # chaos harnesses) cannot route around it. `verify=False` builds
        # an ungated pipeline, for measuring the gate's own cost only.
        self.verify_gate: Optional[VerifyGate] = None
        if verify:
            self.verify_gate = VerifyGate(
                self.prior, metrics=self.metrics,
                quarantine=QuarantineStore(quarantine_path))
        self.publisher = PatchPublisher(
            server, metrics=self.metrics,
            add_conflation_radius=self.config.conflation_radius_m,
            verifier=self.verify_gate)
        self.stages = [
            ValidateStage(),
            AssociateStage(self.prior, self.config),
            FuseStage(self.config),
            ClassifyStage(self.config),
            EmitStage(server.new_element_id, self.config, prior=self.prior),
        ]
        if self.verify_gate is not None:
            self.stages.append(VerifyStage(self.verify_gate))
        # One circuit breaker per stage, shared by all workers: a stage
        # that fails STAGE_FAILURE_THRESHOLD consecutive deliveries is
        # declared systemically down and further batches are nacked fast
        # (without burning their retry budget) until a half-open probe
        # succeeds.
        self.breakers: Dict[str, CircuitBreaker] = {
            stage.name: CircuitBreaker(stage.name,
                                       cooldown_s=breaker_cooldown_s)
            for stage in self.stages}
        self.dead_letters = DeadLetterQueue(dead_letter_journal)
        self._states: Dict[TileId, TileState] = {}
        self._states_lock = threading.Lock()
        self._workers: List[Optional[threading.Thread]] = \
            [None] * self.n_workers
        self._supervisor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._closing = False
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "IngestPipeline":
        if self._started:
            return self
        self._started = True
        for i in range(self.n_workers):
            self._spawn_worker(i)
        self._supervisor = threading.Thread(target=self._supervise,
                                            name="ingest-supervisor",
                                            daemon=True)
        self._supervisor.start()
        return self

    def _spawn_worker(self, idx: int) -> None:
        t = threading.Thread(target=self._worker_loop, args=(idx,),
                             name=f"ingest-worker-{idx}", daemon=True)
        self._workers[idx] = t
        t.start()

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Block until every published observation is fully processed."""
        return self.bus.wait_drained(timeout_s)

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        if not self._started:
            return
        if drain:
            self.drain(timeout_s)
        self._closing = True
        self.bus.close()
        for t in self._workers:
            if t is not None:
                t.join(timeout=timeout_s)
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout_s)
        self._started = False

    def __enter__(self) -> "IngestPipeline":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- producer side --------------------------------------------------
    def submit(self, obs: Observation) -> bool:
        """Publish one observation; returns False if deduplicated."""
        return self.bus.publish(obs)

    # -- per-tile state -------------------------------------------------
    def _state_for(self, tile: TileId) -> TileState:
        # One tile maps to one partition maps to one worker, so after
        # creation the state is single-writer; the lock only guards the
        # dict against concurrent first-touch of *different* tiles.
        with self._states_lock:
            state = self._states.get(tile)
            if state is None:
                state = self._seed_state(tile)
                self._states[tile] = state
            return state

    def _seed_state(self, tile: TileId) -> TileState:
        """Install the prior map's signs of this tile: fuser tracks plus
        one PRESENT/REMOVED presence chain each (SLAMCU's per-feature
        DBN).

        Bounds are inflated by ``seed_margin_m``: a noisy detection of a
        sign that sits just across the tile boundary must still match a
        seeded track here, or it would cluster into a phantom addition.
        Margin copies only ever *see* detections (misses are reported at
        the sign's true tile), so they can never accrue removal belief.
        """
        state = TileState(
            tile=tile,
            fuser=IncrementalFuser(
                match_radius=self.config.match_radius,
                confidence_gain=self.config.fuser_confidence_gain,
                confidence_loss=self.config.fuser_confidence_loss))
        min_x, min_y, max_x, max_y = self.bus.scheme.tile_bounds(tile)
        margin = self.config.seed_margin_m
        for sign in self.prior.signs():
            x, y = float(sign.position[0]), float(sign.position[1])
            if not (min_x - margin <= x < max_x + margin
                    and min_y - margin <= y < max_y + margin):
                continue
            state.fuser.seed(sign.id, sign.position,
                             self.config.seed_sigma, t=0.0)
            state.dbn[sign.id] = DiscreteDBN.presence_chain()
        state.seeded = True
        return state

    # -- consumer side --------------------------------------------------
    def _worker_loop(self, worker_idx: int) -> None:
        partitions = [p for p in range(self.n_partitions)
                      if p % self.n_workers == worker_idx]
        while True:
            # Blocks only while none of the owned partitions is ready;
            # None means the bus is closed and they are drained.
            batch = self.bus.poll(partitions, self.max_batch)
            if batch is None:
                return
            self._deliver(batch, worker_idx)

    def _deliver(self, batch: ObservationBatch, worker_idx: int) -> None:
        # The hook runs un-guarded on purpose: an exception here escapes
        # the loop and kills the worker (a simulated crash), leaving the
        # batch leased so the supervisor redelivers it.
        if self.delivery_hook is not None:
            self.delivery_hook(batch)
        try:
            self._process(batch, worker_idx)
        except StageCircuitOpen as exc:
            # Not the batch's fault: the stage is systemically down.
            # Redeliver after the breaker cooldown without charging the
            # batch's retry budget.
            self.bus.nack(batch, exc.retry_after_s, count_attempt=False)
            self.metrics.breaker_fast_failures.add()
            return
        except Exception as exc:
            # Stage failure: retry with exponential backoff, then DLQ.
            if batch.attempts + 1 >= self.max_attempts:
                self.bus.ack(batch)  # terminally failed; release the lease
                self.dead_letters.push(batch, f"{type(exc).__name__}: {exc}")
                self.metrics.dead_letters.add()
            else:
                delay = self.backoff_base_s * (2 ** batch.attempts)
                self.bus.nack(batch, delay)
                self.metrics.batch_retries.add()
                _log.warning("batch_retry", batch_id=batch.batch_id,
                             tile=str(batch.tile), attempt=batch.attempts,
                             backoff_s=round(delay, 6),
                             error=f"{type(exc).__name__}: {exc}")
            return
        self.bus.ack(batch)
        self.metrics.batches_processed.add()
        self.metrics.observations_processed.add(len(batch))

    def _process(self, batch: ObservationBatch, worker_idx: int) -> None:
        ctx = batch.trace_ctx
        if ctx is not None:
            # Reconstruct the queue wait as its own (backdated) span, so a
            # trace dump accounts for the full enqueue-to-publish lag.
            with TRACER.continue_from(ctx, "ingest.wait",
                                      start_s=batch.enqueued_at):
                pass
        with TRACER.continue_from(ctx, "ingest.batch") as bspan:
            if bspan.context is not None:
                bspan.set("batch_id", batch.batch_id)
                bspan.set("tile", str(batch.tile))
                bspan.set("observations", len(batch))
                bspan.set("attempt", batch.attempts)
                bspan.set("worker", worker_idx)
            if self.stage_latency_s > 0:
                time.sleep(self.stage_latency_s)  # modelled I/O (GIL released)
            state = self._state_for(batch.tile)
            carry: dict = {}
            for stage in self.stages:
                breaker = self.breakers[stage.name]
                breaker.acquire()  # may raise StageCircuitOpen
                t0 = time.monotonic()
                try:
                    with TRACER.span(f"ingest.stage.{stage.name}"):
                        stage.process(state, batch, carry)
                except Exception:
                    if breaker.record_failure():
                        self.metrics.breaker_opens.add()
                    raise
                breaker.record_success()
                self.metrics.record_stage(stage.name, time.monotonic() - t0,
                                          worker_idx)
            for confirmed in carry.get(_PATCHES, []):
                self.publisher.publish(confirmed)

    # -- supervision ----------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop_event.is_set():
            redelivered = self.bus.redeliver_expired()
            if redelivered:
                _log.warning("leases_redelivered", batches=redelivered)
            for p in range(self.n_partitions):
                self.metrics.depth_gauge(p).set(self.bus.depth(p))
            self.metrics.in_flight.set(self.bus.in_flight())
            if not self._closing:
                for i, t in enumerate(self._workers):
                    if t is not None and not t.is_alive():
                        self.metrics.worker_restarts.add()
                        _log.error("worker_restarted", worker=i)
                        self._spawn_worker(i)
            self._stop_event.wait(self.supervisor_tick_s)

    # -- observability --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """:meth:`IngestMetrics.as_dict` (bus counters included) plus the
        quarantine record count, breaker states and total queue depth."""
        out = self.metrics.as_dict()
        if self.verify_gate is not None:
            out["verify"]["quarantine_records"] = \
                len(self.verify_gate.quarantine)  # type: ignore[index]
        out["breaker"]["stages"] = {  # type: ignore[index]
            name: b.state for name, b in sorted(self.breakers.items())}
        out["queue_depth_total"] = self.bus.total_depth()
        return out
