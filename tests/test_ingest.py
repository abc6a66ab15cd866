"""Streaming ingest: bus semantics, failure paths, idempotency, and the
end-to-end fleet -> ingest -> serve maintenance loop."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core import MapPatch, SignType, TrafficSign
from repro.core.changes import ChangeType
from repro.errors import IngestError, StorageError
from repro.ingest import (
    ConfirmedPatch,
    FleetObservationSource,
    IngestPipeline,
    Observation,
    ObservationBus,
    ObservationKind,
    PatchPublisher,
    TransientPublishError,
)
from repro.ingest.metrics import IngestMetrics
from repro.obs import EVENT_LOG
from repro.obs.metrics import MetricsRegistry
from repro.serve import ChangesSince, MapService
from repro.storage import RecordJournal, TileStore
from repro.update.distribution import ConflictPolicy, MapDistributionServer
from repro.world import generate_grid_city
from repro.world.scenario import ChangeSpec, apply_changes


def _obs(seq=0, vehicle="v0", x=10.0, y=10.0, kind=ObservationKind.DETECTION,
         sigma=0.5, **kw):
    return Observation(kind=kind, position=(x, y), sigma=sigma,
                       vehicle=vehicle, seq=seq, t=float(seq), **kw)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ----------------------------------------------------------------------
class TestObservation:
    def test_dedup_key(self):
        assert _obs(seq=7, vehicle="a").dedup_key == ("a", 7)

    def test_validate_accepts_well_formed(self):
        _obs().validate()

    @pytest.mark.parametrize("bad", [
        _obs(x=float("nan")),
        _obs(y=float("inf")),
        _obs(sigma=0.0),
        _obs(sigma=float("nan")),
        _obs(kind="telepathy"),
        _obs(kind=ObservationKind.MISS),  # miss without an element id
    ])
    def test_validate_rejects_poison(self, bad):
        with pytest.raises(IngestError):
            bad.validate()


# ----------------------------------------------------------------------
class TestObservationBus:
    def test_publish_dedups_redelivered_observations(self):
        bus = ObservationBus(n_partitions=1)
        assert bus.publish(_obs(seq=1))
        assert not bus.publish(_obs(seq=1))  # same (vehicle, seq)
        assert bus.publish(_obs(seq=2))
        assert bus.published.value == 2
        assert bus.deduplicated.value == 1

    def test_batches_are_tile_coherent(self):
        bus = ObservationBus(tile_size=100.0, n_partitions=1)
        for seq, x in enumerate([10.0, 510.0, 20.0, 520.0, 30.0]):
            bus.publish(_obs(seq=seq, x=x))
        seen_tiles = []
        while True:
            batch = bus.poll([0], max_batch=16, timeout=0.0)
            if batch is None:
                break
            tiles = {bus.scheme.tile_of(*o.position)
                     for o in batch.observations}
            assert len(tiles) == 1
            seen_tiles.append(batch.tile)
            bus.ack(batch)
        assert len(seen_tiles) == 2
        assert bus.is_drained()

    def test_ack_completes_delivery(self):
        bus = ObservationBus(n_partitions=1)
        bus.publish(_obs())
        batch = bus.poll([0], timeout=0.0)
        assert batch is not None and bus.in_flight() == 1
        assert not bus.is_drained()
        bus.ack(batch)
        assert bus.in_flight() == 0
        assert bus.is_drained()
        assert bus.acked_batches.value == 1

    def test_nack_redelivers_with_attempts(self):
        bus = ObservationBus(n_partitions=1)
        bus.publish(_obs())
        batch = bus.poll([0], timeout=0.0)
        bus.nack(batch, delay_s=0.0)
        again = bus.poll([0], timeout=0.5)
        assert again is not None
        assert again.batch_id == batch.batch_id
        assert again.attempts == 1
        assert bus.redelivered.value == 1

    def test_expired_lease_is_redelivered(self):
        clock = FakeClock()
        bus = ObservationBus(n_partitions=1, lease_timeout_s=5.0,
                             clock=clock)
        bus.publish(_obs())
        batch = bus.poll([0], timeout=0.0)
        assert batch.attempts == 0
        assert bus.redeliver_expired() == 0  # lease still live
        clock.t = 6.0
        assert bus.redeliver_expired() == 1  # worker presumed crashed
        again = bus.poll([0], timeout=0.0)
        assert again.batch_id == batch.batch_id
        assert again.attempts == 1

    def test_backpressure_sheds_oldest_per_partition(self):
        bus = ObservationBus(n_partitions=1, capacity_per_partition=4)
        for seq in range(6):
            assert bus.publish(_obs(seq=seq))
        assert bus.shed_oldest.value == 2
        batch = bus.poll([0], max_batch=16, timeout=0.0)
        # The two oldest observations were shed; the freshest four remain.
        assert sorted(o.seq for o in batch.observations) == [2, 3, 4, 5]

    def test_closed_empty_bus_returns_none(self):
        bus = ObservationBus(n_partitions=1)
        bus.close()
        assert bus.poll([0], timeout=5.0) is None
        with pytest.raises(IngestError):
            bus.publish(_obs())


# ----------------------------------------------------------------------
def _sign_server():
    from repro.core import HDMap, Lane
    from repro.geometry.polyline import straight

    hdmap = HDMap("ingest-test")
    hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
    hdmap.create(TrafficSign, position=np.array([50.0, 5.0]),
                 sign_type=SignType.STOP)
    return MapDistributionServer(hdmap)


def _add_patch(server, position, confidence=0.9):
    sign = TrafficSign(id=server.new_element_id("sign"),
                       position=np.asarray(position, dtype=float),
                       sign_type=SignType.DIRECTION)
    return MapPatch(source="test", confidence=confidence).add(sign)


class TestPatchPublisher:
    def test_duplicate_key_suppressed(self):
        server = _sign_server()
        publisher = PatchPublisher(server)
        first = publisher.publish(
            ConfirmedPatch("k1", _add_patch(server, [10.0, 5.0])))
        assert first.published and not first.duplicate
        redelivered = publisher.publish(
            ConfirmedPatch("k1", _add_patch(server, [10.0, 5.0])))
        assert redelivered.duplicate and not redelivered.published
        assert server.version == 1
        assert publisher.seen("k1")

    def test_conflated_add_suppressed_across_keys(self):
        server = _sign_server()
        publisher = PatchPublisher(server, add_conflation_radius=4.0)
        assert publisher.publish(
            ConfirmedPatch("k1", _add_patch(server, [10.0, 5.0]))).published
        # A different tile reported the same physical sign 2 m away.
        near = publisher.publish(
            ConfirmedPatch("k2", _add_patch(server, [12.0, 5.0])))
        assert near.duplicate
        far = publisher.publish(
            ConfirmedPatch("k3", _add_patch(server, [30.0, 5.0])))
        assert far.published
        assert server.version == 2

    def test_rejected_patch_key_not_burned(self):
        server = _sign_server()
        prior_sign = next(iter(server.db.map.signs()))
        assert server.ingest(MapPatch(source="survey", confidence=0.9)
                             .remove(prior_sign.id)).accepted
        server.POLICY = ConflictPolicy.REJECT
        publisher = PatchPublisher(server)
        conflicted = ConfirmedPatch("kr", MapPatch(
            source="ingest", confidence=0.9).add(
                TrafficSign(id=prior_sign.id, position=prior_sign.position,
                            sign_type=SignType.STOP)))
        result = publisher.publish(conflicted)
        assert not result.published and not result.duplicate
        # The key was not recorded, so the patch may be retried later.
        assert not publisher.seen("kr")

    def test_retry_exhaustion_emits_events_and_keeps_key_retriable(self):
        server = _sign_server()

        class FlakyServer:
            """Delegating wrapper whose ingest fails N times, then heals."""

            def __init__(self, inner, failures):
                self._inner = inner
                self.failures = failures

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def ingest(self, patch, policy=None):
                if self.failures > 0:
                    self.failures -= 1
                    raise TransientPublishError("replica fail-over")
                return self._inner.ingest(patch, policy=policy)

        flaky = FlakyServer(server, failures=10)
        metrics = IngestMetrics(MetricsRegistry())
        publisher = PatchPublisher(flaky, metrics=metrics)
        EVENT_LOG.clear()
        result = publisher.publish(
            ConfirmedPatch("kx", _add_patch(server, [10.0, 5.0])))
        assert not result.published and not result.duplicate
        assert result.version is None

        retries = EVENT_LOG.events(event="publish_retry")
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all(e["level"] == "warning" and e["key"] == "kx"
                   for e in retries)
        (failed,) = EVENT_LOG.events(event="publish_failed")
        assert failed["level"] == "error"
        assert failed["attempts"] == 3
        assert metrics.publish_retries.value == 2
        assert metrics.publish_failures.value == 1

        # The key was not burned by the failure: once the database heals
        # (one transient left: a retry succeeds), the change publishes.
        flaky.failures = 1
        healed = publisher.publish(
            ConfirmedPatch("kx", _add_patch(server, [10.0, 5.0])))
        assert healed.published
        assert metrics.publish_retries.value == 3
        assert server.version == 1

    def test_concurrent_redelivery_publishes_once(self):
        server = _sign_server()
        publisher = PatchPublisher(server)
        patches = [ConfirmedPatch("same-key",
                                  _add_patch(server, [10.0 + i, 5.0]))
                   for i in range(8)]
        barrier = threading.Barrier(len(patches))
        results = [None] * len(patches)

        def run(i):
            barrier.wait()
            results[i] = publisher.publish(patches[i])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(patches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for r in results if r.published) == 1
        assert sum(1 for r in results if r.duplicate) == 7
        assert server.version == 1


# ----------------------------------------------------------------------
class TestRecordJournal:
    def test_append_and_replay(self):
        journal = RecordJournal()
        assert journal.append({"a": 1}) == 0
        assert journal.append({"b": 2}) == 1
        assert len(journal) == 2
        assert journal.replay() == [{"a": 1}, {"b": 2}]

    def test_rejects_non_dict(self):
        with pytest.raises(StorageError):
            RecordJournal().append(["not", "a", "dict"])

    def test_jsonl_write_through_and_load(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        journal = RecordJournal(path=path)
        journal.append({"batch": 1, "reason": "poison"})
        journal.append({"batch": 2, "reason": "poison"})
        journal.close()
        assert RecordJournal.load(path).replay() == [
            {"batch": 1, "reason": "poison"},
            {"batch": 2, "reason": "poison"},
        ]


# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_poison_observation_dead_letters_without_wedging(self):
        server = _sign_server()
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1,
                              max_attempts=3, backoff_base_s=0.001)
        with pipe:
            pipe.submit(_obs(seq=0, sigma=-1.0))  # poison
            # Healthy observation in a *different tile* of the same
            # partition: it must keep flowing around the poison batch.
            pipe.submit(_obs(seq=1, x=300.0))
            assert pipe.drain(10.0)
        dead = pipe.dead_letters.batches()
        assert len(dead) == 1
        batch, reason = dead[0]
        assert "IngestError" in reason
        # max_attempts deliveries happened: attempts counts redeliveries.
        assert batch.attempts == 2
        stats = pipe.stats()
        assert stats["batches"]["dead_letters"] == 1
        assert stats["batches"]["retries"] == 2
        # The partition kept flowing: the healthy observation made it.
        assert stats["observations"]["processed"] >= 1
        record = pipe.dead_letters.journal.replay()[0]
        assert record["reason"] == reason
        assert record["observations"] == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_crashed_worker_restarts_and_batch_redelivered(self):
        server = _sign_server()
        crashed = threading.Event()

        def crash_once(batch):
            if not crashed.is_set():
                crashed.set()
                raise RuntimeError("simulated worker crash")

        pipe = IngestPipeline(server, n_workers=1, n_partitions=1,
                              lease_timeout_s=0.1, supervisor_tick_s=0.01,
                              delivery_hook=crash_once)
        with pipe:
            for seq in range(8):
                pipe.submit(_obs(seq=seq, x=10.0 + seq))
            assert pipe.drain(10.0)
        assert crashed.is_set()
        stats = pipe.stats()
        assert stats["batches"]["worker_restarts"] >= 1
        assert stats["batches"]["redelivered"] >= 1
        # Nothing was lost: every published observation was processed
        # (at-least-once, so processed may exceed published).
        assert (stats["observations"]["processed"]
                >= stats["observations"]["published"])
        assert stats["batches"]["acked"] >= 1
        assert pipe.bus.is_drained()

    def test_backpressure_surfaces_in_stats(self):
        server = _sign_server()
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1,
                              capacity_per_partition=4)
        # Not started: the bus fills and sheds without consumers.
        for seq in range(10):
            pipe.submit(_obs(seq=seq))
        stats = pipe.stats()
        assert stats["observations"]["shed"] == 6
        assert stats["queue_depth_total"] == 4


# ----------------------------------------------------------------------
def _burst(n=96, tiles=12):
    """Observations spread round-robin over ``tiles`` 250 m tiles."""
    return [_obs(seq=seq, x=250.0 * (seq % tiles) + 10.0 + seq / n)
            for seq in range(n)]


class TestWorkerWaits:
    def test_worker_never_waits_while_an_owned_partition_is_ready(self):
        server = _sign_server()
        pipe = IngestPipeline(server, n_workers=1, n_partitions=8)
        bus = pipe.bus
        idle_while_ready = []
        inner = bus._cond.wait

        def wait(timeout=None):
            # Runs under the bus lock, so the partitions hold still.
            if threading.current_thread().name.startswith("ingest-worker"):
                now = bus._clock()
                idle_while_ready.extend(
                    p for p, part in enumerate(bus._partitions)
                    if part.ready(now))
            return inner(timeout)

        bus._cond.wait = wait
        burst = _burst()
        assert len({bus.partition_of(bus.scheme.tile_of(*o.position))
                    for o in burst}) > 1
        for obs in burst:
            pipe.submit(obs)
        with pipe:
            assert pipe.drain(10.0)
        assert idle_while_ready == []
        assert pipe.stats()["observations"]["processed"] == len(burst)

    def test_drain_waits_without_sleeping(self, monkeypatch):
        # Not started: this test is the only consumer. It leases every
        # batch, then acks them only once drain() is blocked in the bus
        # condition, so drain() must really wait.
        pipe = IngestPipeline(_sign_server(), n_workers=1, n_partitions=4)
        bus = pipe.bus
        for obs in _burst():
            pipe.submit(obs)
        everything = list(range(bus.n_partitions))
        leased = []
        while (batch := bus.poll(everything, timeout=0.0)) is not None:
            leased.append(batch)
        draining = threading.Event()
        inner = bus._cond.wait

        def wait(timeout=None):
            draining.set()
            return inner(timeout)

        bus._cond.wait = wait

        def ack_all():
            assert draining.wait(10.0)
            for batch in leased:
                bus.ack(batch)

        def no_sleep(_s):
            raise AssertionError("drain polled with time.sleep")

        acker = threading.Thread(target=ack_all)
        acker.start()
        monkeypatch.setattr("time.sleep", no_sleep)
        try:
            assert pipe.drain(10.0)
        finally:
            draining.set()
            acker.join(10.0)
        assert bus.is_drained()

    def test_drain_times_out_false(self):
        pipe = IngestPipeline(_sign_server(), n_workers=1, n_partitions=1)
        pipe.submit(_obs())  # never started: nothing consumes it
        assert not pipe.drain(0.01)


# ----------------------------------------------------------------------
class TestEndToEndMaintenanceLoop:
    @pytest.fixture(scope="class")
    def loop(self):
        """Inject ground-truth changes, stream a synthetic fleet through
        the ingest pipeline, and serve the result — one maintenance loop."""
        seed = 7
        rng = np.random.default_rng(seed)
        city = generate_grid_city(rng, blocks_x=3, blocks_y=2,
                                  block_size=150.0)
        scenario = apply_changes(
            city, ChangeSpec(remove_signs=2, add_signs=2), rng)
        server = MapDistributionServer(scenario.prior.copy())
        store = TileStore.build(scenario.prior, tile_size=250.0)
        service = MapService(server, store, n_workers=2)
        pipe = IngestPipeline(server, tile_size=250.0, n_workers=2)
        source = FleetObservationSource(
            scenario, n_vehicles=4, route_length_m=1200.0, step_s=0.5,
            routes_per_vehicle=3, duplicate_rate=0.15, seed=seed)
        with service, pipe:
            report = source.run(pipe.submit)
            assert pipe.drain(30.0)
            delta = service.request(ChangesSince(0))
        return scenario, service, pipe, report, delta

    def test_every_injected_change_is_served(self, loop):
        scenario, _, _, _, delta = loop
        assert delta.ok
        changes = delta.payload.changes
        removed = {c.element_id for c in changes
                   if c.change_type is ChangeType.REMOVED}
        added = [c.position for c in changes
                 if c.change_type is ChangeType.ADDED]
        for true_change in scenario.true_changes:
            if true_change.change_type is ChangeType.REMOVED:
                assert true_change.element_id in removed
            else:
                tx, ty = true_change.position
                assert any(np.hypot(tx - ax, ty - ay) <= 6.0
                           for ax, ay in added)

    def test_no_duplicate_patches_despite_at_least_once(self, loop):
        scenario, _, pipe, report, delta = loop
        assert report.deduplicated > 0  # the flaky uplink really re-sent
        changes = delta.payload.changes
        # Each physical change produced exactly one served change record.
        removed = [c.element_id for c in changes
                   if c.change_type is ChangeType.REMOVED]
        assert len(removed) == len(set(removed))
        added = [c.position for c in changes
                 if c.change_type is ChangeType.ADDED]
        for i, (ax, ay) in enumerate(added):
            for bx, by in added[i + 1:]:
                assert np.hypot(ax - bx, ay - by) > 4.0
        stats = pipe.stats()
        assert stats["batches"]["dead_letters"] == 0

    def test_freshness_and_stage_latency_observable(self, loop):
        _, _, pipe, _, _ = loop
        stats = pipe.stats()
        assert stats["freshness"]["count"] >= 1
        assert stats["freshness"]["max_s"] >= stats["freshness"]["p95_s"] > 0
        for stage in ("validate", "associate", "fuse", "classify", "emit"):
            snap = stats["stage_latency"][stage]
            assert snap["count"] > 0
            assert snap["min_s"] <= snap["p50_s"] <= snap["max_s"]

    def test_bounded_versions(self, loop):
        scenario, _, pipe, _, delta = loop
        # Every change landed within a bounded number of map versions:
        # with idempotent publication the version count equals the number
        # of accepted patches, which is bounded by true changes here.
        assert delta.payload.version == len(delta.payload.changes)
        assert delta.payload.version <= 2 * len(scenario.true_changes)


class TestBurstBeforeStart:
    def test_worker_count_does_not_change_what_is_published(self):
        """With the whole burst queued before ``start()``, every batch
        boundary is fixed by the queue, not by scheduling: one worker and
        two publish the same versions, remove the same prior elements and
        add as many. Started first, a pipeline cuts batches as the burst
        arrives, and smaller batches may confirm more added signs."""
        rng = np.random.default_rng(7)
        city = generate_grid_city(rng, blocks_x=2, blocks_y=2,
                                  block_size=150.0)
        scenario = apply_changes(
            city, ChangeSpec(remove_signs=2, add_signs=2), rng)
        burst = []
        FleetObservationSource(
            scenario, n_vehicles=3, route_length_m=900.0, step_s=0.5,
            routes_per_vehicle=2, duplicate_rate=0.15,
            seed=7).run(burst.append)
        prior = {e.id for e in scenario.prior.elements()}
        outcomes = []
        for n_workers in (1, 2):
            server = MapDistributionServer(scenario.prior.copy())
            pipe = IngestPipeline(server, tile_size=250.0,
                                  n_workers=n_workers)
            for obs in burst:
                pipe.submit(dataclasses.replace(obs))
            with pipe:
                assert pipe.drain(30.0)
            ids = set(server.element_ids())
            outcomes.append((server.version, prior - ids, len(ids - prior)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] > 0 and outcomes[0][1]
