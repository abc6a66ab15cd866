"""Serving layer: admission control, tile cache, MapService, fleet runs."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MapPatch, SignType, TrafficSign
from repro.core.tiles import TileId
from repro.errors import StorageError
from repro.serve import (
    AdmissionController,
    ChangesSince,
    Counter,
    GetTile,
    IngestPatch,
    LatencyHistogram,
    MapService,
    FleetSimulator,
    Priority,
    Snapshot,
    SpatialQuery,
    Status,
)
from repro.serve.cache import ShardedTileCache
from repro.storage import StreamingMap, TileStore
from repro.storage.tilestore import TileStoreStats
from repro.update.distribution import MapDistributionServer, VehicleMapClient


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _add_sign_patch(server, source="crowd", confidence=0.9,
                    position=(10.0, 5.0)):
    patch = MapPatch(source=source, confidence=confidence)
    patch.add(TrafficSign(id=server.new_element_id("sign"),
                          position=np.asarray(position, dtype=float),
                          sign_type=SignType.DIRECTION))
    return patch


# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_backpressure_when_full(self):
        queue = AdmissionController(max_queue=2, clock=FakeClock())
        assert queue.offer("a")
        assert queue.offer("b")
        assert not queue.offer("c")  # bounded: overflow is rejected
        assert queue.rejected.value == 1
        assert queue.depth() == 2

    def test_fifo_order(self):
        queue = AdmissionController(clock=FakeClock())
        for name in ("a", "b", "c"):
            queue.offer(name)
        assert [queue.take(0) for _ in range(3)] == ["a", "b", "c"]

    def test_stale_low_priority_is_shed(self):
        clock = FakeClock()
        shed = []
        queue = AdmissionController(on_shed=shed.append, clock=clock)
        queue.offer("stale-low", Priority.LOW)
        queue.offer("fresh-normal", Priority.NORMAL)
        clock.advance(1.0)  # both now aged past MAX_AGE_S
        # The LOW request is shed; NORMAL survives regardless of age.
        assert queue.take(0) == "fresh-normal"
        assert shed == ["stale-low"]
        assert queue.shed.value == 1

    def test_young_low_priority_survives(self):
        clock = FakeClock()
        queue = AdmissionController(clock=clock)
        queue.offer("low", Priority.LOW)
        clock.advance(0.4)
        assert queue.take(0) == "low"
        assert queue.shed.value == 0

    def test_closed_queue_rejects_and_drains(self):
        queue = AdmissionController(clock=FakeClock())
        queue.offer("a")
        queue.close()
        assert not queue.offer("b")
        assert queue.take(0) == "a"
        assert queue.take(0) is None  # closed and drained

    def test_take_timeout_returns_none(self):
        queue = AdmissionController()  # real clock: wait path
        assert queue.take(timeout=0.01) is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_concurrent_increments(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000

    def test_histogram_percentiles(self):
        hist = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        for _ in range(90):
            hist.record(0.0005)
        for _ in range(10):
            hist.record(0.05)
        assert hist.count == 100
        assert hist.percentile(50) == 0.001
        # The p99 falls in the (0.01, 0.1] bucket, but the bucket bound is
        # clamped to the exact observed maximum.
        assert hist.percentile(99) == 0.05
        assert hist.as_dict()["count"] == 100

    def test_histogram_tracks_exact_min_max(self):
        hist = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        assert hist.min_s == 0.0 and hist.max_s == 0.0  # empty
        for v in (0.004, 0.0002, 0.05):
            hist.record(v)
        assert hist.min_s == 0.0002
        assert hist.max_s == 0.05
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min_s"] == 0.0002
        assert snap["max_s"] == 0.05
        assert snap["p99_s"] <= snap["max_s"]

    def test_histogram_overflow_bucket(self):
        hist = LatencyHistogram(bounds=(0.001,))
        hist.record(5.0)
        # Overflow percentiles report the observed maximum, never inf.
        assert hist.percentile(99) == 5.0

    def test_tilestore_stats_as_dict_and_threaded_updates(self):
        stats = TileStoreStats()

        def churn():
            for _ in range(500):
                stats.record_hit()
                stats.record_load()

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        exported = stats.as_dict()
        assert exported["hits"] == exported["loads"] == 2000
        assert exported["hit_rate"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
class TestShardedTileCache:
    def test_loads_once_then_hits(self, city):
        store = TileStore.build(city, tile_size=150.0)
        loads = []

        def loader(tile):
            loads.append(tile)
            return store.load_tile(tile)

        cache = ShardedTileCache(loader, n_shards=4, tiles_per_shard=8)
        tile = store.tiles()[0]
        first = cache.get(tile)
        second = cache.get(tile)
        assert loads == [tile]
        assert first is second
        assert cache.hits.value == 1 and cache.misses.value == 1

    def test_eviction_bounds_residency(self, city):
        store = TileStore.build(city, tile_size=100.0)
        cache = ShardedTileCache(store.load_tile, n_shards=2,
                                 tiles_per_shard=2)
        for tile in store.tiles():
            cache.get(tile)
        assert len(cache.resident_tiles()) <= 4
        assert cache.evictions.value > 0

    def test_concurrent_readers_agree(self, city):
        store = TileStore.build(city, tile_size=150.0)
        cache = ShardedTileCache(store.load_tile, n_shards=4,
                                 tiles_per_shard=16)
        tiles = store.tiles()
        errors = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                tile = tiles[int(rng.integers(0, len(tiles)))]
                shard = cache.get(tile)
                direct = store.load_tile(tile)
                if {e.id for e in shard.elements()} != \
                        {e.id for e in direct.elements()}:
                    errors.append(tile)

        threads = [threading.Thread(target=reader, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_shard_validation(self):
        with pytest.raises(StorageError):
            ShardedTileCache(lambda t: None, n_shards=0)

    @given(st.integers(1, 3), st.integers(1, 3),
           st.lists(st.builds(TileId, st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=80))
    def test_matches_reference_lru(self, n_shards, per_shard, gets):
        cache = ShardedTileCache(lambda t: object(), n_shards, per_shard)
        capacity = n_shards * per_shard
        model = OrderedDict()
        hits = misses = evictions = 0
        for tile in gets:
            value = cache.get(tile)
            if tile in model:
                model.move_to_end(tile)
                hits += 1
                assert value is model[tile]
            else:
                model[tile] = value
                misses += 1
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            resident = cache.resident_tiles()
            assert resident == sorted(model) and len(resident) <= capacity
            assert (cache.hits.value, cache.misses.value,
                    cache.evictions.value) == (hits, misses, evictions)
            assert cache.as_dict()["resident"] == len(model)

    @given(st.sets(st.builds(TileId, st.integers(-10**6, 10**6),
                             st.integers(-10**6, 10**6)),
                   min_size=1, max_size=12))
    def test_working_set_within_capacity_decodes_once(self, working_set):
        # Whatever the coordinates hash to, <= capacity distinct tiles all
        # stay resident (the per-shard bound evicted colliding ones).
        loads = []
        cache = ShardedTileCache(lambda t: loads.append(t), 4, 3)
        for _ in range(3):
            for tile in working_set:
                cache.get(tile)
        assert sorted(loads) == sorted(working_set)
        assert cache.evictions.value == 0

    def test_blocked_loader_does_not_delay_other_hits(self):
        slow, hot = TileId(0, 0), TileId(1, 0)
        entered, release = threading.Event(), threading.Event()

        def loader(tile):
            if tile == slow:
                entered.set()
                assert release.wait(10.0)
            return object()

        cache = ShardedTileCache(loader, 1, 4)
        warm = cache.get(hot)
        got = []
        misser = threading.Thread(target=cache.get, args=(slow,))
        hitter = threading.Thread(target=lambda: got.append(cache.get(hot)))
        misser.start()
        try:
            assert entered.wait(10.0)
            hitter.start()
            hitter.join(10.0)
            # The hit finished while the other tile's loader is still held.
            assert not hitter.is_alive() and got == [warm]
            assert misser.is_alive()
        finally:
            release.set()
            misser.join(10.0)
        assert not misser.is_alive()
        assert cache.resident_tiles() == [slow, hot]

    def test_racing_misses_share_the_installed_tile(self):
        both_loading = threading.Barrier(2, timeout=10.0)

        def loader(tile):
            both_loading.wait()
            return object()

        cache = ShardedTileCache(loader, 1, 4)
        tile = TileId(2, 5)
        got = []
        threads = [threading.Thread(
            target=lambda: got.append(cache.get(tile))) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2 and got[0] is got[1] is cache.get(tile)
        assert cache.misses.value == 2 and cache.resident_tiles() == [tile]

    def test_hammering_threads_keep_bound_and_counts(self):
        cache = ShardedTileCache(lambda t: object(), 2, 4)
        tiles = [TileId(i % 6, i // 6) for i in range(3 * cache.capacity)]
        calls, n_threads = 400, 8
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in rng.integers(0, len(tiles), size=calls):
                    cache.get(tiles[int(i)])
                    if len(cache.resident_tiles()) > cache.capacity:
                        errors.append("over capacity")
            except Exception as exc:  # surfaced below, not lost in a thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(cache.resident_tiles()) <= cache.capacity
        assert cache.hits.value + cache.misses.value == n_threads * calls
        assert cache.evictions.value <= cache.misses.value


# ----------------------------------------------------------------------
def _world_service(city, **kwargs):
    store = TileStore.build(city, tile_size=150.0)
    server = MapDistributionServer(city.copy())
    kwargs.setdefault("n_workers", 2)
    return MapService(server, store, **kwargs), store, server


class TestMapService:
    def test_get_tile_matches_store(self, city):
        service, store, _ = _world_service(city)
        with service:
            tile = store.tiles()[0]
            resp = service.request(GetTile(tile))
        assert resp.ok
        assert {e.id for e in resp.payload.elements()} == \
            {e.id for e in store.load_tile(tile).elements()}

    def test_missing_tile_is_none_payload(self, city):
        service, _, _ = _world_service(city)
        with service:
            resp = service.request(GetTile(TileId(999, 999)))
        assert resp.ok and resp.payload is None

    def test_spatial_query_matches_streaming_map(self, city):
        """Regression: the serve-layer cache answers exactly as StreamingMap."""
        service, store, _ = _world_service(city)
        streaming = StreamingMap(store, max_tiles=9)
        with service:
            for point in [(100.0, 100.0), (250.0, 200.0), (400.0, 120.0)]:
                resp = service.request(
                    SpatialQuery(point[0], point[1], 60.0))
                assert resp.ok
                served = {e.id for e in resp.payload}
                direct = {e.id for e in
                          streaming.elements_in_radius(*point, 60.0)}
                assert served == direct
                lm = service.request(SpatialQuery(point[0], point[1], 60.0,
                                                  landmarks_only=True))
                assert {e.id for e in lm.payload} == \
                    {e.id for e in
                     streaming.landmarks_in_radius(*point, 60.0)}

    def test_spatial_short_circuits_absent_tiles(self, city):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        service, store, _ = _world_service(city, registry=registry)
        with service:
            # a radius around the map corner covers tiles outside the
            # built world; those must not be faulted into the cache
            min_x, min_y, _, _ = city.bounds()
            radius = 400.0
            resp = service.request(SpatialQuery(min_x, min_y, radius))
            assert resp.ok
            covered = list(store.scheme.tiles_for_bounds(
                (min_x - radius, min_y - radius,
                 min_x + radius, min_y + radius)))
            present = [t for t in covered if store.contains(t)]
            absent = [t for t in covered if not store.contains(t)]
            assert absent, "query should cover tiles outside the world"
            assert service.spatial_tiles_scanned.value == len(present)
            assert set(service.cache.resident_tiles()).isdisjoint(absent)
            assert registry.snapshot()["serve.spatial.tiles_scanned"] == \
                len(present)

    def test_ingest_then_changes_since(self, city):
        service, _, server = _world_service(city)
        with service:
            before = server.version
            resp = service.request(IngestPatch(_add_sign_patch(server)))
            assert resp.ok and resp.payload.accepted
            assert resp.version == before + 1
            delta = service.request(ChangesSince(before))
            assert delta.ok
            assert delta.payload.version == before + 1
            assert len(delta.payload.changes) == 1

    def test_snapshot_is_a_copy(self, city):
        service, _, server = _world_service(city)
        with service:
            resp = service.request(Snapshot())
        assert resp.ok
        assert resp.payload is not server.db.map
        assert len(resp.payload) == len(server.db.map)
        assert resp.version == server.version

    def test_error_response_keeps_worker_alive(self, city):
        service, _, _ = _world_service(city)
        with service:
            bad = service.request(SpatialQuery(float("nan"), 0.0, -5.0))
            good = service.request(SpatialQuery(100.0, 100.0, 30.0))
        # Whatever the handler does with a degenerate query, the pool
        # must keep serving afterwards.
        assert good.ok
        assert bad.status in (Status.OK, Status.ERROR)

    def test_backpressure_rejects_when_not_started(self, city):
        service, store, _ = _world_service(
            city, max_queue=2)
        tile = store.tiles()[0]
        futures = [service.submit(GetTile(tile)) for _ in range(3)]
        assert not futures[0].done() and not futures[1].done()
        rejected = futures[2].result(timeout=1.0)
        assert rejected.status is Status.REJECTED
        assert service.metrics.rejected.value == 1
        with service:  # starting drains the two admitted requests
            assert futures[0].result(timeout=5.0).ok
            assert futures[1].result(timeout=5.0).ok

    def test_metrics_record_latency_per_kind(self, city):
        service, store, _ = _world_service(city)
        with service:
            service.request(GetTile(store.tiles()[0]))
            service.request(Snapshot())
        exported = service.metrics.as_dict()
        assert exported["outcomes"]["GetTile.ok"] == 1
        assert exported["outcomes"]["Snapshot.ok"] == 1
        assert exported["latency"]["GetTile"]["count"] == 1


# ----------------------------------------------------------------------
class TestConcurrentConsistency:
    def test_concurrent_ingest_and_sync_clients_consistent(self, city):
        """N writer + N reader threads; every client ends consistent."""
        server = MapDistributionServer(city.copy())
        n_clients, n_patches = 3, 25
        clients = [VehicleMapClient(server) for _ in range(n_clients)]
        stop = threading.Event()
        failures = []

        def writer():
            for k in range(n_patches):
                result = server.ingest(_add_sign_patch(
                    server, position=(5.0 * k, 3.0)))
                if not result.accepted:
                    failures.append("rejected ingest")
            stop.set()

        def reader(client):
            last = client.synced_version
            while not stop.is_set():
                client.sync()
                if client.synced_version < last:
                    failures.append("version went backwards")
                last = client.synced_version

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(c,))
                    for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert server.version == n_patches
        for client in clients:
            client.sync()
            assert client.is_consistent()

    def test_fleet_run_zero_violations(self, city):
        service, _, server = _world_service(city, n_workers=3)
        with service:
            fleet = FleetSimulator(service, city, n_vehicles=3,
                                   route_length_m=600.0,
                                   sync_every=3, ingest_every=4, seed=5)
            report = fleet.run()
        assert report.error_total == 0
        assert report.consistency_violations == 0
        assert report.version_regressions == 0
        assert report.ok_total == report.requests_total
        assert sum(r.patches_sent for r in report.vehicles) > 0
        assert server.version > 0
        assert report.cache_hit_rate > 0.5  # coherent drives re-hit tiles

    def test_delta_since_is_atomic_suffix(self, city):
        server = MapDistributionServer(city.copy())
        for k in range(4):
            server.ingest(_add_sign_patch(server, position=(10.0 * k, 4.0)))
        delta = server.delta_since(2)
        assert delta.version == 4
        assert len(delta.changes) == 2
        assert set(delta.elements) == {c.element_id for c in delta.changes}
        for eid, element in delta.elements.items():
            assert element is not None and element.id == eid
