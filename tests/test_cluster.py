"""repro.cluster: hashing, RPC picklability, routing, failover, chaos."""

import os
import pickle
import socket
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.chaos import (
    CLUSTER_SHARD_CRASH,
    ClusterChaosHarness,
    ClusterWorkload,
    FaultPlan,
    FaultSpec,
)
from repro.cluster import ClusterMapClient, ClusterRouter
from repro.cluster.rpc import (
    PipelinedConnection,
    ShardDead,
    ShardTimeout,
    recv_frame,
    send_frame,
)
from repro.core import MapPatch, SignType, TrafficSign
from repro.core.tiles import TileId, consistent_hash_owner, ownership_map
from repro.errors import ClusterError
from repro.obs.metrics import LatencyHistogram
from repro.serve.api import (
    ChangesSince,
    GetTile,
    IngestPatch,
    Response,
    Snapshot,
    SpatialQuery,
    Status,
)
from repro.storage.binary import decode_map, encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer

TILE_GRID = [TileId(x, y) for x in range(16) for y in range(16)]


def _local_router(city, **kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("tile_size", 120.0)
    kw.setdefault("transport", "local")
    return ClusterRouter(city, **kw)


def _sign_patch(city, position, confidence=0.9, source="probe"):
    eid = city.new_id("cluster-test-sign")
    patch = MapPatch(source=source, confidence=confidence)
    patch.add(TrafficSign(id=eid, position=np.asarray(position, float),
                          sign_type=SignType.DIRECTION))
    return eid, patch


class TestConsistentHash:
    def test_owner_in_range_and_deterministic(self):
        for tile in TILE_GRID:
            owner = consistent_hash_owner(tile, 5)
            assert 0 <= owner < 5
            assert owner == consistent_hash_owner(tile, 5)

    def test_all_shards_get_tiles(self):
        owners = {consistent_hash_owner(t, 4) for t in TILE_GRID}
        assert owners == {0, 1, 2, 3}

    def test_growth_moves_bounded_fraction(self):
        # Rendezvous hashing: growing N -> N+1 relocates ~1/(N+1) of the
        # keys; anything approaching a modulo re-hash (N/(N+1)) is a bug.
        for n in (2, 4, 8):
            before = {t: consistent_hash_owner(t, n) for t in TILE_GRID}
            after = {t: consistent_hash_owner(t, n + 1) for t in TILE_GRID}
            moved = [t for t in TILE_GRID if before[t] != after[t]]
            assert 0 < len(moved) / len(TILE_GRID) < 2.5 / (n + 1)
            # every relocated tile lands on the *new* shard
            assert all(after[t] == n for t in moved)

    def test_ownership_map_matches_pointwise(self):
        got = ownership_map(TILE_GRID, 3)
        assert got == {t: consistent_hash_owner(t, 3) for t in TILE_GRID}


class TestPicklability:
    """Everything that crosses the shard RPC boundary must pickle."""

    def test_requests_and_response_round_trip(self, city):
        eid, patch = _sign_patch(city, (10.0, 20.0))
        for request in (GetTile(tile=TileId(0, 0), encoded=True),
                        SpatialQuery(x=1.0, y=2.0, radius=50.0),
                        ChangesSince(since_version=3),
                        Snapshot(),
                        IngestPatch(patch=patch)):
            clone = pickle.loads(pickle.dumps(request))
            assert type(clone) is type(request)
        response = Response(status=Status.OK, payload=b"blob", version=7)
        clone = pickle.loads(pickle.dumps(response))
        assert clone.ok and clone.payload == b"blob" and clone.version == 7

    def test_metric_primitives_round_trip(self):
        """Latency histograms are the one metric that crosses a process
        (the shard ``metrics`` op); they must pickle and still merge."""
        hist = LatencyHistogram()
        hist.record(0.004)
        hist.record(0.250)
        h2 = pickle.loads(pickle.dumps(hist))
        assert h2.count == 2 and h2.snapshot() == hist.snapshot()
        merged = LatencyHistogram()
        merged.merge(h2)  # unpickled histograms feed snapshot merging
        assert merged.count == 2


class TestRouting:
    def test_get_tile_byte_parity_with_single_store(self, city):
        store = TileStore.build(city, 120.0)
        with _local_router(city) as router:
            for tile in store.tiles():
                response = router.request(GetTile(tile=tile, encoded=True))
                assert response.ok, response.error
                assert response.payload == store._blobs[tile]

    def test_spatial_query_dedups_across_shard_boundaries(self, city):
        with _local_router(city, n_shards=3) as router:
            # radius spans many tiles, so border elements replicated
            # into adjacent tiles come back from multiple shards
            response = router.request(SpatialQuery(x=150.0, y=150.0,
                                                   radius=250.0))
            assert response.ok
            ids = [e.id for e in response.payload]
            assert len(ids) == len(set(ids))
            want = {e.id for e in
                    city.elements_in_radius(150.0, 150.0, 250.0)}
            assert set(ids) == want

    def test_ingest_routes_to_owner_and_client_syncs(self, city):
        with _local_router(city) as router:
            client = ClusterMapClient(router)
            eid, patch = _sign_patch(city, (33.0, 44.0))
            response = router.request(IngestPatch(patch=patch))
            assert response.ok and response.payload.accepted
            assert client.sync() == 1
            assert eid in client.local
            home = router._core.place.element_tile[eid]
            assert router.owner_of_tile(home) == \
                router._core.place.ownership.shard(home)

    def test_multi_tile_patch_splits_across_shards(self, city):
        with _local_router(city, n_shards=3) as router:
            client = ClusterMapClient(router)
            patch = MapPatch(source="probe", confidence=0.9)
            eids = []
            rng = np.random.default_rng(5)
            min_x, min_y, max_x, max_y = city.bounds()
            for _ in range(6):
                eid = city.new_id("cluster-test-sign")
                patch.add(TrafficSign(
                    id=eid,
                    position=np.array([rng.uniform(min_x, max_x),
                                       rng.uniform(min_y, max_y)]),
                    sign_type=SignType.DIRECTION))
                eids.append(eid)
            response = router.request(IngestPatch(patch=patch))
            assert response.ok and response.payload.accepted
            client.sync()
            assert all(eid in client.local for eid in eids)
            owners = {router.owner_of_tile(router._core.place.element_tile[e])
                      for e in eids}
            assert len(owners) > 1, "patch should have split across shards"

    def test_cluster_version_monotone_across_requests(self, city):
        with _local_router(city) as router:
            seen = []
            for i in range(6):
                _, patch = _sign_patch(city, (10.0 + 30 * i, 20.0))
                response = router.request(IngestPatch(patch=patch))
                assert response.ok
                seen.append(response.version)
            assert seen == sorted(seen)


class TestChangesSinceMerge:
    def test_concurrent_publishes_merge_in_per_shard_log_order(self, city):
        with _local_router(city, n_shards=3) as router:
            client = ClusterMapClient(router)
            rng = np.random.default_rng(11)
            min_x, min_y, max_x, max_y = city.bounds()
            patches = []
            for _ in range(18):
                _, patch = _sign_patch(
                    city, (rng.uniform(min_x, max_x),
                           rng.uniform(min_y, max_y)))
                patches.append(patch)

            def publish(chunk):
                for patch in chunk:
                    response = router.request(IngestPatch(patch=patch))
                    assert response.ok

            threads = [threading.Thread(target=publish,
                                        args=(patches[i::3],))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            delta = router.changes_since(
                {i: 0 for i in range(router.n_shards)})
            assert len(delta) == 18
            # per-shard slices arrive in that shard's log order, and the
            # advertised vector matches each slice's capture version
            for index, shard_delta in delta.deltas.items():
                log = router.shard_changelog(index)
                versions = [v for v, _ in log]
                assert versions == sorted(versions)
                assert versions == list(range(1, len(versions) + 1))
                assert delta.versions[index] == shard_delta.version
            assert client.sync() == 18
            assert client.is_consistent()

    def test_broadcast_has_every_shard_call_in_flight_at_once(self, city):
        # A counter, not a wall clock: every shard call parks 50 ms in
        # the injected service cost, so a scatter that walked the shards
        # one after another could never see more than one in flight.
        with _local_router(city, n_shards=4,
                           service_latency_s=0.05) as router:
            assert router.request(ChangesSince(since_version=0)).ok
            assert router.stats()["inflight_peak"] >= 4

    def test_client_skips_stale_shard_deltas(self, city):
        with _local_router(city) as router:
            client = ClusterMapClient(router)
            _, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).ok
            delta = router.changes_since({i: 0 for i in
                                          range(router.n_shards)})
            assert client.apply_delta(delta) == 1
            # re-delivering the same delta is a no-op: versions are stale
            assert client.apply_delta(delta) == 0
            assert client.is_consistent()


class TestFailoverAndRestart:
    def test_read_after_crash_restarts_from_journal(self, city):
        store = TileStore.build(city, 120.0)
        with _local_router(city) as router:
            tile = store.tiles()[0]
            router.kill_shard(router.owner_of_tile(tile))
            response = router.request(GetTile(tile=tile, encoded=True))
            assert response.ok
            assert response.payload == store._blobs[tile]
            assert router.restarts.value >= 1

    def test_acked_write_survives_owner_crash(self, city):
        with _local_router(city) as router:
            client = ClusterMapClient(router)
            eid, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).ok
            owner = router.owner_of_tile(router._core.place.element_tile[eid])
            router.kill_shard(owner)
            # next write lands on the restarted shard with history intact
            eid2, patch2 = _sign_patch(city, (35.0, 46.0))
            response = router.request(IngestPatch(patch=patch2))
            assert response.ok and response.payload.accepted
            client.sync()
            assert eid in client.local and eid2 in client.local
            assert client.is_consistent()


def _count_calls(monkeypatch, calls, name, owners):
    """Count calls to ``name`` on each of ``owners`` into ``calls``."""
    for owner in owners:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            calls[name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _binds(name, value):
    """Every loaded ``repro`` module that binds ``name`` to ``value``."""
    return [module for key, module in list(sys.modules.items())
            if key.startswith("repro") and getattr(module, name, None)
            is value]


def _shard_deltas(router):
    """``{shard: (version, changes, pickled elements by id)}`` of a
    ``ChangesSince(0)`` on every shard."""
    delta = router.changes_since(dict.fromkeys(range(router.n_shards), 0))
    return {index: (d.version, d.changes,
                    {str(eid): pickle.dumps(element)
                     for eid, element in d.elements.items()})
            for index, d in delta.deltas.items()}


class TestRestartInheritsState:
    """A restarted shard boots the state the router keeps for it: what
    it acked, with nothing encoded, decoded or replayed on the way."""

    def test_process_successor_answers_like_its_predecessor(self, city):
        with ClusterRouter(city, n_shards=2, tile_size=120.0,
                           transport="process") as router:
            for x in (33.0, 150.0, 290.0, 400.0):
                _, patch = _sign_patch(city, (x, 44.0))
                assert router.request(
                    IngestPatch(patch=patch)).payload.accepted
            before = _shard_deltas(router)
            assert sum(len(changes) for _, changes, _ in before.values()) \
                == 4
            router.kill_shard(0)
            router.kill_shard(1)
            assert _shard_deltas(router) == before
            assert router.restarts.value == 2

    def test_acked_writes_survive_restarts_and_nothing_is_replayed(
            self, city, monkeypatch):
        calls = Counter()
        with _local_router(city) as router:
            signs = []
            for x in (33.0, 150.0, 290.0, 400.0, 35.0):
                eid, patch = _sign_patch(city, (x, 44.0))
                assert router.request(
                    IngestPatch(patch=patch)).payload.accepted
                signs.append(eid)
            tile = router.tiles()[0]
            owner = router.owner_of_tile(tile)
            _count_calls(monkeypatch, calls, "encode_map",
                         _binds("encode_map", encode_map))
            _count_calls(monkeypatch, calls, "decode_map",
                         _binds("decode_map", decode_map))
            _count_calls(monkeypatch, calls, "ingest",
                         [MapDistributionServer])
            for _ in range(20):
                router.kill_shard(owner)
                assert router.request(GetTile(tile=tile,
                                              encoded=True)).ok
            monkeypatch.undo()
            assert router.restarts.value == 20
            assert calls == Counter()
            local = ClusterMapClient(router).local
            assert all(eid in local for eid in signs)

    def test_local_shard_write_leaves_the_router_state_alone(self, city):
        with _local_router(city) as router:
            state = router._core._shards[0].config.state
            before = (state.version, state.element_ids(),
                      list(state.db.log.entries))
            _, shard = router._links[(0, "primary")]
            eid, patch = _sign_patch(city, (33.0, 44.0))
            assert shard.call("apply", patch).accepted
            assert eid in shard._backend.server.element_ids()
            assert (state.version, state.element_ids(),
                    state.db.log.entries) == before


class TestRebalance:
    def test_growth_moves_only_rehashed_tiles(self, city):
        with _local_router(city) as router:
            before = {t: router.owner_of_tile(t) for t in router.tiles()}
            moved = router.rebalance(3)
            after = {t: router.owner_of_tile(t) for t in router.tiles()}
            changed = [t for t in before if before[t] != after[t]]
            assert len(changed) == moved > 0
            assert all(after[t] == 2 for t in changed)

    def test_reads_and_writes_survive_growth(self, city):
        with _local_router(city) as router:
            client = ClusterMapClient(router)
            eid, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).ok
            router.rebalance(3)
            response = router.request(SpatialQuery(x=150.0, y=150.0,
                                                   radius=250.0))
            ids = [e.id for e in response.payload]
            assert len(ids) == len(set(ids))
            eid2, patch2 = _sign_patch(city, (200.0, 210.0))
            assert router.request(IngestPatch(patch=patch2)).ok
            client.sync()
            assert eid in client.local and eid2 in client.local
            assert client.is_consistent()

    def test_restart_after_growth_keeps_shard_versions(self, city):
        """A shard restarted after a rebalance moved some of its tiles
        away must come back at the version it had acked — replaying only
        the tiles it owns *now* would rewind it, and a synced client
        would then skip its next changes."""
        with _local_router(city) as router:
            owned = [t for t in router.tiles()
                     if router.owner_of_tile(t) == 0]
            stays = next(t for t in owned if consistent_hash_owner(t, 3) == 0)
            moves = next(t for t in owned if consistent_hash_owner(t, 3) != 0)

            def centre(tile):
                return ((tile.tx + 0.5) * 120.0, (tile.ty + 0.5) * 120.0)

            client = ClusterMapClient(router)
            moved, patch = _sign_patch(city, centre(moves))
            assert router.request(IngestPatch(patch=patch)).ok
            router.rebalance(3)
            client.sync()
            assert moved in client.local  # the new owner booted with it
            acked = router.version_vector()[0]
            router.kill_shard(0)
            eid, patch = _sign_patch(city, centre(stays))
            assert router.request(IngestPatch(patch=patch)).ok
            assert router.version_vector()[0] == acked + 1
            client.sync()
            assert eid in client.local
            assert client.is_consistent()

    def test_shrink_rejected(self, city):
        with _local_router(city, n_shards=2) as router:
            with pytest.raises(ClusterError, match="shrink"):
                router.rebalance(1)


class TestClusterChaosHarness:
    WORKLOAD = ClusterWorkload(n_shards=2, replicas=0, transport="local",
                               tile_size=120.0, ops=24, reads_per_op=1,
                               sync_every=6, seed=7)

    def test_inert_run_certifies_and_matches_single_node(self, city):
        harness = ClusterChaosHarness(city, FaultPlan.none(7),
                                      workload=self.WORKLOAD)
        report = harness.run("shard-inert")
        assert report.certify(), report.violations()
        assert harness.final_map_bytes() == harness.run_plain()

    def test_crash_plan_certifies(self, city):
        plan = FaultPlan([FaultSpec(CLUSTER_SHARD_CRASH, probability=1.0,
                                    after=5, max_count=2)], seed=7)
        harness = ClusterChaosHarness(city, plan, workload=self.WORKLOAD)
        report = harness.run("shard")
        assert report.fired[CLUSTER_SHARD_CRASH] == 2
        assert report.certify(), report.violations()
        assert report.stats["restarts"] >= 1


class TestPipelinedConnection:
    """Wire-level pipelining: many calls in flight on one socket.

    The peer side is driven by the test itself with the raw frame
    helpers, so reply timing and ordering are fully deterministic.
    """

    def _pair(self):
        left, right = socket.socketpair()
        return PipelinedConnection(left), right

    def test_concurrent_calls_matched_out_of_order(self):
        conn, peer = self._pair()
        try:
            n = 5
            results = [None] * n

            def caller(slot):
                results[slot] = conn.call("echo", slot, timeout_s=5.0)

            threads = [threading.Thread(target=caller, args=(s,))
                       for s in range(n)]
            for t in threads:
                t.start()
            # drain all n requests before answering any: every caller is
            # now simultaneously in flight on the one connection
            pending = [recv_frame(peer) for _ in range(n)]
            assert len(conn._pending) == n
            # answer newest-first: replies must match by echoed id, not
            # by arrival order
            for request_id, (op, payload) in reversed(pending):
                assert op == "echo"
                send_frame(peer, request_id, ("ok", payload * 10))
            for t in threads:
                t.join()
            assert results == [slot * 10 for slot in range(n)]
            assert len(conn._pending) == 0
            assert conn.late_discards == 0
        finally:
            conn.close()
            peer.close()

    def test_late_reply_discarded_without_desync(self):
        # Satellite: a timed-out request's reply arriving while later
        # traffic flows must be dropped by id, not shift the stream.
        conn, peer = self._pair()
        try:
            timed_out = []

            def slow_caller():
                try:
                    conn.call("slow", None, timeout_s=0.05)
                except ShardTimeout:
                    timed_out.append(True)

            t = threading.Thread(target=slow_caller)
            t.start()
            slow_id, (op, _) = recv_frame(peer)
            assert op == "slow"
            t.join()
            assert timed_out, "call should have timed out"

            # the abandoned reply lands *before* the next call's reply
            send_frame(peer, slow_id, ("ok", "too late"))

            fast_result = []
            ft = threading.Thread(
                target=lambda: fast_result.append(
                    conn.call("fast", 7, timeout_s=5.0)))
            ft.start()
            fast_id, (op, payload) = recv_frame(peer)
            assert op == "fast"
            send_frame(peer, fast_id, ("ok", payload + 1))
            ft.join()
            # FIFO socket: the reader consumed the late frame first, so
            # a correct fast result proves the stream did not desync
            assert fast_result == [8]
            assert conn.late_discards == 1
            assert len(conn._pending) == 0
        finally:
            conn.close()
            peer.close()

    def test_peer_death_fails_every_inflight_call(self):
        conn, peer = self._pair()
        outcomes = []

        def caller():
            try:
                conn.call("hang", timeout_s=5.0)
                outcomes.append("ok")
            except ShardDead:
                outcomes.append("dead")

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(3):
            recv_frame(peer)
        peer.close()  # EOF with three calls outstanding
        for t in threads:
            t.join()
        assert outcomes == ["dead", "dead", "dead"]
        with pytest.raises(ShardDead):
            conn.call("more")
        conn.close()


class TestReplicaReads:
    def test_round_robin_reads_hit_replicas(self, city):
        store = TileStore.build(city, 120.0)
        with _local_router(city, replicas=1) as router:
            tile = store.tiles()[0]
            for _ in range(6):
                response = router.request(GetTile(tile=tile, encoded=True))
                assert response.ok
                assert response.payload == store._blobs[tile]
            assert router.replica_hits.value >= 1
            # primary healthy throughout: replica reads are scaling,
            # not failover
            assert router.failovers.value == 0
            assert router.replica_lag.value == 0

    def test_replica_behind_version_floor_is_skipped(self, city):
        with _local_router(city, replicas=1) as router:
            tile = next(t for t in router.tiles()
                        if router.owner_of_tile(t) == 0)
            # pretend the router has observed a version this shard's
            # replica has not reached: every replica pick must be
            # rejected by the floor and retried on the primary
            with router._cond:
                router._core._shards[0].last_version += 5
            for _ in range(6):
                response = router.request(GetTile(tile=tile, encoded=True))
                assert response.ok
            assert router.replica_lag.value >= 1
            assert router.replica_hits.value == 0

    def test_failover_read_respects_version_floor(self, city):
        with _local_router(city, replicas=1) as router:
            tile = next(t for t in router.tiles()
                        if router.owner_of_tile(t) == 0)
            with router._cond:
                router._core._shards[0].last_version += 5
            router.kill_shard(0)
            response = router.request(GetTile(tile=tile, encoded=True))
            assert response.ok
            # the only live replica is below the floor: it is asked once,
            # rejected, and the read goes to a journal-restarted primary
            # instead of being served stale
            assert router.replica_lag.value == 1
            assert router.replica_hits.value == 0
            assert router.failovers.value == 0
            assert router.restarts.value >= 1

    def test_failover_read_holds_no_handle_lock(self, city):
        with _local_router(city, replicas=1) as router:
            replica = router._links[(0, 0)][1]
            inner = replica.call_async
            probes = []

            def probe():
                got = router._cond.acquire(blocking=False)
                if got:
                    router._cond.release()
                probes.append(got)

            def call_async(op, payload, trace_ctx, done):
                if op == "serve":
                    # another thread must be able to take the router
                    # lock while the replica is serving
                    other = threading.Thread(target=probe)
                    other.start()
                    other.join(timeout=5.0)
                return inner(op, payload, trace_ctx, done)

            replica.call_async = call_async
            router.kill_shard(0)
            assert router.request(Snapshot()).ok
            assert probes and all(probes)

    def test_write_then_read_never_goes_backwards(self, city):
        with _local_router(city, replicas=1) as router:
            floor = 0
            for i in range(8):
                _, patch = _sign_patch(city, (10.0 + 25 * i, 20.0))
                ack = router.request(IngestPatch(patch=patch))
                assert ack.ok
                floor = max(floor, ack.version)
                read = router.request(
                    ChangesSince(since_version=0))
                assert read.ok
                assert read.version >= floor


class TestGetTileCoalescing:
    def test_concurrent_identical_reads_coalesce_byte_identical(self, city):
        store = TileStore.build(city, 120.0)
        # service latency keeps the leader in flight long enough for
        # the burst to pile onto its flight entry
        with _local_router(city, service_latency_s=0.05) as router:
            tile = store.tiles()[0]
            n = 6
            payloads = [None] * n
            start = threading.Barrier(n)

            def one(slot):
                start.wait()
                response = router.request(GetTile(tile=tile, encoded=True))
                if response.ok:
                    payloads[slot] = response.payload

            threads = [threading.Thread(target=one, args=(s,))
                       for s in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            want = store._blobs[tile]
            assert all(p == want for p in payloads)
            assert router.read_coalesced.value >= 1


def _encoded_bootstrap(router):
    merged, vector = router.bootstrap()
    return encode_map(merged), vector


def _uncached_merge(router):
    """Encoded Snapshot-gather-merge, bypassing the bootstrap image."""
    image = router._run(router._core._build_image())
    return encode_map(image.map)


class TestBootstrapImage:
    def test_repeat_bootstrap_builds_once(self, city):
        with _local_router(city) as router:
            first, second = router.bootstrap(), router.bootstrap()
            assert router.bootstrap_builds.value == 1
            assert router.bootstrap_hits.value == 1
            assert encode_map(first[0]) == encode_map(second[0])
            assert first[1] == second[1] == router.version_vector()
            assert first[0] is not second[0]
            assert first[0].name == f"{city.name}@cluster"
            assert first[0].version == router.version

    def test_write_forces_rebuild_holding_the_write(self, city):
        with _local_router(city) as router:
            router.bootstrap()
            eid, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).payload.accepted
            merged, vector = router.bootstrap()
            assert router.bootstrap_builds.value == 2
            assert eid in merged
            assert vector == router.version_vector()
            assert encode_map(merged) == _uncached_merge(router)

    def test_image_survives_kill_and_restart(self, city):
        with _local_router(city) as router:
            _, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).payload.accepted
            before, vector = _encoded_bootstrap(router)
            for index in range(router.n_shards):
                router.kill_shard(index)
            after, vector_after = _encoded_bootstrap(router)
            assert router.restarts.value == router.n_shards
            assert router.bootstrap_builds.value == 1
            assert router.bootstrap_hits.value == 1
            assert after == before == _uncached_merge(router)
            assert vector_after == vector

    def test_rebalance_forces_rebuild(self, city):
        with _local_router(city) as router:
            before, _ = router.bootstrap()
            router.rebalance(3)
            merged, vector = router.bootstrap()
            assert router.bootstrap_builds.value == 2
            assert set(vector) == {0, 1, 2}
            assert {e.id for e in merged.elements()} == \
                {e.id for e in before.elements()}
            assert encode_map(merged) == _uncached_merge(router)

    def test_editing_a_returned_map_leaves_the_image_alone(self, city):
        with _local_router(city) as router:
            mine, _ = router.bootstrap()
            want, _ = _encoded_bootstrap(router)
            elements = list(mine.elements())
            mine.remove(elements[0].id)
            moved = elements[1]
            moved.position = np.array([1.0, 1.0]) \
                if hasattr(moved, "position") else None
            mine.replace(moved)
            _, patch = _sign_patch(city, (5.0, 5.0))
            mine.add(patch.ops[0].element)
            assert _encoded_bootstrap(router)[0] == want
            assert router.bootstrap_builds.value == 1

    def test_concurrent_bootstraps_after_a_write_build_once(self, city):
        # service latency keeps both callers' probes in flight together
        with _local_router(city, service_latency_s=0.05) as router:
            router.bootstrap()
            _, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).payload.accepted
            n = 4
            start = threading.Barrier(n)
            encoded = [None] * n

            def one(slot):
                start.wait()
                encoded[slot] = _encoded_bootstrap(router)[0]

            threads = [threading.Thread(target=one, args=(s,))
                       for s in range(n)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert router.bootstrap_builds.value == 2
            assert router.bootstrap_hits.value == n - 1
            assert len(set(encoded)) == 1

    def test_client_counts_the_encoded_map(self, city):
        with _local_router(city) as router:
            for _ in range(2):
                client = ClusterMapClient(router)
                assert client.bytes_downloaded == \
                    len(encode_map(client.local))
                assert client.is_consistent()
            assert router.bootstrap_builds.value == 1

    def test_counters_reach_stats_and_registry(self, city):
        with _local_router(city) as router:
            router.bootstrap()
            router.bootstrap()
            stats = router.stats()
            assert (stats["bootstrap_builds"], stats["bootstrap_hits"]) \
                == (1, 1)
            snap = router.registry.snapshot()
            assert snap["cluster.router.bootstrap_builds"] == 1
            assert snap["cluster.router.bootstrap_hits"] == 1

    def test_process_transport_hit_after_restart(self, city):
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               transport="process")
        try:
            before, _ = _encoded_bootstrap(router)
            router.kill_shard(0)
            after, _ = _encoded_bootstrap(router)
            assert (router.bootstrap_builds.value,
                    router.bootstrap_hits.value) == (1, 1)
            assert after == before == _uncached_merge(router)
            _, patch = _sign_patch(city, (33.0, 44.0))
            assert router.request(IngestPatch(patch=patch)).payload.accepted
            assert _encoded_bootstrap(router)[0] == _uncached_merge(router)
            assert router.bootstrap_builds.value == 2
        finally:
            router.close()


class TestProcessTransport:
    def test_end_to_end_over_sockets(self, city):
        store = TileStore.build(city, 120.0)
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               replicas=1, transport="process")
        try:
            tile = store.tiles()[0]
            response = router.request(GetTile(tile=tile, encoded=True))
            assert response.ok and response.payload == store._blobs[tile]

            # kill the owner: the read must fail over to the replica
            # (not pay a journal-replay restart on the read path)
            router.kill_shard(router.owner_of_tile(tile))
            response = router.request(GetTile(tile=tile, encoded=True))
            assert response.ok and response.payload == store._blobs[tile]
            assert router.failovers.value >= 1
            assert router.restarts.value == 0

            client = ClusterMapClient(router)
            eid, patch = _sign_patch(city, (33.0, 44.0))
            response = router.request(IngestPatch(patch=patch))
            assert response.ok and response.payload.accepted
            client.sync()
            assert eid in client.local and client.is_consistent()

            per_shard = router.collect_shard_metrics()
            assert set(per_shard) == {0, 1}
        finally:
            router.close()

    def test_shard_histograms_cross_the_process_boundary(self, city):
        """Each shard ships its live GetTile histogram through the
        ``metrics`` op; the router's merge must count exactly the reads
        the shards report as OK, and both must count every read sent."""
        n = 12
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               transport="process")
        try:
            tiles = sorted(router.tiles())
            for i in range(n):
                assert router.request(
                    GetTile(tile=tiles[i % len(tiles)], encoded=True)).ok
            per_shard = router.collect_shard_metrics()
            merged = router.registry.collect()["cluster.shard.latency.GetTile"]
        finally:
            router.close()
        outcomes = sum(snap["outcomes"].get("GetTile.ok", 0)
                       for snap in per_shard.values())
        assert merged.count == outcomes == n


class TestCloseReleasesFds:
    def test_process_router_close_leaves_no_pipe(self, city, leaks):
        before = len(leaks("pipe:"))
        # a live harvester too: close() must stop its thread
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               replicas=1, transport="process",
                               telemetry_interval_s=0.05)
        assert router.request(GetTile(tile=router.tiles()[0])).ok
        router.kill_shard(0)
        router.close()
        # ``router`` (and every ProcessShard) is still referenced here,
        # so this does not wait on garbage collection
        assert len(leaks("pipe:")) == before

    def test_pack_router_exit_leaves_no_pack_fd(self, city, tmp_path,
                                                leaks):
        pack = os.path.realpath(str(tmp_path / "cluster.pack"))
        with _local_router(city, pack_path=pack,
                           telemetry_interval_s=0.05) as router:
            tile = next(t for t in router.tiles()
                        if router.owner_of_tile(t) == 0)
            router.kill_shard(0)
            assert router.request(GetTile(tile=tile, encoded=True)).ok
            assert router.restarts.value == 1
        with open("/proc/self/maps") as fh:
            mapped = [line for line in fh if pack in line]
        assert leaks(pack) == []
        assert mapped == []


class _Parked:
    """One call a :class:`_Stepped` transport ran and holds the reply of."""

    def __init__(self, index, op, payload, value, error, done):
        self.index, self.op, self.payload = index, op, payload
        self.value, self.error, self._done = value, error, done

    def land(self):
        self._done(self.value, self.error)


class _Stepped:
    """A transport that runs each call on its shard at once but parks
    the reply until the test lands it — or lands it at once while its
    router's ``auto`` is set."""

    def __init__(self, inner, index, router):
        self._inner, self._index, self._router = inner, index, router

    def call_async(self, op, payload, trace_ctx, done):
        try:
            value, error = self._inner.call(op, payload), None
        except Exception as exc:
            value, error = None, exc
        parked = _Parked(self._index, op, payload, value, error, done)
        router = self._router
        with router.arrived:
            if not router.auto:
                router.parked.append(parked)
                router.arrived.notify_all()
                return
        parked.land()

    def kill(self):
        self._inner.kill()

    def close(self):
        self._inner.close()


class _SteppedRouter(ClusterRouter):
    """The real router over :class:`_Stepped` transports."""

    def __init__(self, *args, **kw):
        self.parked = []
        self.arrived = threading.Condition()
        self.auto = False
        super().__init__(*args, **kw)

    def _spawn(self, config):
        return _Stepped(super()._spawn(config), config.index, self)

    def close(self):
        with self.arrived:  # the final telemetry drain must not park
            self.auto = True
        super().close()

    def take(self, n, timeout=5.0):
        """The first ``n`` parked replies, in send order (fewer if they
        do not all arrive within ``timeout``)."""
        with self.arrived:
            self.arrived.wait_for(lambda: len(self.parked) >= n, timeout)
            out, self.parked[:n] = self.parked[:n], []
        return out


def _in_thread(call):
    """Run ``call`` on a thread of its own; returns (thread, results)."""
    results = []
    thread = threading.Thread(target=lambda: results.append(call()))
    thread.start()
    return thread, results


class TestSteppedReplies:
    """The real router, with the test deciding when and in what order
    replies land."""

    def _router(self, city, **kw):
        kw.setdefault("n_shards", 2)
        return _SteppedRouter(city, tile_size=120.0, transport="local",
                              lease_s=600.0, **kw)

    def test_scatter_replies_landing_in_reverse_order_merge_alike(
            self, city):
        query = SpatialQuery(x=225.0, y=150.0, radius=400.0)
        with _local_router(city, n_shards=4) as plain:
            want = [e.id for e in plain.request(query).payload]
        with self._router(city, n_shards=4) as router:
            thread, results = _in_thread(lambda: router.request(query))
            parked = router.take(4)
            assert sorted(p.index for p in parked) == [0, 1, 2, 3]
            for p in reversed(parked):
                p.land()
            thread.join(timeout=5.0)
            (response,) = results
            assert response.ok, response.error
            assert [e.id for e in response.payload] == want

    def test_write_answered_by_a_respawned_slot_is_resent_not_acked(
            self, city):
        with self._router(city) as router:
            eid, patch = _sign_patch(city, (33.0, 44.0))
            writer, acks = _in_thread(
                lambda: router.request(IngestPatch(patch=patch)))
            (write,) = router.take(1)  # applied; its reply held back
            index = write.index
            router.kill_shard(index)
            # A read there respawns the primary from the journal, which
            # does not hold the write yet.
            tile = next(t for t in router.tiles()
                        if router.owner_of_tile(t) == index)
            reader, reads = _in_thread(
                lambda: router.request(GetTile(tile=tile, encoded=True)))
            (read,) = router.take(1)
            read.land()
            reader.join(timeout=5.0)
            assert reads[0].ok and router.restarts.value == 1
            write.land()  # the dead spawn's ack
            (resend,) = router.take(1)
            assert writer.is_alive() and not acks
            assert (resend.index, resend.op) == (index, "serve")
            assert isinstance(resend.payload, IngestPatch)
            resend.land()
            writer.join(timeout=5.0)
            assert acks[0].ok and acks[0].payload.accepted
            router.auto = True
            adds = [c for v, c in router.shard_changelog(index)
                    if c.element_id == eid]
            assert len(adds) == 1
            client = ClusterMapClient(router)
            assert eid in client.local and client.is_consistent()

    def test_reply_past_its_deadline_is_one_timeout_and_one_late_discard(
            self, city):
        """Also: a late reply landing after its transport was replaced
        and reaped still counts."""
        store = TileStore.build(city, 120.0)
        with self._router(city, call_timeout_s=0.2) as router:
            tile = store.tiles()[0]
            reader, reads = _in_thread(
                lambda: router.request(GetTile(tile=tile, encoded=True)))
            (first,) = router.take(1)
            # Later calls answer at once: the caller's own deadline must
            # fail the read over to a restarted primary.
            with router.arrived:
                router.auto = True
                stray, router.parked = router.parked, []
            for p in stray:
                p.land()
            reader.join(timeout=5.0)
            timed_out = not reader.is_alive()
            first.land()
            reader.join(timeout=5.0)
            assert timed_out, "no deadline fired"
            assert reads[0].ok
            assert reads[0].payload == store._blobs[tile]
            stats = router.stats()
            assert stats["timeouts"] == 1
            assert stats["late_discards"] == 1
            assert stats["restarts"] == 1
            assert stats["inflight"] == stats["pending"] == 0


class TestNoThreadPerRequest:
    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_requests_start_no_thread(self, city, leaks, monkeypatch,
                                      transport):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        # a corner where four tiles of four different owners meet
        query = SpatialQuery(x=345.0, y=0.0, radius=20.0)
        with ClusterRouter(city, n_shards=4, tile_size=120.0,
                           transport=transport) as router:
            scheme = router._core.place.scheme
            assert {router.owner_of_tile(t) for t in scheme.tiles_for_bounds(
                (325.0, -20.0, 365.0, 20.0))} == {0, 1, 2, 3}
            tiles = router.tiles()
            monkeypatch.setattr(threading.Thread, "start", counted)
            for i in range(200):
                assert router.request(query).ok
                assert router.request(
                    GetTile(tile=tiles[i % len(tiles)], encoded=True)).ok
            for _ in range(20):
                router.bootstrap()
            monkeypatch.undo()
            assert router.bootstrap_hits.value == 19
        assert started == []
