"""Map distribution server + vehicle sync, and turn-by-turn guidance."""

import threading

import numpy as np
import pytest

from repro.core import HDMap, MapPatch, SignType, TrafficSign
from repro.update.distribution import (
    ConflictPolicy,
    MapDistributionServer,
    VehicleMapClient,
)
from repro.planning import LaneRouter
from repro.planning.guidance import Maneuver, describe_route, render_guidance


def _base_map():
    hdmap = HDMap("dist")
    from repro.geometry.polyline import straight
    from repro.core import Lane

    hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
    hdmap.create(TrafficSign, position=np.array([50.0, 5.0]),
                 sign_type=SignType.STOP)
    return hdmap


def _add_sign_patch(server, source, confidence, position):
    patch = MapPatch(source=source, confidence=confidence)
    patch.add(TrafficSign(id=server.db.map.new_id("sign"),
                          position=np.asarray(position, dtype=float),
                          sign_type=SignType.DIRECTION))
    return patch


def _server(policy):
    """A server over :func:`_base_map` whose default conflict rule is
    ``policy`` instead of ``MapDistributionServer.POLICY``."""
    server = MapDistributionServer(_base_map())
    server.POLICY = policy
    return server

class TestDistributionServer:
    def test_ingest_bumps_version(self):
        server = MapDistributionServer(_base_map())
        result = server.ingest(_add_sign_patch(server, "slamcu", 0.9,
                                               [10.0, 5.0]))
        assert result.accepted
        assert server.version == 1

    def test_empty_patch_rejected(self):
        server = MapDistributionServer(_base_map())
        assert not server.ingest(MapPatch()).accepted

    def test_conflict_reject_policy(self):
        server = _server(ConflictPolicy.REJECT)
        sign = next(iter(server.db.map.signs()))
        p1 = MapPatch(source="a", confidence=0.9).remove(sign.id)
        assert server.ingest(p1).accepted
        # Second pipeline tries to touch the same element immediately.
        p2 = MapPatch(source="b", confidence=0.9).add(
            TrafficSign(id=sign.id, position=np.array([1.0, 1.0]),
                        sign_type=SignType.STOP))
        result = server.ingest(p2)
        assert not result.accepted
        assert "conflict" in result.reason

    def test_highest_confidence_drops_weaker_op(self):
        server = MapDistributionServer(_base_map())
        sign = next(iter(server.db.map.signs()))
        strong = MapPatch(source="survey", confidence=0.95).remove(sign.id)
        assert server.ingest(strong).accepted
        # A weaker pipeline tries to resurrect it: its op is dropped.
        weak = MapPatch(source="crowd", confidence=0.4).add(
            TrafficSign(id=sign.id, position=sign.position,
                        sign_type=SignType.STOP))
        result = server.ingest(weak)
        assert not result.accepted
        assert sign.id not in server.db.map

    def test_stronger_update_overrides(self):
        server = MapDistributionServer(_base_map())
        first = _add_sign_patch(server, "crowd", 0.4, [20.0, 5.0])
        assert server.ingest(first).accepted
        new_id = first.ops[0].element.id
        better = MapPatch(source="survey", confidence=0.95).remove(new_id)
        assert server.ingest(better).accepted
        assert new_id not in server.db.map

    def test_old_conflicts_expire(self):
        server = _server(ConflictPolicy.REJECT)
        sign = next(iter(server.db.map.signs()))
        assert server.ingest(
            MapPatch(source="a", confidence=0.9).remove(sign.id)).accepted
        # Unrelated patches advance the version past CONFLICT_WINDOW (3).
        for k in range(3):
            assert server.ingest(_add_sign_patch(
                server, "a", 0.9, [30.0 + k, 5.0])).accepted
        late = MapPatch(source="b", confidence=0.9).add(
            TrafficSign(id=sign.id, position=sign.position,
                        sign_type=SignType.STOP))
        assert server.ingest(late).accepted


class TestConcurrentPolicyIngest:
    """Conflict policies must hold under genuinely concurrent ingest —
    the situation the streaming ingest pipeline creates."""

    @staticmethod
    def _run_concurrent(fns):
        results = [None] * len(fns)
        barrier = threading.Barrier(len(fns))

        def call(i, fn):
            barrier.wait()
            results[i] = fn()

        threads = [threading.Thread(target=call, args=(i, fn))
                   for i, fn in enumerate(fns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def test_reject_policy_single_winner_under_concurrency(self):
        server = _server(ConflictPolicy.REJECT)
        sign = next(iter(server.db.map.signs()))
        patches = [MapPatch(source=f"pipeline-{i}",
                            confidence=0.9).remove(sign.id)
                   for i in range(8)]
        results = self._run_concurrent(
            [lambda p=p: server.ingest(p) for p in patches])
        accepted = [r for r in results if r.accepted]
        assert len(accepted) == 1
        assert sign.id not in server.db.map
        assert server.version == 1
        assert all("conflict" in r.reason
                   for r in results if not r.accepted)

    def test_highest_confidence_concurrent_weak_writers_lose(self):
        server = MapDistributionServer(_base_map())
        sign = next(iter(server.db.map.signs()))
        strong = MapPatch(source="survey", confidence=0.95).remove(sign.id)
        assert server.ingest(strong).accepted
        weak = [MapPatch(source=f"crowd-{i}", confidence=0.3).add(
                    TrafficSign(id=sign.id, position=sign.position,
                                sign_type=SignType.STOP))
                for i in range(8)]
        results = self._run_concurrent(
            [lambda p=p: server.ingest(p) for p in weak])
        assert not any(r.accepted for r in results)
        assert sign.id not in server.db.map
        assert server.version == 1

    def test_highest_confidence_disjoint_elements_all_land(self):
        server = MapDistributionServer(_base_map())
        # Allocate ids up front: id allocation is not the object under
        # test, the concurrent ingest path is.
        patches = [_add_sign_patch(server, f"p{i}", 0.5 + 0.05 * i,
                                   [10.0 + 5.0 * i, 5.0])
                   for i in range(8)]
        results = self._run_concurrent(
            [lambda p=p: server.ingest(p) for p in patches])
        assert all(r.accepted for r in results)
        assert server.version == 8
        assert sorted(r.version for r in results) == list(range(1, 9))

    def test_per_call_policy_override(self):
        server = _server(ConflictPolicy.LAST_WRITER_WINS)
        sign = next(iter(server.db.map.signs()))
        assert server.ingest(
            MapPatch(source="a", confidence=0.9).remove(sign.id)).accepted
        resurrect = MapPatch(source="b", confidence=0.9).add(
            TrafficSign(id=sign.id, position=sign.position,
                        sign_type=SignType.STOP))
        # Stricter per-call policy rejects what the default would accept.
        assert not server.ingest(resurrect,
                                 policy=ConflictPolicy.REJECT).accepted
        assert server.ingest(resurrect).accepted

class TestVehicleSync:
    def test_incremental_sync_consistency(self):
        server = MapDistributionServer(_base_map())
        client = VehicleMapClient(server)
        for k in range(5):
            server.ingest(_add_sign_patch(server, "slamcu", 0.9,
                                          [10.0 + k, 5.0]))
        applied = client.sync()
        assert applied == 5
        assert client.is_consistent()

    def test_incremental_sync_cheaper_than_bootstrap(self, city):
        server = MapDistributionServer(city.copy())
        client = VehicleMapClient(server)
        bootstrap_bytes = client.bytes_downloaded
        for k in range(5):
            server.ingest(_add_sign_patch(server, "slamcu", 0.9,
                                          [10.0 + k, 5.0]))
        client.sync()
        assert client.is_consistent()
        # Five change records cost a tiny fraction of re-downloading a
        # city-scale map.
        assert (client.bytes_downloaded - bootstrap_bytes
                < bootstrap_bytes / 10)

    def test_sync_handles_removals(self):
        server = MapDistributionServer(_base_map())
        client = VehicleMapClient(server)
        sign = next(iter(server.db.map.signs()))
        server.ingest(MapPatch(source="s", confidence=0.9).remove(sign.id))
        client.sync()
        assert sign.id not in client.local
        assert client.is_consistent()

    def test_noop_sync(self):
        server = MapDistributionServer(_base_map())
        client = VehicleMapClient(server)
        assert client.sync() == 0


class TestGuidance:
    def test_city_route_has_turns_and_arrival(self, city):
        router = LaneRouter(city)
        lanes = [l for l in city.lanes() if l.length > 60]
        route = router.route_astar(lanes[0].id, lanes[-1].id)
        steps = describe_route(city, route)
        maneuvers = [s.maneuver for s in steps]
        assert maneuvers[0] is Maneuver.DEPART
        assert maneuvers[-1] is Maneuver.ARRIVE
        assert any(m in (Maneuver.TURN_LEFT, Maneuver.TURN_RIGHT,
                         Maneuver.LANE_CHANGE_LEFT,
                         Maneuver.LANE_CHANGE_RIGHT,
                         Maneuver.CONTINUE)
                   for m in maneuvers)

    def test_distances_cover_route(self, city):
        router = LaneRouter(city)
        lanes = [l for l in city.lanes() if l.length > 60]
        route = router.route_astar(lanes[0].id, lanes[3].id)
        steps = describe_route(city, route)
        total = sum(s.distance for s in steps)
        true_length = sum(city.get(eid).length for eid in route.lane_ids)
        assert total == pytest.approx(true_length, rel=0.05)

    def test_straight_route_is_single_continue(self, highway):
        router = LaneRouter(highway)
        lane = next(iter(highway.lanes()))
        route = router.route(lane.id, lane.id)
        steps = describe_route(highway, route)
        continues = [s for s in steps if s.maneuver is Maneuver.CONTINUE]
        assert len(continues) == 1
        assert continues[0].distance == pytest.approx(lane.length, rel=0.01)

    def test_render(self, city):
        router = LaneRouter(city)
        lanes = [l for l in city.lanes() if l.length > 60]
        route = router.route_astar(lanes[0].id, lanes[-1].id)
        text = render_guidance(describe_route(city, route))
        assert "depart" in text and "arrive" in text
