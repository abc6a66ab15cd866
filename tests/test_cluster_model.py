"""Model test: the cluster router against a single-node server.

A hypothesis state machine drives an in-process :class:`ClusterRouter`
(2 shards growing to at most 4, 0 or 1 replica per shard) and a plain
:class:`~repro.update.distribution.MapDistributionServer` over the same
map through one generated schedule of writes and faults — primary and
replica kills, rebalances, lease expiry, ambiguous writes, cold-vehicle
bootstraps — and checks after every step that the cluster is observably
the single node, bootstrap image included.
"""

import itertools
from collections import Counter

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterMapClient, ClusterRouter
from repro.cluster.rpc import ShardTimeout
from repro.core import MapPatch, SignType, TrafficSign
from repro.core.ids import ElementId
from repro.serve.api import ChangesSince, IngestPatch
from repro.storage.binary import BodyWriter, encode_element, referenced_ids
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city

CITY = generate_grid_city(np.random.default_rng(202), blocks_x=2,
                          blocks_y=1, block_size=150.0)
MIN_X, MIN_Y, MAX_X, MAX_Y = (int(v) for v in CITY.bounds())
LEASE_S = 2.0
MAX_SHARDS = 4


class _AmbiguousShard:
    """A shard transport whose next ``IngestPatch`` reply can be lost.

    While its router's ``ambiguous`` flag is armed, the next write is
    applied on the shard and then reported as a timeout — the write the
    router cannot tell apart from one that never landed.
    """

    def __init__(self, inner, router: "_Router") -> None:
        self._inner = inner
        self._router = router

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def call(self, op, payload=None, timeout_s=None, trace_ctx=None):
        result = self._inner.call(op, payload, timeout_s=timeout_s,
                                  trace_ctx=trace_ctx)
        if (self._router.ambiguous and op == "serve"
                and isinstance(payload, IngestPatch)):
            self._router.ambiguous = False
            raise ShardTimeout("write applied, reply lost")
        return result


class _Router(ClusterRouter):
    """A router whose every spawned shard is an :class:`_AmbiguousShard`."""

    ambiguous = False

    def _spawn(self, config):
        return _AmbiguousShard(super()._spawn(config), self)


def _sign_patch(eid, x, y, confidence):
    patch = MapPatch(source="model", confidence=confidence)
    patch.add(TrafficSign(id=eid, position=np.array([x, y], float),
                          sign_type=SignType.DIRECTION))
    return patch


def _remove_patch(eid, confidence):
    patch = MapPatch(source="model", confidence=confidence)
    patch.remove(eid)
    return patch


def _change_counts(changes):
    return Counter((c.element_id, c.change_type) for c in changes)


def _encoded_elements(hdmap):
    """``{id: encoded element}``: content element for element, not ids."""
    kinds = set()
    for element in hdmap.elements():
        kinds.add(element.id.kind)
        kinds.update(ref.kind for ref in referenced_ids(element)
                     if ref is not None)
    out = {}
    for element in hdmap.elements():
        writer = BodyWriter()
        writer.kind_table(kinds)
        encode_element(writer, element)
        out[element.id] = bytes(writer.buf)
    return out


class ClusterModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.router = None
        self.now = 0.0
        self.reference = MapDistributionServer(CITY.copy())
        self.ids = itertools.count(1)
        self.live = []  # signs added and not yet removed
        # Strictly increasing confidence: conflict resolution never
        # depends on per-shard version spacing, so the single node and
        # the cluster must accept exactly the same writes.
        self.confidence = 0.5
        self.version = 0

    @initialize(replicas=st.sampled_from([0, 1]))
    def boot(self, replicas):
        self.router = _Router(CITY, n_shards=2, tile_size=120.0,
                              replicas=replicas, transport="local",
                              lease_s=LEASE_S, clock=lambda: self.now)
        self.client = ClusterMapClient(self.router)

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()

    def _write(self, make_patch) -> bool:
        """One write on both sides; the accepted flags must agree."""
        self.confidence += 1e-3
        response = self.router.request(
            IngestPatch(patch=make_patch(self.confidence)))
        assert response.ok, response.error
        want = self.reference.ingest(make_patch(self.confidence))
        assert response.payload.accepted == want.accepted
        return want.accepted

    @rule(x=st.integers(MIN_X, MAX_X), y=st.integers(MIN_Y, MAX_Y))
    def add_sign(self, x, y):
        eid = ElementId("model-sign", next(self.ids))
        if self._write(lambda c: _sign_patch(eid, x, y, c)):
            self.live.append(eid)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 63))
    def remove_sign(self, pick):
        eid = self.live[pick % len(self.live)]
        if self._write(lambda c: _remove_patch(eid, c)):
            self.live.remove(eid)

    @rule(x=st.integers(MIN_X, MAX_X), y=st.integers(MIN_Y, MAX_Y))
    def ambiguous_add(self, x, y):
        self.router.ambiguous = True
        self.add_sign(x, y)
        assert not self.router.ambiguous  # the lost reply really happened

    @rule(shard=st.integers(0, MAX_SHARDS - 1))
    def kill_primary(self, shard):
        self.router.kill_shard(shard % self.router.n_shards)

    @precondition(lambda self: self.router.replicas)
    @rule(shard=st.integers(0, MAX_SHARDS - 1))
    def kill_replica(self, shard):
        handle = self.router._handles[shard % self.router.n_shards]
        handle.replicas[0].kill()

    @precondition(lambda self: self.router.n_shards < MAX_SHARDS)
    @rule()
    def rebalance(self):
        self.router.rebalance(self.router.n_shards + 1)

    @rule()
    def expire_leases(self):
        self.now += LEASE_S + 1.0

    @rule()
    def cold_vehicle(self):
        """A new vehicle bootstraps (from the image when it is current)
        and becomes the client every later step syncs."""
        self.client = ClusterMapClient(self.router)

    @invariant()
    def observably_single_node(self):
        want = {e.id for e in self.reference.snapshot().elements()}
        self.client.sync()
        assert {e.id for e in self.client.local.elements()} == want
        # is_consistent() compares a fresh bootstrap() with the client's
        # ids, so this also pins the bootstrap to the reference's ids
        assert self.client.is_consistent()
        assert self.router.version >= self.version
        self.version = self.router.version
        # Every change exactly once: no duplicate from a stale owner or
        # a resent write, and none lost.
        delta = self.router.request(ChangesSince(since_version=0))
        assert delta.ok, delta.error
        assert _change_counts(c for _, c in delta.payload.changes()) \
            == _change_counts(self.reference.changes_since(0))

    @invariant()
    def bootstrap_is_the_reference_snapshot(self):
        merged, vector = self.router.bootstrap()
        assert _encoded_elements(merged) == \
            _encoded_elements(self.reference.snapshot())
        assert vector == self.router.version_vector()


ClusterModel.TestCase.settings = settings(
    ClusterModel.TestCase.settings, max_examples=25,
    stateful_step_count=12, deadline=None)
TestClusterModel = ClusterModel.TestCase
