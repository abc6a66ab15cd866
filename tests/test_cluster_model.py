"""Model tests: the cluster router against a single-node server.

Two hypothesis state machines check that the cluster is observably a
plain :class:`~repro.update.distribution.MapDistributionServer` over the
same map (2 shards growing to at most 4, 0 or 1 replica per shard),
bootstrap image included:

- :class:`ClusterModel` drives the threaded in-process
  :class:`ClusterRouter` end to end through writes and faults — primary
  and replica kills, rebalances, lease expiry, ambiguous writes,
  cold-vehicle bootstraps — each rule running to completion;
- :class:`ScheduledCoreModel` drives :class:`RouterCore` directly over
  in-process shards and owns the schedule: several operations are in
  flight at once and a drawn index picks which pending ``Send`` lands
  next, with a lost reply after the shard applied it, a shard death
  between apply and ack, a late duplicate reply, or a reply held back
  past its spawn's crash (and maybe respawn) injected on the way.

Both also check, after every step, that each shard whose primary is live
and has no write in flight serves exactly the boot state the core keeps
for it: a restart boots that state, so it must be what the shard acked.
"""

import itertools
import threading
from collections import Counter

import numpy as np
from hypothesis import Phase, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterMapClient, ClusterRouter, LocalShard
from repro.cluster.flows import Discard, Respond
from repro.cluster.protocol import Restart, RouterCore, Send
from repro.cluster.rpc import ShardDead, ShardTimeout
from repro.core import MapPatch, SignType, TrafficSign
from repro.core.ids import ElementId
from repro.obs.metrics import MetricsRegistry
from repro.serve.api import ChangesSince, GetTile, IngestPatch, Snapshot
from repro.storage.binary import BodyWriter, encode_element, referenced_ids
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city
from tests.conftest import DEEP_SEED, deep_profile, leaked

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

    def call_async(self, op, payload, trace_ctx, done):
        def landed(value, error):
            if (error is None and self._router.ambiguous and op == "serve"
                    and isinstance(payload, IngestPatch)):
                self._router.ambiguous = False
                value, error = None, ShardTimeout("write applied, reply lost")
            done(value, error)

        self._inner.call_async(op, payload, trace_ctx, landed)


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


def _budget(machine, max_examples, **kw):
    """Run ``machine`` for ``max_examples`` examples — under the
    ``ci-deep`` profile, for the profile's count, drawn from another
    seed."""
    if deep_profile():
        max_examples = settings.default.max_examples
        seed(DEEP_SEED)(machine)
    machine.TestCase.settings = settings(
        machine.TestCase.settings, max_examples=max_examples,
        deadline=None, **kw)


def _assert_state_is_the_shard(core, primary, busy=()):
    """Each shard whose primary is believed alive and is not in ``busy``
    (a write in flight) serves the core's boot state for it: the same
    version, element ids and change log. ``primary(index)`` is the
    primary's server, or None if its spawn is dead."""
    for shard in core._shards:
        server = primary(shard.index) if shard.alive["primary"] else None
        if server is None or shard.index in busy:
            continue
        state = shard.config.state
        assert state.version == server.version, shard.index
        assert state.element_ids() == server.element_ids(), shard.index
        assert state.db.log.entries == server.db.log.entries, shard.index


def _server(shard):
    """A live in-process shard's server, or None once it was killed."""
    return None if shard._dead else shard._backend.server


def _encoded_elements(hdmap, skip=frozenset()):
    """``{id: encoded element}``: content element for element, not ids
    (leaving out the ids in ``skip``)."""
    elements = [e for e in hdmap.elements() if e.id not in skip]
    kinds = set()
    for element in elements:
        kinds.add(element.id.kind)
        kinds.update(ref.kind for ref in referenced_ids(element)
                     if ref is not None)
    out = {}
    for element in elements:
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
        self.threads = set(threading.enumerate())
        self.router = _Router(CITY, n_shards=2, tile_size=120.0,
                              replicas=replicas, transport="local",
                              lease_s=LEASE_S, clock=lambda: self.now)
        self.client = ClusterMapClient(self.router)

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            assert not leaked(self.threads)

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
        index = shard % self.router.n_shards
        self.router._links[(index, 0)][1].kill()

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

    @invariant()
    def state_is_the_shard(self):
        links = self.router._links
        _assert_state_is_the_shard(
            self.router._core,
            lambda index: _server(links[(index, "primary")][1]._inner))


_budget(ClusterModel, 25, stateful_step_count=12)
TestClusterModel = ClusterModel.TestCase


BLOBS = dict(TileStore.build(CITY, 120.0)._blobs)
TILES = sorted(BLOBS)
#: base-map elements: no operation here edits them, so once the ids
#: match their content does too
BASE_IDS = frozenset(e.id for e in CITY.elements())
#: what a delivered send may suffer (at most once per interleaving)
FAULTS = (None, None, None, "lose", "die", "dup", "late")


class ScheduledCoreModel(RuleBasedStateMachine):
    """:class:`RouterCore` under drawn schedules, against the single node.

    The machine is the core's shell: it keeps one in-process shard per
    spawned slot and a pool of pending sends, and each step of an
    interleaving either starts the next operation of a drawn batch or
    lands a drawn pending send — or delivers a reply held back: one
    already landed, which the core must discard, or one whose spawn
    crashed after answering, which counts only if the slot was not
    respawned since. After every step the cluster must
    answer like the reference, and no response may report a shard below
    the version the router had observed when the operation began.
    """

    def __init__(self) -> None:
        super().__init__()
        self.core = None
        self.now = 0.0
        self.links = {}       # (index, slot) -> (gen, LocalShard)
        self.pending = []     # sends issued and not yet landed
        self.answers = {}     # op -> Respond
        self.late = []        # (seq, reply, landed already) held back
        self.reference = MapDistributionServer(CITY.copy())
        self.ids = itertools.count(1)
        self.live = []
        self.confidence = 0.5
        self.version = 0

    @initialize(replicas=st.sampled_from([1, 0]))
    def boot(self, replicas):
        self.threads = set(threading.enumerate())
        self.core = RouterCore(
            CITY, BLOBS, 120.0, 2, replicas, LEASE_S, None,
            dict(n_workers=1, service_latency_s=0.0,
                 storage_latency_s=0.0), MetricsRegistry())
        self._apply(self.core.boot(self.now))
        self.client = ClusterMapClient(self)

    def teardown(self) -> None:
        for _, shard in self.links.values():
            shard.close()
        if self.core is not None:
            assert not leaked(self.threads)

    # -- the shell ------------------------------------------------------
    def _apply(self, effects):
        for effect in effects:
            if isinstance(effect, Send):
                self.pending.append(effect)
            elif isinstance(effect, Respond):
                self.answers[effect.op] = effect
            elif isinstance(effect, Restart):
                old = self.links.get((effect.index, effect.slot))
                if old is not None:
                    old[1].close()
                self.links[(effect.index, effect.slot)] = (
                    effect.gen, LocalShard(effect.config))
            else:
                assert isinstance(effect, Discard)

    def _land(self, send, fault=None):
        """Run ``send`` on its shard and feed the outcome back — or,
        under a fault, what the network made of it."""
        gen, shard = self.links[(send.index, send.slot)]
        try:
            if gen != send.gen:
                raise ShardDead("respawned since the send")
            value = shard.call(send.call, send.payload)
        except Exception as exc:
            self._apply(self.core.reply(send.seq, None, exc, self.now))
            return
        if fault == "lose":
            self._apply(self.core.reply(
                send.seq, None, ShardTimeout("applied, reply lost"),
                self.now))
        elif fault == "die":
            shard.kill()
            self._apply(self.core.reply(
                send.seq, None, ShardDead("died before the ack"), self.now))
        elif fault == "late":
            # The spawn answered and then crashed; its reply arrives
            # after the core heard of the death, maybe after a respawn.
            if send.slot == "primary":
                shard.kill()
                self.core.dead(send.index)
            self.late.append((send.seq, value, False))
        else:
            if fault == "dup":
                self.late.append((send.seq, value, True))
            self._apply(self.core.reply(send.seq, value, None, self.now))

    def _run(self, flow):
        """One operation alone, every send landing in order, no faults."""
        op = object()
        self._apply(self.core.start(op, flow, self.now))
        while op not in self.answers:
            self._land(self.pending.pop(0))
        answer = self.answers.pop(op)
        if answer.error is not None:
            raise answer.error
        return answer.value

    # the router surface ClusterMapClient uses
    def bootstrap_image(self):
        return self._run(self.core.bootstrap_image())

    def changes_since(self, since):
        return self._run(self.core.changes_since(since))

    # -- operations -----------------------------------------------------
    def _start(self, kind, data, ops):
        """Start one ``kind`` operation; ``ops[op]`` says how to check
        its answer. ``kill`` (a primary crashes outside any call) and
        ``lease`` (every lease expires) are events, not operations."""
        op = object()
        if kind == "kill":
            index = data.draw(st.integers(0, MAX_SHARDS - 1)) \
                % self.core.n_shards
            self.links[(index, "primary")][1].kill()
            self.core.dead(index)
            return
        if kind == "lease":
            self.now += LEASE_S + 1.0
            return
        if kind == "remove" and not self.live:
            kind = "add"
        if kind == "add":
            eid = ElementId("sched-sign", next(self.ids))
            x = data.draw(st.integers(MIN_X, MAX_X))
            y = data.draw(st.integers(MIN_Y, MAX_Y))
            make = lambda c: _sign_patch(eid, x, y, c)  # noqa: E731
        elif kind == "remove":
            eid = self.live[data.draw(st.integers(0, 63)) % len(self.live)]
            make = lambda c: _remove_patch(eid, c)  # noqa: E731
        if kind in ("add", "remove"):
            # Writes queue in start order, so the reference applies them
            # in that order too.
            self.confidence += 1e-3
            want = self.reference.ingest(make(self.confidence)).accepted
            if want and kind == "add":
                self.live.append(eid)
            elif want:
                self.live.remove(eid)
            ops[op] = ("write", want)
            flow = self.core.serve(IngestPatch(patch=make(self.confidence)))
        elif kind == "tile":
            tile = TILES[data.draw(st.integers(0, len(TILES) - 1))]
            ops[op] = ("tile", BLOBS[tile])
            flow = self.core.serve(GetTile(tile=tile, encoded=True))
        elif kind == "sync":
            ops[op] = ("versions", self.core.version_vector())
            flow = self.core.changes_since(
                dict.fromkeys(range(self.core.n_shards), 0))
        elif kind == "bootstrap":
            ops[op] = ("versions", self.core.version_vector())
            flow = self.core.bootstrap_image()
        else:
            ops[op] = ("rebalance", None)
            flow = self.core.rebalance(
                min(self.core.n_shards + 1, MAX_SHARDS))
        self._apply(self.core.start(op, flow, self.now))

    def _check(self, op, check):
        answer = self.answers.pop(op)
        assert answer.error is None, answer.error
        what, want = check
        value = answer.value
        if what == "write":
            assert value.ok, value.error
            assert value.payload.accepted == want
        elif what == "tile":
            assert value.ok and value.payload == want, value.error
        elif what == "versions":
            # Monotonic reads: no shard answers below the version the
            # router had already observed when the operation began.
            versions = getattr(value, "versions", None) or value.vector
            for index, floor in want.items():
                assert versions[index] >= floor, (index, versions, want)

    @rule(data=st.data(), batch=st.lists(
        st.sampled_from(["add", "sync", "add", "sync", "remove", "tile",
                         "bootstrap", "rebalance", "kill", "lease"]),
        min_size=2, max_size=5))
    def interleave(self, data, batch):
        """Start ``batch`` and land every send it leads to, in a drawn
        order, with at most one fault (a kill counts as one)."""
        ops = {}
        faults = 1
        while batch or self.pending or self.late:
            # 0 starts the next operation; then the pending sends, newest
            # first; last, a held-back reply.
            n = len(self.pending)
            pick = data.draw(st.integers(
                0, n + bool(batch) + bool(self.late) - 1)) - bool(batch)
            if pick < 0:
                kind = batch.pop(0)
                if kind == "kill" and not faults:
                    continue
                faults -= kind == "kill"
                self._start(kind, data, ops)
            elif pick < n:
                fault = data.draw(st.sampled_from(FAULTS)) if faults \
                    else None
                faults -= fault is not None
                send = self.pending.pop(n - 1 - pick)
                self._land(send, fault)
                if (self.core.replicas and fault is None
                        and isinstance(send.payload, IngestPatch)):
                    # Read your write: a sync starts the moment the
                    # primary acks, while the replicas may still lag.
                    self._start("sync", data, ops)
            else:
                seq, value, repeated = self.late.pop(0)
                effects = self.core.reply(seq, value, None, self.now)
                if repeated:
                    assert effects == [Discard(seq)]
                self._apply(effects)
            for op in [op for op in ops if op in self.answers]:
                self._check(op, ops.pop(op))
            self.state_is_the_shard()
        assert not ops, "operations stuck with nothing in flight"

    def _land_all(self, ops, hold=lambda send: False):
        """Land every pending send in order, and what those lead to,
        but those ``hold`` picks: they are left pending."""
        held = []
        while self.pending:
            send = self.pending.pop(0)
            if hold(send):
                held.append(send)
                continue
            self._land(send)
            for op in [op for op in ops if op in self.answers]:
                self._check(op, ops.pop(op))
            self.state_is_the_shard()
        self.pending = held

    @rule(data=st.data())
    def bootstrap_behind_rebuild(self, data):
        """A bootstrap parks behind another's image rebuild, and between
        the rebuild's snapshot of a shard and its merge a write to that
        shard is acked: the waiter must probe the rebuilt image again,
        and its version check catches an image without the write."""
        ops = {}
        self._start("add", data, ops)  # the current image goes stale
        self._land_all(ops)
        self._start("bootstrap", data, ops)
        self._land_all(ops, hold=lambda send: isinstance(send.payload,
                                                         Snapshot))
        snapshots, self.pending = self.pending, []  # it is rebuilding
        self._start("add", data, ops)
        for send in [s for s in self.pending
                     if isinstance(s.payload, IngestPatch)]:
            for snapshot in [s for s in snapshots if s.index == send.index]:
                snapshots.remove(snapshot)
                self._land(snapshot)
        self._land_all(ops)  # the write is acked
        self._start("bootstrap", data, ops)
        self._land_all(ops)  # its probe finds the old image stale: it waits
        self.pending.extend(snapshots)
        self._land_all(ops)
        assert not ops, "operations stuck with nothing in flight"

    @invariant()
    def state_is_the_shard(self):
        busy = {send.index for send in self.pending
                if send.slot == "primary" and (
                    send.call == "changelog"
                    or isinstance(send.payload, IngestPatch))}
        _assert_state_is_the_shard(
            self.core,
            lambda index: _server(self.links[(index, "primary")][1]), busy)

    @invariant()
    def observably_single_node(self):
        want = self.reference.snapshot()
        self.client.sync()
        assert {e.id for e in self.client.local.elements()} == \
            {e.id for e in want.elements()}
        image = self.bootstrap_image()
        assert {e.id for e in image.map.elements()} == \
            {e.id for e in want.elements()}
        assert _encoded_elements(image.map, BASE_IDS) == \
            _encoded_elements(want, BASE_IDS)
        assert image.vector == self.core.version_vector()
        assert self.core.version() >= self.version
        self.version = self.core.version()
        delta = self._run(self.core.serve(ChangesSince(since_version=0)))
        assert delta.ok, delta.error
        assert _change_counts(c for _, c in delta.payload.changes()) \
            == _change_counts(self.reference.changes_since(0))


# No shrinking: a failing schedule is reported as drawn. Shrinking one
# of these schedules takes minutes, and tools/mutants.py runs this
# machine once per protocol mutant.
_budget(ScheduledCoreModel, 20, stateful_step_count=10,
        phases=[Phase.explicit, Phase.reuse, Phase.generate])
TestScheduledCoreModel = ScheduledCoreModel.TestCase


def test_write_answered_by_a_respawned_primary_is_resent():
    """A write whose primary crashed and was respawned before its reply
    landed must be resent, even when the reply carries dropped ops and
    so asks the primary for its changelog: the successor booted without
    the write, so acking the reply would lose it."""
    machine = ScheduledCoreModel()
    machine.boot(replicas=0)
    try:
        core = machine.core
        first = _sign_patch(ElementId("sched-sign", 1), 200, 50, 0.9)
        assert machine._run(core.serve(IngestPatch(patch=first))) \
            .payload.accepted
        # The add wins; the replace loses its conflict with the first
        # write, at a higher confidence.
        patch = _sign_patch(ElementId("sched-sign", 2), 200, 50, 0.5)
        patch.replace(TrafficSign(id=ElementId("sched-sign", 1),
                                  position=np.array([201.0, 50.0]),
                                  sign_type=SignType.DIRECTION))
        op = object()
        machine._apply(core.start(op, core.serve(IngestPatch(patch=patch)),
                                  machine.now))
        (write,) = machine.pending
        machine.pending.clear()
        machine._land(write, fault="late")
        tile = next(t for t in TILES
                    if core.place.ownership.shard(t) == write.index)
        assert machine._run(core.serve(GetTile(tile=tile, encoded=True))).ok
        seq, value, _ = machine.late.pop()
        assert value.payload.accepted and value.payload.dropped_ops == 1
        machine._apply(core.reply(seq, value, None, machine.now))
        while op not in machine.answers:
            machine._land(machine.pending.pop(0))
        assert machine.answers.pop(op).value.payload.accepted
        machine.client.sync()
        assert ElementId("sched-sign", 2) in machine.client.local
    finally:
        machine.teardown()


def test_bootstrap_waiter_reprobes_the_image_it_waited_for():
    """A bootstrap that queued behind another's rebuild must probe the
    image that rebuild made: a write acked before the waiter started
    may have landed after the rebuild's snapshot of its shard."""
    machine = ScheduledCoreModel()
    machine.boot(replicas=0)
    try:
        core = machine.core

        def land_pending():
            """Land what is pending now, not what that leads to."""
            landing, machine.pending = machine.pending, []
            for send in landing:
                machine._land(send)

        def write(eid, x):
            op = object()
            machine._apply(core.start(op, core.serve(IngestPatch(
                patch=_sign_patch(eid, x, 50, 0.9))), machine.now))
            return op

        machine._run(core.serve(IngestPatch(patch=_sign_patch(
            ElementId("sched-sign", 1), 20, 50, 0.9))))  # image now stale
        builder = object()
        machine._apply(core.start(builder, core.bootstrap_image(),
                                  machine.now))
        land_pending()  # its probes find the image stale: it rebuilds
        snapshots, machine.pending = machine.pending, []
        eid = ElementId("sched-sign", 2)
        op = write(eid, 200)
        (sent,) = machine.pending
        machine.pending.clear()
        # The rebuild snapshots the write's shard first; the write lands.
        first = next(s for s in snapshots if s.index == sent.index)
        machine._land(first)
        machine._land(sent)
        assert machine.answers.pop(op).value.payload.accepted
        floor = core.version_vector()
        waiter = object()
        machine._apply(core.start(waiter, core.bootstrap_image(),
                                  machine.now))
        land_pending()  # it probes the old image, then waits on the gate
        assert waiter not in machine.answers
        for send in snapshots:
            if send is not first:
                machine._land(send)
        while waiter not in machine.answers:
            machine._land(machine.pending.pop(0))
        image = machine.answers.pop(waiter).value
        assert image.vector[sent.index] >= floor[sent.index]
        assert eid in image.map
    finally:
        machine.teardown()
