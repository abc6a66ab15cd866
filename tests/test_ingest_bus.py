"""ObservationBus against a reference model, and its blocking behaviour.

The state machine drives the bus with an injected clock and checks every
poll against a plain-Python model of what should be ready. The wake-up
tests block a real poller and release it by publish, retry deadline and
close; none of them asserts on elapsed time.
"""

from __future__ import annotations

import threading
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import IngestError
from repro.ingest import Observation, ObservationBus, ObservationKind

TILE = 100.0
N_PARTITIONS = 4
N_TILES = 6
LEASE_S = 5.0


def _obs(vehicle: str, seq: int, tile_x: int) -> Observation:
    return Observation(kind=ObservationKind.DETECTION,
                       position=(tile_x * TILE + 10.0, 10.0), sigma=0.5,
                       vehicle=vehicle, seq=seq, t=float(seq))


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class BusModel(RuleBasedStateMachine):
    """Reference model: per partition the pending (key, tile) queue in
    publish order and the nacked batches with their due times; the
    leased batches; every admitted and every acked key."""

    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.bus = ObservationBus(tile_size=TILE, n_partitions=N_PARTITIONS,
                                  capacity_per_partition=10_000,
                                  lease_timeout_s=LEASE_S, clock=self.clock)
        self.pending = [deque() for _ in range(N_PARTITIONS)]
        # partition -> [(due, batch_id)]
        self.retry = [[] for _ in range(N_PARTITIONS)]
        # batch_id -> (batch, keys, lease deadline)
        self.leased = {}
        self.parked = {}  # batch_id -> keys, for batches in `retry`
        self.admitted = set()
        self.acked = set()
        # partition -> siblings leased from while it was ready and polled
        self.overtaken = [set() for _ in range(N_PARTITIONS)]
        self.closed = False

    def _partition(self, tile_x: int) -> int:
        return self.bus.partition_of(self.bus.scheme.tile_of(
            tile_x * TILE + 10.0, 10.0))

    def _due(self, p: int):
        """The retries of ``p`` that share the earliest due time, if that
        time has come (ties may be served in either order)."""
        due = [r for r in self.retry[p] if r[0] <= self.clock.t]
        first = min((r[0] for r in due), default=None)
        return [r for r in due if r[0] == first]

    def _ready(self, p: int) -> bool:
        return bool(self.pending[p]) or bool(self._due(p))

    @rule(vehicle=st.sampled_from("ab"), seq=st.integers(0, 11))
    def publish(self, vehicle, seq):
        # A duplicate uplink repeats its observation, position included.
        tile_x = (seq + 3 * (vehicle == "b")) % N_TILES
        obs = _obs(vehicle, seq, tile_x)
        if self.closed:
            with pytest.raises(IngestError):
                self.bus.publish(obs)
            return
        key = (vehicle, seq)
        assert self.bus.publish(obs) == (key not in self.admitted)
        if key not in self.admitted:
            self.admitted.add(key)
            self.pending[self._partition(tile_x)].append((key, tile_x))

    @rule(partitions=st.lists(st.integers(0, N_PARTITIONS - 1), min_size=1,
                              max_size=N_PARTITIONS, unique=True),
          max_batch=st.integers(1, 4))
    def poll(self, partitions, max_batch):
        ready = {p for p in partitions if self._ready(p)}
        batch = self.bus.poll(partitions, max_batch=max_batch, timeout=0.0)
        # A poll returns a batch iff one of its partitions is ready.
        assert (batch is not None) == bool(ready)
        if batch is None:
            return
        p = batch.partition
        assert p in ready
        # A ready sibling is never overtaken twice by the same partition.
        for other in ready - {p}:
            assert p not in self.overtaken[other]
            self.overtaken[other].add(p)
        self.overtaken[p] = set()
        due = {r[1]: r for r in self._due(p)}
        if due:
            # Due retries go first, earliest first, with the same keys.
            assert batch.batch_id in due
            self.retry[p].remove(due[batch.batch_id])
            keys = self.parked.pop(batch.batch_id)
        else:
            # Per-tile FIFO: the head tile's oldest observations, in order.
            head_tile = self.pending[p][0][1]
            expected = [key for key, t in self.pending[p]
                        if t == head_tile][:max_batch]
            keys = [o.dedup_key for o in batch.observations]
            assert keys == expected
            taken = set(keys)
            self.pending[p] = deque(
                e for e in self.pending[p] if e[0] not in taken)
        assert [o.dedup_key for o in batch.observations] == keys
        self.leased[batch.batch_id] = (batch, keys,
                                       self.clock.t + LEASE_S)

    def _park(self, batch, keys, due):
        self.retry[batch.partition].append((due, batch.batch_id))
        self.parked[batch.batch_id] = keys

    @precondition(lambda self: self.leased)
    @rule(data=st.data())
    def ack(self, data):
        bid = data.draw(st.sampled_from(sorted(self.leased)))
        batch, keys, _ = self.leased.pop(bid)
        self.bus.ack(batch)
        self.acked.update(keys)

    @precondition(lambda self: self.leased)
    @rule(data=st.data(), delay=st.sampled_from([0.0, 0.5, 3.0]))
    def nack(self, data, delay):
        bid = data.draw(st.sampled_from(sorted(self.leased)))
        batch, keys, _ = self.leased.pop(bid)
        attempts = batch.attempts
        self.bus.nack(batch, delay_s=delay)
        assert batch.attempts == attempts + 1
        self._park(batch, keys, self.clock.t + delay)

    @rule(dt=st.sampled_from([0.25, 1.0, 6.0]))
    def advance(self, dt):
        self.clock.t += dt

    @rule()
    def redeliver_expired(self):
        expired = sorted(bid for bid, (_, _, dl) in self.leased.items()
                         if dl <= self.clock.t)
        assert self.bus.redeliver_expired() == len(expired)
        for bid in expired:
            batch, keys, _ = self.leased.pop(bid)
            self._park(batch, keys, self.clock.t)

    @rule()
    def close(self):
        self.bus.close()
        self.closed = True

    @invariant()
    def accounting_matches(self):
        assert self.bus.in_flight() == len(self.leased)
        for p in range(N_PARTITIONS):
            assert self.bus.depth(p) == len(self.pending[p]) \
                + len(self.retry[p])
        # Every admitted key is exactly one of pending, leased, parked
        # or acked — nothing is lost between them.
        places = [key for q in self.pending for key, _ in q]
        for _, keys, _ in self.leased.values():
            places.extend(keys)
        for keys in self.parked.values():
            places.extend(keys)
        places.extend(self.acked)
        assert sorted(places) == sorted(self.admitted)

    def teardown(self):
        # At-least-once: expire every lease and drain the bus; every
        # admitted observation is delivered and acked.
        self.clock.t += LEASE_S + 10.0
        self.bus.redeliver_expired()
        everything = list(range(N_PARTITIONS))
        while True:
            batch = self.bus.poll(everything, max_batch=4, timeout=0.0)
            if batch is None:
                break
            self.acked.update(o.dedup_key for o in batch.observations)
            self.bus.ack(batch)
        assert self.bus.is_drained()
        assert self.acked == self.admitted


TestBusModel = BusModel.TestCase
TestBusModel.settings = settings(max_examples=150, stateful_step_count=40,
                                 deadline=None)


# ----------------------------------------------------------------------
def _tiles_by_partition(bus: ObservationBus):
    """tile_x -> partition for the first tiles of a row."""
    return {x: bus.partition_of(bus.scheme.tile_of(x * TILE + 10.0, 10.0))
            for x in range(32)}


class _BlockedPoll:
    """Run ``bus.poll(partitions)`` on a thread and report once it is
    blocked in the bus condition's wait."""

    def __init__(self, bus: ObservationBus, partitions) -> None:
        self.waiting = threading.Event()
        self.result = []
        inner = bus._cond.wait

        def wait(timeout=None):
            self.waiting.set()
            return inner(timeout)

        bus._cond.wait = wait
        self.thread = threading.Thread(
            target=lambda: self.result.append(
                bus.poll(partitions, timeout=30.0)))
        self.thread.start()
        assert self.waiting.wait(10.0)

    def join(self):
        self.thread.join(10.0)
        assert not self.thread.is_alive()
        return self.result[0]


class TestBlockedPollWakes:
    def test_on_publish_into_any_owned_partition(self):
        bus = ObservationBus(tile_size=TILE, n_partitions=N_PARTITIONS)
        tiles = _tiles_by_partition(bus)
        owned = [0, 2]
        poller = _BlockedPoll(bus, owned)
        # Publish into the second owned partition, not the first.
        tile_x = next(x for x, p in tiles.items() if p == owned[1])
        bus.publish(_obs("a", 0, tile_x))
        batch = poller.join()
        assert batch is not None and batch.partition == owned[1]

    def test_on_retry_deadline(self):
        clock = FakeClock()
        bus = ObservationBus(tile_size=TILE, n_partitions=N_PARTITIONS,
                             clock=clock)
        tile_x = 0
        p = _tiles_by_partition(bus)[tile_x]
        bus.publish(_obs("a", 0, tile_x))
        first = bus.poll([p], timeout=0.0)
        bus.nack(first, delay_s=0.2)
        poller = _BlockedPoll(bus, [p])
        # Nothing notifies from here on: only the poller's own timed wait
        # for the retry deadline can let it see the batch come due.
        clock.t = 0.2
        batch = poller.join()
        assert batch is not None and batch.batch_id == first.batch_id

    def test_on_close(self):
        bus = ObservationBus(tile_size=TILE, n_partitions=N_PARTITIONS)
        poller = _BlockedPoll(bus, [0, 1])
        bus.close()
        assert poller.join() is None
