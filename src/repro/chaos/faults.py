"""Deterministic, seedable fault plans for the serve→ingest loop.

A :class:`FaultPlan` is a set of :class:`FaultSpec` entries, each naming
one *fault point* — a fixed place in the stack where the chaos harness
may inject a failure — with a firing probability, an activation offset,
an optional total budget, and a point-specific magnitude. The plan is
pure decision logic: it never touches the stack itself. The injectors in
:mod:`repro.chaos.harness` ask ``plan.point(name).roll(key)`` at each
opportunity and act on the answer.

Determinism is the whole design: every ``(fault point, key)`` pair gets
its own :class:`random.Random` stream derived from the plan seed by
stable hashing, so the decision sequence for, say, vehicle ``v2``'s
dropped observations does not depend on thread interleaving, wall time,
or what any other fault point did. Two runs of the same plan against the
same workload inject the same faults. A plan with no specs
(:meth:`FaultPlan.none`) is inert by construction — every ``roll`` is
False without consuming randomness — which is what makes the
faults-disabled chaos run byte-identical to a plain pipeline run.

Fault-point catalog (wired in :mod:`repro.chaos.harness`):

==========================  ==============================================
``sensor.drop``             observation silently lost before the bus
``sensor.duplicate``        observation uplinked twice
``sensor.corrupt``          sigma becomes non-finite (poison on arrival)
``sensor.delay``            observation held back and delivered out of order
``sensor.clock_skew``       observation timestamp skewed by ``magnitude`` s
``bus.slow_consumer``       worker stalls ``magnitude`` s holding the lease
``bus.lease_storm``         stall long enough that leases expire en masse
``pipeline.worker_crash``   worker thread dies mid-batch (lease left hanging)
``pipeline.poison``         burst of ``magnitude`` invalid observations
``publish.transient``       database ingest raises TransientPublishError
``publish.conflict``        rogue writer floods conflicting patches
``serve.hot_shard``         request burst concentrated on one tile
``serve.spike``             request burst beyond admission capacity
``cluster.shard_crash``     a shard process is killed mid-stream
``cluster.slow_shard``      a shard stalls past the router call timeout
``cluster.rebalance``       the cluster grows by one shard mid-stream
``geometry.degenerate_lane``  corrupt patch: near-zero-length, sliver lane
``geometry.broken_boundary``  corrupt patch: discontinuous boundary chain
``geometry.orphan_regulatory``  corrupt patch: rule with dangling refs
==========================  ==============================================

The ``cluster.*`` points are wired in :mod:`repro.chaos.cluster` (they
target the sharded :class:`~repro.cluster.router.ClusterRouter` rather
than the single-node loop). The ``geometry.*`` points inject malformed
patches upstream of the :class:`~repro.ingest.verify.VerifyGate`
(wired in both harnesses); the gate must quarantine every one.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

SENSOR_DROP = "sensor.drop"
SENSOR_DUPLICATE = "sensor.duplicate"
SENSOR_CORRUPT = "sensor.corrupt"
SENSOR_DELAY = "sensor.delay"
SENSOR_CLOCK_SKEW = "sensor.clock_skew"
BUS_SLOW_CONSUMER = "bus.slow_consumer"
BUS_LEASE_STORM = "bus.lease_storm"
PIPELINE_WORKER_CRASH = "pipeline.worker_crash"
PIPELINE_POISON = "pipeline.poison"
PUBLISH_TRANSIENT = "publish.transient"
PUBLISH_CONFLICT = "publish.conflict"
SERVE_HOT_SHARD = "serve.hot_shard"
SERVE_SPIKE = "serve.spike"
CLUSTER_SHARD_CRASH = "cluster.shard_crash"
CLUSTER_SLOW_SHARD = "cluster.slow_shard"
CLUSTER_REBALANCE = "cluster.rebalance"
GEOMETRY_DEGENERATE_LANE = "geometry.degenerate_lane"
GEOMETRY_BROKEN_BOUNDARY = "geometry.broken_boundary"
GEOMETRY_ORPHAN_REGULATORY = "geometry.orphan_regulatory"

ALL_FAULT_POINTS: Tuple[str, ...] = (
    SENSOR_DROP,
    SENSOR_DUPLICATE,
    SENSOR_CORRUPT,
    SENSOR_DELAY,
    SENSOR_CLOCK_SKEW,
    BUS_SLOW_CONSUMER,
    BUS_LEASE_STORM,
    PIPELINE_WORKER_CRASH,
    PIPELINE_POISON,
    PUBLISH_TRANSIENT,
    PUBLISH_CONFLICT,
    SERVE_HOT_SHARD,
    SERVE_SPIKE,
    CLUSTER_SHARD_CRASH,
    CLUSTER_SLOW_SHARD,
    CLUSTER_REBALANCE,
    GEOMETRY_DEGENERATE_LANE,
    GEOMETRY_BROKEN_BOUNDARY,
    GEOMETRY_ORPHAN_REGULATORY,
)

#: The seven structural fault classes, mapping to the stack layer each
#: fault point wraps. chaos-bench certifies the invariants per class
#: (the ``shard`` class runs against the sharded cluster harness; the
#: ``geometry`` class injects corrupt-geometry patches upstream of the
#: constraint verify gate).
FAULT_CLASSES: Dict[str, Tuple[str, ...]] = {
    "sensor": (SENSOR_DROP, SENSOR_DUPLICATE, SENSOR_CORRUPT,
               SENSOR_DELAY, SENSOR_CLOCK_SKEW),
    "bus": (BUS_SLOW_CONSUMER, BUS_LEASE_STORM),
    "pipeline": (PIPELINE_WORKER_CRASH, PIPELINE_POISON),
    "publish": (PUBLISH_TRANSIENT, PUBLISH_CONFLICT),
    "serve": (SERVE_HOT_SHARD, SERVE_SPIKE),
    "shard": (CLUSTER_SHARD_CRASH, CLUSTER_SLOW_SHARD, CLUSTER_REBALANCE),
    "geometry": (GEOMETRY_DEGENERATE_LANE, GEOMETRY_BROKEN_BOUNDARY,
                 GEOMETRY_ORPHAN_REGULATORY),
}


@dataclass(frozen=True)
class FaultSpec:
    """One timed/probabilistic fault at one fault point.

    ``probability`` is evaluated per opportunity on the key's decision
    stream; ``after`` skips the first N opportunities of every stream
    (letting a run warm up before the fault window opens); ``max_count``
    caps total fires across all streams; ``magnitude`` is the
    point-specific knob — seconds of delay/skew/stall, burst size, or
    request count, as documented per fault point.
    """

    point: str
    probability: float = 1.0
    after: int = 0
    max_count: Optional[int] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in ALL_FAULT_POINTS:
            raise ValueError(f"unknown fault point {self.point!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.max_count is not None and self.max_count < 0:
            raise ValueError("max_count must be >= 0")


def _stream_seed(seed: int, point: str, key: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{point}|{key}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class FaultPoint:
    """The decision stream(s) of one fault point under one plan.

    ``roll(key)`` answers "does the fault fire at this opportunity?".
    Streams are keyed (e.g. per vehicle) so each key's sequence of
    decisions is independently deterministic; an inactive point (no spec
    in the plan) always answers False and keeps no state.
    """

    def __init__(self, name: str, spec: Optional[FaultSpec],
                 seed: int) -> None:
        self.name = name
        self.spec = spec
        self._seed = seed
        self._lock = threading.Lock()
        self._streams: Dict[str, random.Random] = {}
        self._decisions: Dict[str, int] = {}
        self._fired = 0

    @property
    def active(self) -> bool:
        return self.spec is not None

    @property
    def fired(self) -> int:
        with self._lock:
            return self._fired

    @property
    def magnitude(self) -> float:
        return self.spec.magnitude if self.spec is not None else 0.0

    def roll(self, key: str = "") -> bool:
        """One injection decision on ``key``'s stream."""
        spec = self.spec
        if spec is None:
            return False
        with self._lock:
            if spec.max_count is not None and self._fired >= spec.max_count:
                return False
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = random.Random(
                    _stream_seed(self._seed, self.name, key))
            index = self._decisions.get(key, 0)
            self._decisions[key] = index + 1
            draw = stream.random()
            if index < spec.after:
                return False
            if draw >= spec.probability:
                return False
            self._fired += 1
            return True


class FaultPlan:
    """A seeded set of fault specs; the unit chaos-bench runs."""

    def __init__(self, specs: Iterable[FaultSpec] = (),
                 seed: int = 0) -> None:
        self.seed = seed
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self.specs:
                raise ValueError(f"duplicate spec for {spec.point!r}")
            self.specs[spec.point] = spec
        self._points: Dict[str, FaultPoint] = {
            name: FaultPoint(name, self.specs.get(name), seed)
            for name in ALL_FAULT_POINTS}

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The inert plan: every fault point answers False."""
        return cls((), seed)

    def point(self, name: str) -> FaultPoint:
        try:
            return self._points[name]
        except KeyError:
            raise ValueError(f"unknown fault point {name!r}") from None

    def active(self, name: str) -> bool:
        return self.point(name).active

    @property
    def is_inert(self) -> bool:
        return not self.specs

    def fired_counts(self) -> Dict[str, int]:
        """Fires per *active* fault point (inactive points omitted)."""
        return {name: point.fired
                for name, point in self._points.items() if point.active}

    def describe(self) -> str:
        if self.is_inert:
            return f"no faults (seed {self.seed})"
        parts = []
        for name in ALL_FAULT_POINTS:
            spec = self.specs.get(name)
            if spec is None:
                continue
            bits = [f"p={spec.probability:g}"]
            if spec.after:
                bits.append(f"after={spec.after}")
            if spec.max_count is not None:
                bits.append(f"max={spec.max_count}")
            if spec.magnitude:
                bits.append(f"mag={spec.magnitude:g}")
            parts.append(f"{name}({', '.join(bits)})")
        return f"seed {self.seed}: " + ", ".join(parts)


def curated_matrix(seed: int = 7) -> List[Tuple[str, FaultPlan]]:
    """The fault matrix chaos-bench certifies: one plan per fault class.

    Magnitudes assume the default :class:`~repro.chaos.harness.ChaosWorkload`
    (1 s bus leases, 4-attempt retry budget, 3-attempt publish budget,
    32-deep serve admission queue); probabilities are tuned so every
    fault point in the class actually fires on the small default
    workload while the run still drains in seconds.
    """
    return [
        ("sensor", FaultPlan([
            FaultSpec(SENSOR_DROP, probability=0.05),
            FaultSpec(SENSOR_DUPLICATE, probability=0.05),
            FaultSpec(SENSOR_CORRUPT, probability=1.0, after=5, max_count=2),
            FaultSpec(SENSOR_DELAY, probability=0.03, magnitude=25),
            FaultSpec(SENSOR_CLOCK_SKEW, probability=0.03, magnitude=30.0),
        ], seed)),
        ("bus", FaultPlan([
            FaultSpec(BUS_SLOW_CONSUMER, probability=0.2, magnitude=0.02),
            FaultSpec(BUS_LEASE_STORM, probability=1.0, after=1,
                      max_count=1, magnitude=1.5),
        ], seed)),
        ("pipeline", FaultPlan([
            FaultSpec(PIPELINE_WORKER_CRASH, probability=1.0, after=2,
                      max_count=2),
            FaultSpec(PIPELINE_POISON, probability=1.0, max_count=2,
                      magnitude=4),
        ], seed)),
        ("publish", FaultPlan([
            FaultSpec(PUBLISH_TRANSIENT, probability=0.35, max_count=6),
            FaultSpec(PUBLISH_CONFLICT, probability=1.0, max_count=4,
                      magnitude=3),
        ], seed)),
        ("serve", FaultPlan([
            FaultSpec(SERVE_HOT_SHARD, probability=0.5),
            FaultSpec(SERVE_SPIKE, probability=1.0, after=40, max_count=2,
                      magnitude=40),
        ], seed)),
        ("shard", FaultPlan([
            FaultSpec(CLUSTER_SHARD_CRASH, probability=1.0, after=8,
                      max_count=2),
            FaultSpec(CLUSTER_SLOW_SHARD, probability=1.0, after=20,
                      max_count=1, magnitude=3.0),
            FaultSpec(CLUSTER_REBALANCE, probability=1.0, after=30,
                      max_count=1),
        ], seed)),
        ("geometry", FaultPlan([
            FaultSpec(GEOMETRY_DEGENERATE_LANE, probability=1.0,
                      max_count=2),
            FaultSpec(GEOMETRY_BROKEN_BOUNDARY, probability=1.0,
                      max_count=2),
            FaultSpec(GEOMETRY_ORPHAN_REGULATORY, probability=1.0,
                      max_count=2),
        ], seed)),
    ]
