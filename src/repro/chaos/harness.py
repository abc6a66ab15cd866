"""`ChaosHarness`: run the serve→ingest loop under a :class:`FaultPlan`.

The harness owns nothing the production stack doesn't already expose. It
wraps the real :class:`~repro.ingest.pipeline.IngestPipeline`,
:class:`~repro.update.distribution.MapDistributionServer`, and
:class:`~repro.serve.service.MapService` through their public injection
seams — the sensor stream it submits, the pipeline's ``delivery_hook``,
a thin server proxy on the publisher path, and plain requests against
the service — so a chaos run exercises exactly the code a production run
would, plus faults. Where each fault point plugs in:

- **sensor.*** — the submission tap: observations are dropped,
  re-uplinked, corrupted to a non-finite sigma (poison on arrival),
  held back and delivered out of order, or timestamp-skewed before they
  reach :meth:`IngestPipeline.submit`.
- **bus.*** / **pipeline.worker_crash** — the ``delivery_hook``: a
  worker stalls while holding its lease (slow consumer), stalls past the
  lease timeout (lease-expiry storm → redelivery → double processing),
  or raises and dies mid-batch (the supervisor restarts it and the lease
  expires).
- **pipeline.poison** — bursts of structurally invalid observations
  appended to the stream; they fail validation, burn their retry budget,
  and must land in the dead-letter queue without wedging a partition.
- **publish.transient** — ``_ChaosServerProxy`` raises
  :class:`~repro.ingest.publisher.TransientPublishError` from
  ``ingest``; the publisher's bounded retry absorbs or surfaces it.
- **publish.conflict** — a rogue writer floods ``ReplaceElement``
  patches against a stable prior sign straight into the *real* server,
  interleaving accepted version bumps and REJECT-policy conflicts with
  the pipeline's publishes.
- **serve.*** — a request phase against a :class:`MapService` over the
  same database: bursts concentrated on one tile and admission spikes
  beyond queue capacity.
- **geometry.*** — corrupt-geometry patches (degenerate lanes, broken
  boundary chains, orphaned regulatory elements) pushed straight at the
  publisher, upstream of nothing but the constraint verify gate; the
  fifth invariant demands every one in the quarantine store and a
  constraint-clean served map.

Determinism contract: the whole stream is submitted to the bus *before*
the stage workers start (as ``bench_s02_ingest.py`` does), submission is
sequential per vehicle, and the default workload runs one worker — so
batch boundaries, fusion order, and published patches are a pure
function of (workload seed, fault plan). A run with an inert plan
(:meth:`FaultPlan.none`) therefore encodes its final map to exactly the
same bytes as :meth:`ChaosHarness.run_plain`, the same workload on an
unwrapped pipeline: the harness itself provably injects nothing.
:func:`repro.chaos.report.check_invariants` certifies the degradation
contract on the run's observable surfaces.
"""

from __future__ import annotations

import contextlib
import copy
import threading
import time
from dataclasses import dataclass
from typing import Iterator
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.faults import (
    BUS_LEASE_STORM,
    BUS_SLOW_CONSUMER,
    GEOMETRY_BROKEN_BOUNDARY,
    GEOMETRY_DEGENERATE_LANE,
    GEOMETRY_ORPHAN_REGULATORY,
    PIPELINE_POISON,
    PIPELINE_WORKER_CRASH,
    PUBLISH_CONFLICT,
    PUBLISH_TRANSIENT,
    SENSOR_CLOCK_SKEW,
    SENSOR_CORRUPT,
    SENSOR_DELAY,
    SENSOR_DROP,
    SENSOR_DUPLICATE,
    SERVE_HOT_SHARD,
    SERVE_SPIKE,
    FaultPlan,
)
from repro.chaos.report import ChaosReport, check_invariants
from repro.core.elements import Lane, LaneBoundary, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.regulatory import RegulatoryElement, RuleType
from repro.core.versioning import MapPatch
from repro.geometry.polyline import Polyline
from repro.ingest.fleetsource import FleetObservationSource
from repro.ingest.observation import Observation, ObservationKind
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.publisher import ConfirmedPatch, TransientPublishError
from repro.obs.log import EVENT_LOG
from repro.serve.api import GetTile, Priority
from repro.serve.service import MapService
from repro.storage.binary import encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import ConflictPolicy, MapDistributionServer
from repro.world.scenario import ChangeSpec, Scenario, apply_changes


class _InjectedCrash(Exception):
    """Raised from the delivery hook to kill a worker thread.

    The hook runs before the guarded stage section on purpose, so this
    escapes the worker loop: the thread dies with the batch still
    leased, and recovery is the supervisor's job (restart + lease
    expiry), not the retry path's.
    """


@contextlib.contextmanager
def _quiet_injected_crashes() -> Iterator[None]:
    """Keep intentional worker crashes off stderr; the dead thread and
    the ``worker_restarted`` event are the observable record, not a
    traceback."""
    previous = threading.excepthook

    def hook(exc_info, /):
        if not issubclass(exc_info.exc_type, _InjectedCrash):
            previous(exc_info)

    threading.excepthook = hook
    try:
        yield
    finally:
        threading.excepthook = previous


#: Pipeline shape of every chaos run (small but complete). One worker
#: keeps inert runs bit-deterministic; the short backoffs, lease and
#: cooldown let a fault window open and close inside one run.
STEP_S = 0.5
REMOVE_SIGNS = 2
ADD_SIGNS = 2
TILE_SIZE = 250.0
N_WORKERS = 1
N_PARTITIONS = 4
MAX_BATCH = 16
MAX_ATTEMPTS = 4
BACKOFF_BASE_S = 0.005
LEASE_TIMEOUT_S = 1.0
SUPERVISOR_TICK_S = 0.01
BREAKER_COOLDOWN_S = 0.05
SERVE_REQUESTS = 120


@dataclass
class ChaosWorkload:
    """Shape of the fleet driven under faults."""

    vehicles: int = 3
    routes_per_vehicle: int = 2
    route_length_m: float = 900.0
    seed: int = 7


class _ChaosServerProxy:
    """Delegates everything to the real server; ``ingest`` may fault."""

    def __init__(self, server: MapDistributionServer, point) -> None:
        self._server = server
        self._point = point

    def __getattr__(self, name: str):
        return getattr(self._server, name)

    def ingest(self, patch, policy=None):
        if self._point.roll("publisher"):
            raise TransientPublishError(
                "injected transient publish failure")
        return self._server.ingest(patch, policy=policy)


class ChaosHarness:
    """One fault plan against one workload; :meth:`run` yields a report."""

    def __init__(self, hdmap: HDMap, plan: FaultPlan,
                 workload: Optional[ChaosWorkload] = None,
                 freshness_bound_s: float = 30.0) -> None:
        self.hdmap = hdmap
        self.plan = plan
        self.workload = workload or ChaosWorkload()
        self.freshness_bound_s = freshness_bound_s
        self.scenario: Optional[Scenario] = None
        self._final_map: Optional[HDMap] = None
        #: idempotency keys of the corrupt-geometry patches injected by
        #: the last run; the fifth invariant demands every one of them
        #: in the quarantine store.
        self.malformed_keys: List[str] = []

    # -- workload construction -----------------------------------------
    def _build_scenario(self) -> Scenario:
        w = self.workload
        rng = np.random.default_rng(w.seed)
        scenario = apply_changes(
            self.hdmap, ChangeSpec(remove_signs=REMOVE_SIGNS,
                                   add_signs=ADD_SIGNS), rng)
        self.scenario = scenario
        return scenario

    def _build_pipeline(self, server, hooked: bool) -> IngestPipeline:
        return IngestPipeline(
            server, tile_size=TILE_SIZE, n_workers=N_WORKERS,
            n_partitions=N_PARTITIONS, capacity_per_partition=8192,
            lease_timeout_s=LEASE_TIMEOUT_S, max_attempts=MAX_ATTEMPTS,
            backoff_base_s=BACKOFF_BASE_S, max_batch=MAX_BATCH,
            supervisor_tick_s=SUPERVISOR_TICK_S,
            breaker_cooldown_s=BREAKER_COOLDOWN_S,
            delivery_hook=self._delivery_hook if hooked else None)

    def _source(self, scenario: Scenario) -> FleetObservationSource:
        w = self.workload
        return FleetObservationSource(
            scenario, n_vehicles=w.vehicles,
            route_length_m=w.route_length_m, step_s=STEP_S,
            routes_per_vehicle=w.routes_per_vehicle,
            duplicate_rate=0.0, seed=w.seed)

    # -- fault injectors -----------------------------------------------
    def _delivery_hook(self, batch) -> None:
        """Bus/worker faults, keyed by partition so each partition's fate
        is its own deterministic stream."""
        key = str(batch.partition)
        if self.plan.point(PIPELINE_WORKER_CRASH).roll(key):
            raise _InjectedCrash(f"injected crash on batch {batch.batch_id}")
        storm = self.plan.point(BUS_LEASE_STORM)
        if storm.roll(key):
            # Stall past the lease timeout: the supervisor redelivers the
            # batch while this worker is still processing it.
            time.sleep(storm.magnitude or
                       (LEASE_TIMEOUT_S * 1.5))
        slow = self.plan.point(BUS_SLOW_CONSUMER)
        if slow.roll(key):
            time.sleep(slow.magnitude or 0.02)

    def _tap(self, obs: Observation, vehicle: str,
             pending: List[Tuple[int, Observation]],
             position: int) -> List[Observation]:
        """Sensor-boundary faults for one observation; returns what the
        uplink actually delivers at this position of the stream."""
        plan = self.plan
        if plan.point(SENSOR_DROP).roll(vehicle):
            return []
        if plan.point(SENSOR_CORRUPT).roll(vehicle):
            obs = copy.copy(obs)
            obs.sigma = float("nan")  # poison: fails ValidateStage
        skew = plan.point(SENSOR_CLOCK_SKEW)
        if skew.roll(vehicle):
            obs = copy.copy(obs)
            obs.t += skew.magnitude or 30.0
        delay = plan.point(SENSOR_DELAY)
        if delay.roll(vehicle):
            pending.append((position + int(delay.magnitude or 25), obs))
            return []
        out = [obs]
        if plan.point(SENSOR_DUPLICATE).roll(vehicle):
            out.append(copy.copy(obs))  # same (vehicle, seq) dedup key
        return out

    def _poison_burst(self, pipe: IngestPipeline, vehicle: str,
                      anchor: Tuple[float, float], seq_base: int) -> int:
        """A burst of structurally invalid observations near ``anchor``."""
        point = self.plan.point(PIPELINE_POISON)
        if not point.roll(vehicle):
            return 0
        burst = max(int(point.magnitude), 1)
        for i in range(burst):
            pipe.submit(Observation(
                kind=ObservationKind.DETECTION, position=anchor,
                sigma=-1.0,  # invalid on purpose: fails ValidateStage
                vehicle=f"chaos-poison-{vehicle}", seq=seq_base + i,
                t=0.0))
        return burst

    def _malformed_patch(self, point_name: str, n: int) -> MapPatch:
        """One deterministic corrupt-geometry patch for ``point_name``.

        Each shape violates a different constraint family — see
        docs/MAP_QUALITY.md — and every reference it carries is dangling
        on purpose, so the patch is unambiguously malformed regardless
        of what the workload has published so far.
        """
        x = 10_000.0 + 100.0 * n  # far from any generated geometry
        patch = MapPatch(source=f"chaos:{point_name}", confidence=0.9)
        if point_name == GEOMETRY_DEGENERATE_LANE:
            patch.add(Lane(
                id=ElementId("lane", 990_000 + n),
                centerline=Polyline(np.array([[x, 0.0], [x + 0.2, 0.0]])),
                left_boundary=ElementId("boundary", 990_000 + n),
                right_boundary=ElementId("boundary", 991_000 + n),
                width=0.4, speed_limit=13.9))
        elif point_name == GEOMETRY_BROKEN_BOUNDARY:
            patch.add(LaneBoundary(
                id=ElementId("boundary", 992_000 + n),
                line=Polyline(np.array([[x, 0.0], [x + 60.0, 0.0],
                                        [x + 1.0, 0.05]])),
                boundary_type="solid"))
        else:  # GEOMETRY_ORPHAN_REGULATORY
            patch.add(RegulatoryElement(
                id=ElementId("regulatory", 993_000 + n),
                rule_type=RuleType.SPEED_LIMIT, lanes=(),
                evidence=(ElementId("sign", 993_000 + n),), value=99.0))
        return patch

    def _geometry_flood(self, pipe: IngestPipeline, vehicle: str) -> int:
        """Corrupt-geometry patches pushed straight at the publisher —
        upstream of nothing but the verify gate itself, which must
        quarantine every one. Returns how many were injected."""
        injected = 0
        for point_name in (GEOMETRY_DEGENERATE_LANE,
                           GEOMETRY_BROKEN_BOUNDARY,
                           GEOMETRY_ORPHAN_REGULATORY):
            point = self.plan.point(point_name)
            if not point.roll(vehicle):
                continue
            n = len(self.malformed_keys)
            key = f"chaos:{point_name}:{n}"
            self.malformed_keys.append(key)
            pipe.publisher.publish(ConfirmedPatch(
                key=key, patch=self._malformed_patch(point_name, n)))
            injected += 1
        return injected

    def _conflict_target(self, scenario: Scenario) -> Optional[TrafficSign]:
        """A prior sign the scenario did not touch — safe for the rogue
        writer to churn without masking real injected changes."""
        changed = {c.element_id for c in scenario.true_changes}
        for sign in scenario.prior.signs():
            if sign.id not in changed:
                return sign
        return None

    def _rogue_replace(self, target: TrafficSign, source: str,
                       confidence: float) -> MapPatch:
        moved = TrafficSign(id=target.id,
                            position=np.array(target.position, dtype=float),
                            sign_type=target.sign_type)
        return MapPatch(source=source, confidence=confidence).replace(moved)

    def _conflict_flood(self, server: MapDistributionServer,
                        scenario: Scenario, vehicle: str) -> int:
        """Accepted-then-conflicting rogue write pairs; returns how many
        REJECT-policy writes were actually refused."""
        point = self.plan.point(PUBLISH_CONFLICT)
        refused = 0
        if not point.active:
            return refused
        target = self._conflict_target(scenario)
        if target is None:
            return refused
        for i in range(max(int(point.magnitude), 2)):
            if not point.roll(vehicle):
                continue
            # First write wins a version bump; the immediate second write
            # of the same element lands inside the conflict window, so a
            # REJECT-policy caller sees it refused (no version consumed).
            server.ingest(self._rogue_replace(target, "chaos-rogue", 0.95),
                          policy=ConflictPolicy.LAST_WRITER_WINS)
            result = server.ingest(
                self._rogue_replace(target, "chaos-rogue-2", 0.5),
                policy=ConflictPolicy.REJECT)
            refused += 0 if result.accepted else 1
        return refused

    # -- drive ----------------------------------------------------------
    def _submit_all(self, pipe: IngestPipeline,
                    source: FleetObservationSource,
                    server: MapDistributionServer,
                    scenario: Scenario) -> None:
        """Sequential per-vehicle submission through the sensor tap."""
        poison_seq = 0
        for idx in range(source.n_vehicles):
            vehicle = f"vehicle-{idx}"
            pending: List[Tuple[int, Observation]] = []
            anchor = (0.0, 0.0)
            for position, obs in enumerate(
                    source.observations_for_vehicle(idx)):
                if pending:
                    for due, held in list(pending):
                        if due <= position:
                            pipe.submit(held)
                            pending.remove((due, held))
                for delivered in self._tap(obs, vehicle, pending, position):
                    pipe.submit(delivered)
                anchor = obs.position
            for _, held in pending:  # out-of-order tail of the uplink
                pipe.submit(held)
            poison_seq += self._poison_burst(pipe, vehicle, anchor,
                                             poison_seq)
            self._conflict_flood(server, scenario, vehicle)
            self._geometry_flood(pipe, vehicle)

    def _serve_phase(self, server: MapDistributionServer,
                     scenario: Scenario) -> Tuple[Dict[str, object], int]:
        """Request storm against a service over the chaos-mutated map."""
        plan = self.plan
        store = TileStore.build(scenario.prior, tile_size=TILE_SIZE)
        tiles = store.tiles()
        service = MapService(
            server, store, n_workers=2, cache_shards=4, tiles_per_shard=8,
            max_queue=32)
        base_version = server.version
        regressions = 0
        futures = []
        hot = plan.point(SERVE_HOT_SHARD)
        spike = plan.point(SERVE_SPIKE)
        target = self._conflict_target(scenario)
        priorities = (Priority.LOW, Priority.NORMAL, Priority.HIGH)
        with service:
            for i in range(SERVE_REQUESTS):
                # One decision stream per serve point (default key): the
                # request index advances the stream, so `after` offsets
                # delay the fault window into the phase as documented.
                tile = tiles[0] if hot.roll() else tiles[i % len(tiles)]
                if i == SERVE_REQUESTS // 2 and target is not None and \
                        hot.active:
                    # One live version bump mid-burst: responses on both
                    # sides of it feed the version-regression check.
                    server.ingest(
                        self._rogue_replace(target, "chaos-serve", 0.9),
                        policy=ConflictPolicy.LAST_WRITER_WINS)
                futures.append(service.submit(GetTile(
                    tile, priority=priorities[i % 3], encoded=True)))
                if spike.roll():
                    flood = max(int(spike.magnitude), 8)
                    futures.extend(
                        service.submit(GetTile(tiles[j % len(tiles)],
                                               priority=Priority.LOW,
                                               encoded=True))
                        for j in range(flood))
            responses = [f.result(10.0) for f in futures]
        for resp in responses:
            if resp.ok and resp.version < base_version:
                regressions += 1
        stats = service.metrics.as_dict()
        stats["admission"] = {
            "admitted": service.queue.admitted.value,
            "rejected": service.queue.rejected.value,
            "shed": service.queue.shed.value,
            "displaced": service.queue.displaced.value,
        }
        stats["responses"] = len(responses)
        return stats, regressions

    # -- entry points ----------------------------------------------------
    def run(self, label: str = "chaos") -> ChaosReport:
        """Drive the full faulted workload and certify the invariants."""
        EVENT_LOG.clear()
        t_start = time.perf_counter()
        self.malformed_keys = []
        scenario = self._build_scenario()
        server = MapDistributionServer(scenario.prior.copy())
        base_version = server.version
        proxy = _ChaosServerProxy(server,
                                  self.plan.point(PUBLISH_TRANSIENT))
        pipe = self._build_pipeline(proxy, hooked=True)
        source = self._source(scenario)
        # The bus is fully loaded before the stage workers start, so
        # batching is a pure function of the stream.
        self._submit_all(pipe, source, server, scenario)
        with _quiet_injected_crashes():
            pipe.start()
            pipe.stop(drain=True, timeout_s=60.0)

        serve_stats: Optional[Dict[str, object]] = None
        regressions = 0
        if any(self.plan.active(p) for p in
               (SERVE_HOT_SHARD, SERVE_SPIKE)):
            serve_stats, regressions = self._serve_phase(server, scenario)

        invariants = check_invariants(
            pipe, server, base_version, EVENT_LOG.events(),
            freshness_bound_s=self.freshness_bound_s,
            crash_fired=self.plan.point(PIPELINE_WORKER_CRASH).fired,
            serve_version_regressions=regressions,
            malformed_keys=self.malformed_keys)
        self._final_map = server.snapshot()
        return ChaosReport(
            fault_class=label, plan=self.plan.describe(),
            fired=self.plan.fired_counts(), invariants=invariants,
            stats=pipe.stats(), serve_stats=serve_stats,
            elapsed_s=time.perf_counter() - t_start)

    def final_map_bytes(self) -> bytes:
        """Encoded final map of the last :meth:`run` (parity probe)."""
        if self._final_map is None:
            raise RuntimeError("run() has not completed yet")
        return encode_map(self._final_map)

    def run_plain(self) -> bytes:
        """The same workload on an unwrapped pipeline — no proxy, no
        hook, no tap. Returns the encoded final map; an inert-plan
        :meth:`run` must match it byte for byte."""
        scenario = self._build_scenario()
        server = MapDistributionServer(scenario.prior.copy())
        pipe = self._build_pipeline(server, hooked=False)
        source = self._source(scenario)
        for idx in range(source.n_vehicles):
            for obs in source.observations_for_vehicle(idx):
                pipe.submit(obs)
        pipe.start()
        pipe.stop(drain=True, timeout_s=60.0)
        return encode_map(server.snapshot())
