"""Fleet load generator: N synthetic vehicles driving against a MapService.

Each vehicle replays a ``drive_route`` trajectory over the ground-truth
world and, at a fixed spatial cadence, issues the request mix a real
connected vehicle produces: spatial queries around its pose on every step,
periodic incremental syncs of its on-board map, and (optionally)
crowd-sourced patch ingests reporting newly observed signs. Vehicles run
in their own threads, so the service sees genuinely concurrent,
spatially coherent traffic — the workload the tile cache's recency
order and the admission controller are designed for.

The :class:`FleetReport` aggregates what the acceptance criteria need:
throughput, cache hit rate, latency percentiles, and two consistency
checks — no vehicle may ever observe the served map version go backwards,
and after a final sync every vehicle's local map must be
element-for-element identical to the server (`is_consistent`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.versioning import MapPatch
from repro.obs.trace import TRACER
from repro.serve.api import ChangesSince, IngestPatch, Request, Response
from repro.serve.api import SpatialQuery, Status
from repro.serve.service import MapService
from repro.update.distribution import VehicleMapClient
from repro.world.traffic import drive_route


@dataclass
class VehicleReport:
    """One vehicle's view of the run."""

    vehicle: int
    requests: int = 0
    ok: int = 0
    shed: int = 0
    rejected: int = 0
    errors: int = 0
    patches_sent: int = 0
    changes_applied: int = 0
    version_regressions: int = 0
    consistent: bool = True


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet run against one service."""

    n_vehicles: int
    duration_s: float
    requests_total: int
    ok_total: int
    shed_total: int
    rejected_total: int
    error_total: int
    cache_hit_rate: float
    consistency_violations: int
    version_regressions: int
    latency: Dict[str, Dict[str, float]]
    vehicles: List[VehicleReport] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.ok_total / self.duration_s if self.duration_s > 0 else 0.0


class FleetSimulator:
    """Drive ``n_vehicles`` concurrent synthetic clients at a MapService."""

    #: radius of each vehicle's SpatialQuery around its pose
    QUERY_RADIUS_M = 60.0
    #: trajectory sampling step between two requests of one vehicle
    STEP_S = 2.0

    def __init__(self, service: MapService, world: HDMap,
                 n_vehicles: int = 4, route_length_m: float = 2000.0,
                 sync_every: int = 5, ingest_every: int = 0,
                 seed: int = 0, trace_requests: bool = False) -> None:
        if n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        self.service = service
        self.world = world
        self.n_vehicles = n_vehicles
        self.route_length_m = route_length_m
        self.sync_every = sync_every
        self.ingest_every = ingest_every
        self.seed = seed
        #: when True each vehicle request opens a sampled `fleet.request`
        #: root span, so end-to-end traces start client-side.
        self.trace_requests = trace_requests

    # ------------------------------------------------------------------
    def _trajectories(self):
        """One spatially spread trajectory per vehicle (deterministic)."""
        lanes = sorted(self.world.lanes(), key=lambda l: l.length,
                       reverse=True)
        out = []
        for i in range(self.n_vehicles):
            rng = np.random.default_rng(self.seed + 101 * i)
            lane = lanes[i % len(lanes)]
            out.append(drive_route(self.world, lane.id, self.route_length_m,
                                   rng))
        return out

    def _bootstrap_client(self) -> VehicleMapClient:
        # Snapshot carries the version it was captured at, so client state
        # starts consistent without paying the encode_map bootstrap cost.
        snap = self.service.server.snapshot()
        return VehicleMapClient(self.service.server, local=snap,
                                synced_version=snap.version)

    def _count(self, report: VehicleReport, status: Status) -> None:
        report.requests += 1
        if status is Status.OK:
            report.ok += 1
        elif status is Status.SHED:
            report.shed += 1
        elif status is Status.REJECTED:
            report.rejected += 1
        else:
            report.errors += 1

    def _request(self, idx: int, request: Request) -> Response:
        """Issue one request, optionally under a client-side root span."""
        if not self.trace_requests:
            return self.service.request(request)
        with TRACER.start_trace("fleet.request", vehicle=idx,
                                kind=request.kind) as span:
            resp = self.service.request(request)
            span.set("status", resp.status.value)
            return resp

    def _drive(self, idx, trajectory, client: VehicleMapClient,
               report: VehicleReport) -> None:
        rng = np.random.default_rng(self.seed + 13 * idx + 7)
        last_version = -1
        steps = np.arange(trajectory.start_time, trajectory.end_time,
                          self.STEP_S)
        for step, t in enumerate(steps):
            pose = trajectory.pose_at(float(t))
            resp = self._request(idx, SpatialQuery(
                pose.x, pose.y, self.QUERY_RADIUS_M))
            self._count(report, resp.status)
            if resp.ok:
                if resp.version < last_version:
                    report.version_regressions += 1
                last_version = max(last_version, resp.version)

            if self.sync_every and step % self.sync_every == 0:
                resp = self._request(
                    idx, ChangesSince(client.synced_version))
                self._count(report, resp.status)
                if resp.ok:
                    if resp.version < last_version:
                        report.version_regressions += 1
                    last_version = max(last_version, resp.version)
                    report.changes_applied += client.apply_delta(resp.payload)

            if self.ingest_every and step % self.ingest_every == \
                    self.ingest_every - 1:
                sign = TrafficSign(
                    id=self.service.server.new_element_id("sign"),
                    position=np.array([pose.x, pose.y])
                    + rng.normal(0.0, 3.0, size=2),
                    sign_type=SignType.DIRECTION)
                patch = MapPatch(source=f"vehicle-{idx}",
                                 confidence=0.5).add(sign)
                resp = self._request(idx, IngestPatch(patch))
                self._count(report, resp.status)
                report.patches_sent += 1

    # ------------------------------------------------------------------
    def run(self) -> FleetReport:
        """Drive the fleet concurrently, then verify every client."""
        trajectories = self._trajectories()
        clients = [self._bootstrap_client() for _ in range(self.n_vehicles)]
        reports = [VehicleReport(i) for i in range(self.n_vehicles)]
        threads = [
            threading.Thread(target=self._drive, name=f"vehicle-{i}",
                             args=(i, trajectories[i], clients[i],
                                   reports[i]), daemon=True)
            for i in range(self.n_vehicles)
        ]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        duration = time.monotonic() - t0

        # Ingest traffic has stopped: one last sync must make every client
        # element-for-element identical to the authoritative map.
        violations = 0
        for client, report in zip(clients, reports):
            resp = self.service.request(ChangesSince(client.synced_version))
            if resp.ok:
                report.changes_applied += client.apply_delta(resp.payload)
            report.consistent = client.is_consistent()
            if not report.consistent:
                violations += 1

        metrics = self.service.metrics
        latency = {kind: hist for kind, hist
                   in metrics.as_dict()["latency"].items()}
        return FleetReport(
            n_vehicles=self.n_vehicles,
            duration_s=duration,
            requests_total=sum(r.requests for r in reports),
            ok_total=sum(r.ok for r in reports),
            shed_total=sum(r.shed for r in reports),
            rejected_total=sum(r.rejected for r in reports),
            error_total=sum(r.errors for r in reports),
            cache_hit_rate=self.service.cache.hit_rate,
            consistency_violations=violations,
            version_regressions=sum(r.version_regressions for r in reports),
            latency=latency,
            vehicles=reports,
        )
