"""The five end-to-end workloads.

Each drives the real stack through its public API with every simulated
cost at zero, from two closed-loop client threads, and checks every
answer it gets. A workload is a small object:

- ``__init__(seed, work)`` builds the inputs (untimed, from ``tapes``);
- ``setup()`` builds the program state a pass needs (timed as set-up);
- ``run_pass()`` replays the fixed-size tape once and returns a
  :class:`~harness.PassResult`;
- ``finish()`` returns the end-of-run invariant failures (empty = fine);
- ``teardown()`` closes what ``setup()`` opened.

Why these five, and which layers each is meant to isolate, is in
``README.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.cluster import ClusterMapClient, ClusterRouter
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.pack import PackReader
from repro.serve import MapService
from repro.serve.api import GetTile, IngestPatch, SpatialQuery
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer, VehicleMapClient

import tapes
from harness import (
    N_CLIENTS,
    SIMULATED_COSTS,
    PassResult,
    WorkDir,
    run_clients,
)

N_SHARDS = 2
N_WORKERS = 2


def reference_payloads(hdmap: HDMap, tile_size: float, path: str
                       ) -> Dict[TileId, bytes]:
    """Expected bytes of every tile: an in-process ``TileStore.build``
    written to its own pack, never touched by the program under test."""
    TileStore.build(hdmap, tile_size).to_pack(path)
    with PackReader(path) as reader:
        return {tile: bytes(reader.get(tile)) for tile in reader.tiles()}


def make_router(hdmap: HDMap, pack_path: str, transport: str = "process",
                service_latency_s: float = SIMULATED_COSTS[
                    "service_latency_s"]) -> ClusterRouter:
    """The cluster every cluster workload talks to: 2 pack-backed shard
    processes, 2 workers each, no replicas."""
    return ClusterRouter(
        hdmap, n_shards=N_SHARDS, tile_size=tapes.CLUSTER_TILE_SIZE,
        transport=transport, n_workers=N_WORKERS, pack_path=pack_path,
        service_latency_s=service_latency_s,
        storage_latency_s=SIMULATED_COSTS["storage_latency_s"])


def router_faults(router: ClusterRouter, expected_restarts: int = 0
                  ) -> List[str]:
    """A fault-free run must not have timed out, failed over or
    restarted (beyond the kills the workload itself injected)."""
    stats = router.stats()
    out = []
    for key in ("timeouts", "failovers", "late_discards"):
        if stats[key]:
            out.append(f"router {key}={stats[key]} in a fault-free run")
    if stats["restarts"] != expected_restarts:
        out.append(f"router restarts={stats['restarts']}, "
                   f"expected {expected_restarts}")
    return out


class Workload:
    """Shared shape; see the module docstring."""

    name = ""
    #: which quantile of ``PassResult.aux`` is the workload's
    #: ``aux_latency_ms`` (its second user-visible latency)
    aux_quantile = 0.5

    def __init__(self, seed: int, work: WorkDir) -> None:
        self.seed = seed
        self.work = work
        self.map = tapes.make_map()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self) -> List[str]:
        return []

    def teardown(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ClusterTileRead(Workload):
    """Two vehicles walk the tile grid, each fetching its 3x3
    neighbourhood as nine encoded ``GetTile`` through the router."""

    name = "cluster_tile_read"

    def __init__(self, seed: int, work: WorkDir) -> None:
        super().__init__(seed, work)
        self.expected = reference_payloads(
            self.map, tapes.CLUSTER_TILE_SIZE, work.file("reference.pack"))
        self.tapes = tapes.tile_read_tape(seed, sorted(self.expected))
        self.router: ClusterRouter = None  # type: ignore[assignment]

    def setup(self) -> None:
        self.router = make_router(self.map, self.work.file("cluster.pack"))

    def client(self, index: int, out: PassResult) -> None:
        request, expected = self.router.request, self.expected
        clock = time.perf_counter
        router_side = out.extra.setdefault("router.GetTile", [])
        for step in self.tapes[index]:
            t_step = clock()
            for tile in step:
                t0 = clock()
                response = request(GetTile(tile=tile, encoded=True))
                out.primary.append(clock() - t0)
                if response.ok and response.payload == expected[tile]:
                    out.wire_bytes += len(response.payload)
                    router_side.append(response.latency_s)
                else:
                    out.failed += 1
            out.aux.append(clock() - t_step)
            out.attempted += len(step)
        out.wire_ops = out.attempted

    def run_pass(self) -> PassResult:
        return run_clients(self.client)

    def finish(self) -> List[str]:
        return router_faults(self.router)

    def teardown(self) -> None:
        self.router.close()


# ---------------------------------------------------------------------------


class LocalSpatialDrive(Workload):
    """Six vehicles drive every street of the city once per pass, asking
    one in-process service what is within 80 m; its 32-tile cache is
    about as large as what the six need at any one moment, so roughly
    every other tile lookup decodes."""

    name = "local_spatial_drive"
    #: the median query has a miss in it already; the slow path a
    #: vehicle sees is the all-miss query, so the second latency is p95
    aux_quantile = 0.95

    CACHE_SHARDS = 8
    TILES_PER_SHARD = 4

    def __init__(self, seed: int, work: WorkDir) -> None:
        super().__init__(seed, work)
        self.tapes = tapes.spatial_drive_tape(seed, self.map)
        self.store: TileStore = None  # type: ignore[assignment]
        self.service: MapService = None  # type: ignore[assignment]

    def setup(self) -> None:
        path = self.work.file("local.pack")
        TileStore.build(self.map, tapes.LOCAL_TILE_SIZE).to_pack(path)
        self.store = TileStore.from_pack(path)
        self.service = MapService(
            MapDistributionServer(self.map.copy()), self.store,
            n_workers=N_WORKERS, cache_shards=self.CACHE_SHARDS,
            tiles_per_shard=self.TILES_PER_SHARD,
            storage_latency_s=SIMULATED_COSTS["storage_latency_s"],
            service_latency_s=SIMULATED_COSTS["service_latency_s"]).start()

    def client(self, index: int, out: PassResult) -> None:
        request = self.service.request
        clock = time.perf_counter
        for op in self.tapes[index]:
            t0 = clock()
            response = request(SpatialQuery(
                x=op.x, y=op.y, radius=tapes.SPATIAL_RADIUS_M,
                landmarks_only=op.landmarks_only))
            out.primary.append(clock() - t0)
            out.attempted += 1
            if not response.ok or (
                    op.expected is not None and op.expected !=
                    frozenset(e.id for e in response.payload)):
                out.failed += 1
            else:
                # Nothing crosses a wire in process: the stand-in is
                # the encoded map a query has to look at, cached or not.
                out.wire_bytes += op.tile_bytes
        out.wire_ops = out.attempted

    def run_pass(self) -> PassResult:
        served = self.store.pack_reader.bytes_served
        before = served.value
        result = run_clients(self.client)
        # What the pass pulled out of the pack: the cache-miss traffic.
        result.extra["pack.bytes_served"] = [served.value - before]
        result.aux = result.primary
        return result

    def teardown(self) -> None:
        self.service.stop()
        self.store.pack_reader.close()


# ---------------------------------------------------------------------------


class IngestSync(Workload):
    """The maintenance loop on one node: a fleet's observation burst
    goes through bus → stages → verify gate → publisher while a
    connected vehicle pulls binary deltas; a second vehicle that was
    offline for the burst then catches up in one sync. One pass is one
    epoch on a fresh server, pipeline and clients."""

    name = "ingest_sync"
    POLL_S = 0.001

    def __init__(self, seed: int, work: WorkDir) -> None:
        super().__init__(seed, work)
        self.tape = tapes.ingest_tape(seed, self.map)
        self.last_stats: Dict[str, object] = {}

    def setup(self) -> None:
        pass  # nothing outlives an epoch; the warm-up epoch is the set-up

    def run_pass(self) -> PassResult:
        tape = self.tape
        server = MapDistributionServer(tape.scenario.prior.copy())
        pipe = tapes.ingest_pipeline(server, n_workers=N_WORKERS)
        # Both vehicles already hold the prior map: a bootstrap download
        # per epoch would be the benchmark's cost, not the loop's.
        vehicle, offline = (
            VehicleMapClient(server, local=tape.scenario.prior.copy(),
                             synced_version=server.version, wire=True)
            for _ in range(2))
        observations = tape.fresh()
        out = PassResult(attempted=len(observations))
        sync_latencies = out.extra.setdefault("client.sync", [])
        synced = 0
        drained = threading.Event()
        clock = time.perf_counter
        stamps: Dict[str, float] = {}

        def produce() -> None:
            # The whole burst is on the bus before a worker runs, so
            # batch boundaries (and with them the published versions)
            # do not depend on how the threads were scheduled.
            stamps["start"] = clock()
            for obs in observations:
                pipe.submit(obs)
            pipe.start()
            while not pipe.bus.is_drained():
                time.sleep(self.POLL_S / 2)
            stamps["drained"] = clock()
            drained.set()

        def pull() -> None:
            nonlocal synced
            while True:
                # Read the flag before syncing: a batch is acked only
                # after its patches are published, so the sync that
                # follows a set flag sees every version.
                last = drained.is_set()
                t0 = clock()
                applied = vehicle.sync()
                if applied:
                    sync_latencies.append(clock() - t0)
                    synced += applied
                if last:
                    stamps["consistent"] = clock()
                    return
                time.sleep(self.POLL_S)

        threads = [threading.Thread(target=produce, name="bench-client-0"),
                   threading.Thread(target=pull, name="bench-client-1")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pipe.stop()
        # How many changes one delta of the connected vehicle carried
        # depends on when its polls fell; the offline vehicle's single
        # catch-up delta is the same bytes every epoch.
        t0 = clock()
        out.wire_ops = offline.sync()
        out.aux.append(clock() - t0)
        out.wire_bytes = offline.bytes_downloaded
        out.wall_s = stamps["drained"] - stamps["start"]
        out.primary.append(stamps["consistent"] - stamps["start"])
        self.last_stats = pipe.stats()
        batches = self.last_stats["batches"]
        right = (server.version == tape.reference_versions
                 and synced == out.wire_ops == tape.reference_versions
                 and vehicle.is_consistent() and offline.is_consistent()
                 and len(vehicle.local) == tape.reference_elements
                 and batches["dead_letters"] == 0
                 and batches["retries"] == 0)
        if not right:
            out.failed = out.attempted
        return out

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------


class ClusterMixedRW(Workload):
    """The tile-read cluster used as a database: per client a fixed
    100-op cycle of 85 tile reads, 8 scatter-gather queries, 4 writes
    and 3 incremental syncs; state carries across passes."""

    name = "cluster_mixed_rw"

    def __init__(self, seed: int, work: WorkDir) -> None:
        super().__init__(seed, work)
        self.expected = reference_payloads(
            self.map, tapes.CLUSTER_TILE_SIZE, work.file("reference.pack"))
        self.tapes = tapes.mixed_tape(seed, self.map, sorted(self.expected))
        self.router: ClusterRouter = None  # type: ignore[assignment]
        self.vehicles: List[ClusterMapClient] = []
        self.written = [0] * N_CLIENTS

    def setup(self) -> None:
        self.router = make_router(self.map, self.work.file("cluster.pack"))
        self.vehicles = [ClusterMapClient(self.router)
                         for _ in range(N_CLIENTS)]

    def client(self, index: int, out: PassResult) -> None:
        request, expected = self.router.request, self.expected
        vehicle = self.vehicles[index]
        clock = time.perf_counter
        extra = out.extra
        for kind in ("router.GetTile", "router.SpatialQuery",
                     "router.IngestPatch", "client.sync"):
            extra.setdefault(kind, [])
        # Ids never repeat: each client owns a range, the counter
        # survives passes and set-ups.
        id_base = tapes.BENCH_SIGN_BASE * (index + 1)
        downloaded = vehicle.bytes_downloaded
        for op in self.tapes[index]:
            ok = True
            if op.kind == "get":
                t0 = clock()
                response = request(GetTile(tile=op.tile, encoded=True))
                out.primary.append(clock() - t0)
                ok = response.ok and response.payload == expected[op.tile]
                if ok:
                    out.wire_bytes += len(response.payload)
                    extra["router.GetTile"].append(response.latency_s)
            elif op.kind == "query":
                response = request(SpatialQuery(
                    x=op.xy[0], y=op.xy[1], radius=tapes.MIXED_RADIUS_M))
                ok = response.ok and (
                    op.expected is None or op.expected ==
                    frozenset(e.id for e in response.payload))
                extra["router.SpatialQuery"].append(response.latency_s)
            elif op.kind == "write":
                self.written[index] += 1
                patch = tapes.new_sign(id_base + self.written[index], op.xy)
                t0 = clock()
                response = request(IngestPatch(patch=patch))
                out.aux.append(clock() - t0)
                ok = response.ok and response.payload.accepted
                extra["router.IngestPatch"].append(response.latency_s)
            else:
                t0 = clock()
                vehicle.sync()
                extra["client.sync"].append(clock() - t0)
            out.attempted += 1
            if not ok:
                out.failed += 1
        out.wire_bytes += vehicle.bytes_downloaded - downloaded
        out.wire_ops = out.attempted

    def run_pass(self) -> PassResult:
        return run_clients(self.client)

    def finish(self) -> List[str]:
        problems = router_faults(self.router)
        for index, vehicle in enumerate(self.vehicles):
            vehicle.sync()
            if not vehicle.is_consistent():
                problems.append(f"client {index} inconsistent after the "
                                f"last pass")
        return problems

    def teardown(self) -> None:
        self.router.close()


# ---------------------------------------------------------------------------


class ColdStartRecovery(Workload):
    """What an operator and a cold vehicle pay once history has piled
    up: full bootstraps, and kill → first good read, both against a
    router whose journal and shard change logs hold 3 000 patches."""

    name = "cold_start_recovery"
    MAX_SPINS = 1000

    def __init__(self, seed: int, work: WorkDir,
                 history: int = tapes.HISTORY_PATCHES) -> None:
        super().__init__(seed, work)
        self.expected = reference_payloads(
            self.map, tapes.CLUSTER_TILE_SIZE, work.file("reference.pack"))
        self.history = tapes.history_tape(seed, self.map, history)
        self.router: ClusterRouter = None  # type: ignore[assignment]
        self.probe: Dict[int, TileId] = {}
        self.kills = 0

    def setup(self) -> None:
        self.router = make_router(self.map, self.work.file("cluster.pack"))
        self.kills = 0
        for k, xy in enumerate(self.history):
            response = self.router.request(IngestPatch(
                patch=tapes.new_sign(tapes.BENCH_SIGN_BASE + k, xy)))
            if not (response.ok and response.payload.accepted):
                raise RuntimeError(f"history patch {k} refused: "
                                   f"{response.error}")
        self.probe = {}
        for tile in self.router.tiles():
            self.probe.setdefault(self.router.owner_of_tile(tile), tile)

    def bootstrap_client(self, index: int, out: PassResult) -> None:
        clock = time.perf_counter
        want = len(self.map) + len(self.history)
        for _ in range(tapes.BOOTSTRAPS_PER_CLIENT):
            t0 = clock()
            vehicle = ClusterMapClient(self.router)
            out.primary.append(clock() - t0)
            out.attempted += 1
            out.wire_ops += 1
            out.wire_bytes += vehicle.bytes_downloaded
            if len(vehicle.local) != want:
                out.failed += 1

    def recover(self, shard: int, out: PassResult) -> None:
        """Kill one shard, then read a tile it owns until the answer is
        good again; the reads before that are the outage, not failures."""
        tile = self.probe[shard]
        clock = time.perf_counter
        t0 = clock()
        self.router.kill_shard(shard)
        self.kills += 1
        good = False
        for _ in range(self.MAX_SPINS):
            response = self.router.request(GetTile(tile=tile, encoded=True))
            if response.ok:
                good = response.payload == self.expected[tile]
                break
        out.aux.append(clock() - t0)
        out.attempted += 1
        if not good:
            out.failed += 1

    def run_pass(self) -> PassResult:
        out = run_clients(self.bootstrap_client)
        t0 = time.perf_counter()
        for k in range(tapes.RECOVERIES_PER_PASS):
            self.recover(k % N_SHARDS, out)
        out.wall_s += time.perf_counter() - t0
        return out

    def finish(self) -> List[str]:
        return router_faults(self.router, expected_restarts=self.kills)

    def teardown(self) -> None:
        self.router.close()


WORKLOADS = {cls.name: cls for cls in (
    ClusterTileRead, LocalSpatialDrive, IngestSync, ClusterMixedRW,
    ColdStartRecovery)}
