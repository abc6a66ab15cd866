"""Per-layer metrics: the traced run (``--trace 1``).

Every layer is measured **from outside**: the benchmark times calls
into a layer's public functions and reads its public ``stats()`` /
``as_dict()`` / ``snapshot()`` surfaces. Nothing in the program is
instrumented for it; spans inside the program are a later change.

A traced run first repeats the workload untraced for part of its time
budget (that is where the counts come from — coalescing, hit rates,
batch sizes), then times the layers the workload exercises one at a
time on a single thread, so a layer's number is its own cost and not
its share of a contended core. Layers a workload never touches report
0 for it; that a layer did nothing *is* the measurement there (the
pack path of ``cluster_tile_read`` must see zero cache lookups).

Self times come from nesting, not from spans: the same ``GetTile`` tape
goes through six entry points, each of which calls the previous one, so
``self(layer k) = median(entry k) - median(entry k-1)``.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Callable, Dict, List, Sequence

from repro.cluster import PipelinedConnection, ShardBackend, ShardConfig
from repro.cluster.rpc import serve_connection
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.core.validation import ConstraintEngine
from repro.ingest import ConfirmedPatch
from repro.obs.trace import configure_tracing
from repro.pack import PackReader, decode_delta, encode_delta
from repro.serve import MapService, ShardedTileCache
from repro.serve.api import GetTile, Response, SpatialQuery, Status
from repro.storage.binary import decode_map, encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer, VehicleMapClient

import harness
import tapes
from harness import (
    PassResult,
    WorkDir,
    median,
    metric,
    ms,
    pooled,
    pooled_extra,
    quantile,
    time_calls,
    us,
)
from workloads import N_SHARDS, N_WORKERS, make_router

#: share of ``--seconds`` a traced run spends repeating the workload
#: untraced before it starts timing layers
UNTRACED_SHARE = 0.4

ONION_OPS = 5000
ONION_WARMUP = 200

#: the six nested entry points of a tile read, outermost last, and the
#: self time each one's difference to the previous is booked to
ONION = (
    ("pack.format.get_us", "self.pack.format_us"),
    ("storage.tilestore.encoded_view_us", "self.storage.tilestore_us"),
    ("serve.service.request_us", "self.serve.service_us"),
    ("cluster.shard.dispatch_us", "self.cluster.shard_us"),
    ("cluster.router.request_local_us", "self.cluster.router_us"),
    ("cluster.router.request_process_us", "self.cluster.rpc_us"),
)

#: tile lookups timed per decode/cache layer (~1.5 ms each on a miss)
TILE_TIMING_OPS = 1000

P99_MIN_SAMPLES = 1000

Values = Dict[str, float]


def _median_us(fn: Callable, args, warmup: int = 0,
               pace_s: float = 0.0) -> float:
    return us(median(time_calls(fn, args, warmup=warmup, pace_s=pace_s)))


def _median_ms(fn: Callable, repeats: int) -> float:
    return ms(median(time_calls(fn, range(repeats))))


# ---------------------------------------------------------------------------
# tile-read onion
# ---------------------------------------------------------------------------

def tile_read_onion(hdmap: HDMap, tiles: Sequence[TileId], work: WorkDir,
                    process_router, service_latency_s: float = 0.0,
                    ops: int = ONION_OPS, pace_s: float = 0.0) -> Values:
    """The same tile sequence through six nested entry points; returns
    each entry's median µs per call and the self times by subtraction.

    The outermost entry is ``process_router``, a live process-transport
    router the caller owns. ``service_latency_s`` exists for the
    calibration self-test only: it injects a known cost into exactly one
    layer (``serve.service``), and the caller's router must carry it too;
    ``pace_s`` idles between calls so a clean run can be taken at the
    request rate of an injected one.
    """
    args = list(tiles[:ops + ONION_WARMUP])
    pack = work.file("onion.pack")
    TileStore.build(hdmap, tapes.CLUSTER_TILE_SIZE).to_pack(pack)
    out: Values = {}

    def timed(name: str, fn: Callable) -> None:
        out[name] = _median_us(fn, args, warmup=ONION_WARMUP, pace_s=pace_s)

    def get(tile: TileId) -> GetTile:
        return GetTile(tile=tile, encoded=True)

    with PackReader(pack) as reader:
        timed("pack.format.get_us", reader.get)

    store = TileStore.from_pack(pack)
    timed("storage.tilestore.encoded_view_us", store.encoded_view)

    service = MapService(MapDistributionServer(hdmap.copy()), store,
                         n_workers=N_WORKERS,
                         service_latency_s=service_latency_s).start()
    try:
        timed("serve.service.request_us",
              lambda tile: service.request(get(tile)))
    finally:
        service.stop()
        store.pack_reader.close()

    backend = ShardBackend(ShardConfig(
        index=0, tile_size=tapes.CLUSTER_TILE_SIZE,
        base_map_bytes=encode_map(hdmap), pack_path=pack,
        owned_tiles=sorted(set(args)), n_workers=N_WORKERS,
        service_latency_s=service_latency_s)).start()
    try:
        timed("cluster.shard.dispatch_us",
              lambda tile: backend.dispatch("serve", get(tile)))
    finally:
        backend.stop()

    local_router = make_router(hdmap, work.file("onion-router.pack"),
                               "local", service_latency_s)
    try:
        timed("cluster.router.request_local_us",
              lambda tile: local_router.request(get(tile)))
    finally:
        local_router.close()
    timed("cluster.router.request_process_us",
          lambda tile: process_router.request(get(tile)))

    inner = 0.0
    for entry, self_name in ONION:
        out[self_name] = out[entry] - inner
        inner = out[entry]
    return out


def rpc_echo_roundtrip_us(payload: bytes, ops: int = ONION_OPS) -> float:
    """The transport floor: one pipelined call answered by a dispatcher
    that does nothing but return a tile-sized payload, over the same
    socketpair + framing a shard connection uses."""
    ours, theirs = socket.socketpair()
    reply = Response(Status.OK, payload=payload, version=0)
    server = threading.Thread(
        target=serve_connection, args=(theirs, lambda op, body: reply),
        name="bench-echo", daemon=True)
    server.start()
    conn = PipelinedConnection(ours)
    request = GetTile(tile=TileId(0, 0), encoded=True)
    try:
        return _median_us(lambda _: conn.call("serve", request, 10.0),
                          range(ops + ONION_WARMUP), warmup=ONION_WARMUP)
    finally:
        conn.call("shutdown", timeout_s=2.0)
        server.join(timeout=5.0)
        conn.close()
        theirs.close()


def tile_read_layers(workload, passes: List[PassResult]) -> Values:
    tiles = [tile for tape in workload.tapes for step in tape
             for tile in step]
    out = tile_read_onion(workload.map, tiles, workload.work,
                          workload.router)
    # One client alone on the same router right after, through the
    # workload's own loop: what the self times (which sum to the
    # outermost entry) must add up to.
    alone = PassResult()
    workload.client(0, alone)
    out["budget.sum_vs_e2e_ratio"] = \
        out["cluster.router.request_process_us"] / us(median(alone.primary))
    sizes = sorted(len(blob) for blob in workload.expected.values())
    out["cluster.rpc.echo_roundtrip_us"] = rpc_echo_roundtrip_us(
        bytes(sizes[len(sizes) // 2]))
    out.update(cluster_counts(workload.router, passes))
    traced = fully_traced_pass(workload)
    out["obs.trace.full_sampling_slowdown"] = \
        median([p.attempted / p.wall_s for p in passes]) \
        / (traced.attempted / traced.wall_s)
    passes.extend((alone, traced))  # their answers were checked too
    return out


def fully_traced_pass(workload) -> PassResult:
    """One pass with every request traced end to end (router span →
    RPC context → shard spans); untraced median throughput ÷ this
    pass's throughput is the full-sampling slowdown."""
    configure_tracing(enabled=True, sample_rate=1.0)
    try:
        return workload.run_pass()
    finally:
        configure_tracing(enabled=False, reset=True)


# ---------------------------------------------------------------------------
# cluster counts
# ---------------------------------------------------------------------------

def cluster_counts(router, passes: Sequence[PassResult]) -> Values:
    """What the router and its shards counted while the untraced passes
    ran, plus router-side latency per request kind (the ``latency_s``
    the router stamps on each response) and client-side sync latency."""
    stats = router.stats()
    gets = router.metrics.outcome_counts().get("GetTile.ok", 0)
    per_shard = router.collect_shard_metrics()
    requests = [sum(snap["outcomes"].values())
                for snap in per_shard.values()]
    lookups = sum(snap["cache"]["hits"] + snap["cache"]["misses"]
                  for snap in per_shard.values())
    out = {
        "cluster.router.coalesced_share":
            stats["coalesced"] / gets if gets else 0.0,
        "cluster.rpc.inflight_peak": stats["inflight_peak"],
        "cluster.rpc.late_discards": stats["late_discards"],
        "cluster.router.timeouts": stats["timeouts"],
        "cluster.shard.load_imbalance":
            max(requests) / (sum(requests) / len(requests)),
        "cluster.router.journal_entries": stats["journal_entries"],
        "serve.cache.lookups": lookups,
    }
    for kind in ("GetTile", "SpatialQuery", "IngestPatch"):
        out[f"cluster.router.{kind}_p50_us"] = us(median(
            pooled_extra(passes, f"router.{kind}")))
    out["cluster.client.sync_p50_us"] = us(median(
        pooled_extra(passes, "client.sync")))
    return out


# ---------------------------------------------------------------------------
# decode / cache
# ---------------------------------------------------------------------------

def decode_cache_layers(workload, passes: Sequence[PassResult]) -> Values:
    service, store = workload.service, workload.store
    cache = service.cache.as_dict()
    queries = service.metrics.outcome_counts().get("SpatialQuery.ok", 0)
    out = {
        "serve.cache.hit_rate": cache["hit_rate"],
        "serve.cache.evictions_per_query": cache["evictions"] / queries,
        "serve.cache.resident_tiles": cache["resident"],
        "serve.cache.lookups": cache["hits"] + cache["misses"],
        "serve.spatial.tiles_scanned_per_query":
            service.spatial_tiles_scanned.value / queries,
        "storage.tilestore.bytes_loaded_per_query":
            sum(pooled_extra(passes, "pack.bytes_served"))
            / sum(p.attempted for p in passes),
    }
    ops = [op for tape in workload.tapes for op in tape]
    radius = tapes.SPATIAL_RADIUS_M
    scheme = store.scheme
    touched = [tile for op in ops for tile in scheme.tiles_for_bounds(
        (op.x - radius, op.y - radius, op.x + radius, op.y + radius))
        if store.contains(tile)][:TILE_TIMING_OPS]
    blobs = {tile: bytes(store.encoded_view(tile)) for tile in set(touched)}
    out["storage.binary.decode_map_us"] = _median_us(
        lambda tile: decode_map(blobs[tile]), touched)
    out["storage.tilestore.load_tile_us"] = _median_us(
        store.load_tile, touched)

    lone = ShardedTileCache(store.load_tile, workload.CACHE_SHARDS,
                            workload.TILES_PER_SHARD)
    hits: List[float] = []
    misses: List[float] = []
    clock = time.perf_counter
    for tile in touched:
        before = lone.misses.value
        t0 = clock()
        lone.get(tile)
        dt = clock() - t0
        (misses if lone.misses.value > before else hits).append(dt)
    out["serve.cache.get_hit_us"] = us(median(hits))
    out["serve.cache.get_miss_us"] = us(median(misses))

    decoded = {tile: decode_map(blob) for tile, blob in blobs.items()}
    homes = [(decoded[scheme.tile_of(op.x, op.y)], op) for op in ops
             if scheme.tile_of(op.x, op.y) in decoded]
    out["core.hdmap.elements_in_radius_us"] = _median_us(
        lambda pair: pair[0].elements_in_radius(pair[1].x, pair[1].y,
                                                radius), homes)
    out["serve.service.spatial_request_us"] = _median_us(
        lambda op: service.request(SpatialQuery(
            x=op.x, y=op.y, radius=radius,
            landmarks_only=op.landmarks_only)), ops)
    return out


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

DISTRIBUTION_ROUNDS = 150
CHANGES_PER_DELTA = 10
PUBLISH_PATCHES = 1500


def _sign_patches(hdmap: HDMap, seed: int, n: int):
    return [tapes.new_sign(tapes.BENCH_SIGN_BASE + k, xy)
            for k, xy in enumerate(tapes.history_tape(seed, hdmap, n))]


def distribution_layers(hdmap: HDMap, seed: int) -> Values:
    """The authoritative database and the delta wire, alone: rounds of
    ten one-sign ingests, one ``delta_since`` of those ten changes, its
    HDDL encode/decode, and one client ``apply_delta``."""
    server = MapDistributionServer(hdmap.copy())
    vehicle = VehicleMapClient(server)
    patches = _sign_patches(hdmap, seed,
                            DISTRIBUTION_ROUNDS * CHANGES_PER_DELTA)
    timings: Dict[str, List[float]] = {k: [] for k in (
        "ingest", "delta_since", "encode", "decode", "apply_delta")}
    wire_bytes = pickle_bytes = 0
    clock = time.perf_counter
    for start in range(0, len(patches), CHANGES_PER_DELTA):
        timings["ingest"].extend(time_calls(
            server.ingest, patches[start:start + CHANGES_PER_DELTA]))
        t0 = clock()
        delta = server.delta_since(vehicle.synced_version)
        t1 = clock()
        blob = encode_delta(delta)
        t2 = clock()
        decoded = decode_delta(blob)
        t3 = clock()
        vehicle.apply_delta(decoded)
        t4 = clock()
        for key, dt in zip(("delta_since", "encode", "decode",
                            "apply_delta"),
                           (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            timings[key].append(dt)
        wire_bytes += len(blob)
        pickle_bytes += len(pickle.dumps(
            delta, protocol=pickle.HIGHEST_PROTOCOL))
    return {
        "update.distribution.ingest_us": us(median(timings["ingest"])),
        "update.distribution.delta_since_us":
            us(median(timings["delta_since"])),
        "update.distribution.apply_delta_us":
            us(median(timings["apply_delta"])),
        "pack.delta.encode_us": us(median(timings["encode"])),
        "pack.delta.decode_us": us(median(timings["decode"])),
        "pack.delta.bytes_per_change": wire_bytes / len(patches),
        "pack.delta.ratio_vs_pickle": wire_bytes / pickle_bytes,
    }


def ingest_layers(workload, passes: Sequence[PassResult]) -> Values:
    stats = workload.last_stats
    observations = stats["observations"]
    batches = stats["batches"]
    offered = observations["published"] + observations["deduplicated"]
    out = {
        f"ingest.stage.{stage}_us": us(snapshot["mean_s"])
        for stage, snapshot in stats["stage_latency"].items()}
    out.update({
        "ingest.pipeline.obs_per_batch":
            observations["processed"] / batches["processed"],
        "ingest.pipeline.retries": batches["retries"],
        "ingest.pipeline.dead_letters": batches["dead_letters"],
        "ingest.bus.dedup_share": observations["deduplicated"] / offered,
        "ingest.pipeline.freshness_p95_ms": ms(stats["freshness"]["p95_s"]),
    })
    prior = workload.tape.scenario.prior
    # A pipeline that is never started is just its bus and publisher.
    idle = tapes.ingest_pipeline(MapDistributionServer(prior.copy()), 1)
    out["ingest.bus.publish_us"] = _median_us(idle.submit,
                                              workload.tape.fresh())
    patches = _sign_patches(prior, workload.seed, PUBLISH_PATCHES)
    engine = ConstraintEngine()
    out["core.validation.check_patch_us"] = _median_us(
        lambda patch: engine.check_patch(prior, patch), patches)
    # No conflation, so every publish does the full gate + ingest.
    idle.publisher.add_conflation_radius = 0.0
    confirmed = [ConfirmedPatch(key=f"macrobench:add:{k}", patch=patch)
                 for k, patch in enumerate(patches)]
    out["ingest.publisher.publish_us"] = _median_us(
        idle.publisher.publish, confirmed)
    out.update(distribution_layers(prior, workload.seed))
    return out


def mixed_layers(workload, passes: Sequence[PassResult]) -> Values:
    out = cluster_counts(workload.router, passes)
    out.update({name: value for name, value in distribution_layers(
        workload.map, workload.seed).items()
        if name.startswith("update.distribution.")})
    return out


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

def cold_start_layers(workload, passes: List[PassResult]) -> Values:
    router, work, hdmap = workload.router, workload.work, workload.map
    pack = work.file("cold.pack")
    TileStore.build(hdmap, tapes.CLUSTER_TILE_SIZE).to_pack(pack)
    out = {
        "pack.format.open_ms":
            _median_ms(lambda _: PackReader(pack).close(), 50),
        "storage.tilestore.from_pack_ms": _median_ms(
            lambda _: TileStore.from_pack(pack).pack_reader.close(), 50),
    }
    spawns = []
    for _ in range(3):
        t0 = time.perf_counter()
        fresh = make_router(hdmap, work.file("spawn.pack"))
        spawns.append(time.perf_counter() - t0)
        fresh.close()
    out["cluster.router.spawn_ms"] = ms(median(spawns))

    out["cluster.router.bootstrap_ms"] = _median_ms(
        lambda _: router.bootstrap(), 8)
    snapshot, _ = router.bootstrap()
    out["cluster.client.bootstrap_encode_ms"] = _median_ms(
        lambda _: encode_map(snapshot), 5)
    server = MapDistributionServer(snapshot)
    out["update.distribution.snapshot_ms"] = _median_ms(
        lambda _: server.snapshot(), 8)
    # What every shard spawn and restart pays for its base subset.
    blob = encode_map(hdmap)
    out["storage.binary.encode_map_ms"] = _median_ms(
        lambda _: encode_map(hdmap), 5)
    out["storage.binary.decode_map_full_ms"] = _median_ms(
        lambda _: decode_map(blob), 5)

    owned = [0] * N_SHARDS
    for entry in router.journal_entries():
        for tile, _op in entry.ops:
            owned[router.owner_of_tile(tile) if tile is not None else 0] += 1
    restarts = PassResult()
    replayed = []
    for k in range(2 * N_SHARDS):
        workload.recover(k % N_SHARDS, restarts)
        replayed.append(owned[k % N_SHARDS])
    out["cluster.router.restart_ms"] = ms(median(restarts.aux))
    out["cluster.shard.replay_entries"] = sum(replayed) / len(replayed)
    passes.append(restarts)  # their answers were checked too
    return out


# ---------------------------------------------------------------------------

LAYERS = {
    "cluster_tile_read": tile_read_layers,
    "local_spatial_drive": decode_cache_layers,
    "ingest_sync": ingest_layers,
    "cluster_mixed_rw": mixed_layers,
    "cold_start_recovery": cold_start_layers,
}


def run_traced(workload, seconds: float):
    """Untraced passes for the counts, then the workload's layers one
    at a time; returns every declared per-layer metric (0 where the
    workload does not reach the layer)."""
    workload.setup()
    workload.run_pass()
    passes = harness.run_passes(workload.run_pass,
                                seconds * UNTRACED_SHARE)
    primary = pooled(passes, "primary")
    values: Values = {
        # Demoted from the end-to-end set (see README): reported where a
        # run has the samples for it, never gated.
        "e2e.latency_p99_ms": ms(quantile(primary, 0.99))
        if len(primary) >= P99_MIN_SAMPLES else 0.0,
    }
    values.update(LAYERS[workload.name](workload, passes))
    problems = workload.finish()
    workload.teardown()

    declared = harness.load_spec()["per_layer"]
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"per-layer metrics not declared in "
                           f"BENCHMARK.json: {sorted(undeclared)}")
    metrics = {m["name"]: metric(float(values.get(m["name"], 0.0)),
                                 m["unit"]) for m in declared}
    detail = {"passes": len(passes),
              "measured": sorted(values)}
    return metrics, detail, passes, problems
