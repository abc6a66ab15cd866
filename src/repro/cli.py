"""Command-line interface: generate, inspect, validate, and route on maps.

Usage::

    python -m repro generate --kind city --seed 7 --out city.json
    python -m repro stats city.json [--tiles] [--tile-size 500]
    python -m repro validate city.json
    python -m repro route city.json --from 100,100 --to 600,400
    python -m repro serve-bench city.json --workers 1,4 --vehicles 8
    python -m repro ingest-bench city.json --workers 1,4 --vehicles 4
    python -m repro chaos-bench city.json --classes sensor,pipeline
    python -m repro cluster-bench city.json --shards 1,2 --check-scaling 1.5
    python -m repro cluster-bench city.json --replicas 1 --pipeline --check-scaling
    python -m repro pack-bench city.json --check --out PACK_BENCH.json
    python -m repro taxonomy
    python -m repro perf-bench --out BENCH_PERF.json
    python -m repro obs export city.json --format prometheus
    python -m repro obs trace --input spans.jsonl [--trace-id ID]
    python -m repro obs top --input spans.jsonl
    python -m repro obs smoke city.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.storage import save_map
    from repro.world import (
        generate_factory_floor,
        generate_grid_city,
        generate_highway,
    )
    from repro.world.hdmapgen import HDMapGenSampler, MapTopologySpec

    rng = np.random.default_rng(args.seed)
    if args.kind == "city":
        hdmap = generate_grid_city(rng, blocks_x=args.size, blocks_y=args.size)
    elif args.kind == "highway":
        hdmap = generate_highway(rng, length=args.size * 1000.0)
    elif args.kind == "factory":
        hdmap = generate_factory_floor(rng, aisles=args.size)
    elif args.kind == "sampled":
        spec = MapTopologySpec(n_junctions=max(4, args.size * 3))
        hdmap = HDMapGenSampler(spec).sample_map(rng)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    n_bytes = save_map(hdmap, args.out)
    print(f"wrote {hdmap.name}: {len(hdmap)} elements, "
          f"{n_bytes / 1024:.1f} KB -> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.storage import TileStore, load_map
    from repro.world.hdmapgen import map_statistics

    hdmap = load_map(args.map)
    stats = map_statistics(hdmap)
    print(f"map: {hdmap.name} (version {hdmap.version})")
    print(f"  elements by kind: {hdmap.counts_by_kind()}")
    print(f"  total lane length: {hdmap.total_lane_length() / 1000:.2f} km")
    print(f"  mean lane length: {stats.mean_lane_length:.1f} m")
    print(f"  mean |curvature|: {stats.mean_abs_curvature:.4f} 1/m")
    print(f"  mean junction degree: {stats.mean_junction_degree:.2f}")
    if args.tiles:
        store = TileStore.build(hdmap, tile_size=args.tile_size)
        n_tiles = len(store.tiles())
        total = store.total_bytes()
        print(f"  tile store ({args.tile_size:.0f} m tiles):")
        print(f"    tiles: {n_tiles}")
        print(f"    blob bytes: {total} "
              f"({total / 1024:.1f} KB, "
              f"{total / max(n_tiles, 1):.0f} B/tile mean)")
        largest = store.largest_tile()
        if largest is not None:
            tile, size = largest
            print(f"    largest tile: {tile} ({size} B)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import Severity, validate_map
    from repro.storage import load_map

    hdmap = load_map(args.map)
    issues = validate_map(hdmap)
    errors = [i for i in issues if i.severity is Severity.ERROR]
    for issue in issues:
        print(f"  {issue}")
    print(f"{len(errors)} error(s), {len(issues) - len(errors)} warning(s)")
    return 1 if errors else 0


def _parse_point(text: str) -> tuple:
    try:
        x, y = text.split(",")
        return float(x), float(y)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' metres, got {text!r}") from None


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.planning import LaneRouter, describe_route, render_guidance
    from repro.storage import load_map

    hdmap = load_map(args.map)
    router = LaneRouter(hdmap)
    result = router.route_between_points(args.start, args.goal)
    length = router.route_length(result)
    print(f"route: {result.n_lanes} lanes, {length:.0f} m driven, "
          f"{result.stats.expansions} nodes expanded")
    print(render_guidance(describe_route(hdmap, result)))
    return 0


def _parse_worker_list(text: str) -> List[int]:
    try:
        workers = [int(w) for w in text.split(",") if w]
        if not workers or any(w < 1 for w in workers):
            raise ValueError
        return workers
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated worker counts, got {text!r}") from None


def _trace_sample_setup(args: argparse.Namespace) -> bool:
    """Enable tracing when the bench asked for a span dump."""
    if not getattr(args, "trace_sample", None):
        return False
    from repro.obs import configure_tracing
    configure_tracing(enabled=True, sample_rate=args.trace_sample_rate,
                      capacity=65536, reset=True)
    return True


def _trace_sample_dump(args: argparse.Namespace) -> None:
    from repro.obs import TRACER
    n = TRACER.recorder.dump_jsonl(args.trace_sample)
    print(f"wrote {n} spans "
          f"({len(TRACER.recorder.trace_ids())} traces, "
          f"sample rate {args.trace_sample_rate}) -> {args.trace_sample}")
    TRACER.configure(enabled=False)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import FleetSimulator, MapService
    from repro.storage import TileStore, load_map
    from repro.update.distribution import MapDistributionServer

    tracing = _trace_sample_setup(args)
    hdmap = load_map(args.map)
    store = TileStore.build(hdmap, tile_size=args.tile_size)
    print(f"serving {hdmap.name}: {len(store.tiles())} tiles, "
          f"{store.total_bytes() / 1024:.1f} KB, "
          f"{args.vehicles} vehicles x {args.route / 1000:.1f} km")
    header = (f"{'workers':>7}  {'throughput':>12}  {'hit rate':>8}  "
              f"{'p95 query':>9}  {'shed':>5}  {'rejected':>8}  "
              f"{'consistent':>10}")
    print(header)
    print("-" * len(header))
    for workers in args.workers:
        server = MapDistributionServer(hdmap.copy())
        service = MapService(server, store, n_workers=workers,
                             service_latency_s=args.service_latency_ms / 1e3,
                             storage_latency_s=args.storage_latency_ms / 1e3)
        with service:
            fleet = FleetSimulator(service, hdmap,
                                   n_vehicles=args.vehicles,
                                   route_length_m=args.route,
                                   sync_every=5, ingest_every=7,
                                   seed=args.seed, trace_requests=tracing)
            report = fleet.run()
        query = report.latency.get("SpatialQuery", {})
        consistent = report.consistency_violations == 0 \
            and report.version_regressions == 0
        print(f"{workers:>7}  {report.throughput_rps:>8.0f} rps  "
              f"{100 * report.cache_hit_rate:>7.1f}%  "
              f"{1e3 * query.get('p95_s', 0.0):>6.1f} ms  "
              f"{report.shed_total:>5}  {report.rejected_total:>8}  "
              f"{'yes' if consistent else 'NO':>10}")
    if tracing:
        _trace_sample_dump(args)
    return 0


def _cmd_ingest_bench(args: argparse.Namespace) -> int:
    import time

    from repro.core.changes import ChangeType
    from repro.ingest import FleetObservationSource, IngestPipeline
    from repro.storage import load_map
    from repro.update.distribution import MapDistributionServer
    from repro.world.scenario import ChangeSpec, apply_changes

    tracing = _trace_sample_setup(args)
    hdmap = load_map(args.map)
    rng = np.random.default_rng(args.seed)
    scenario = apply_changes(
        hdmap, ChangeSpec(remove_signs=args.remove_signs,
                          add_signs=args.add_signs), rng)
    n_true = len(scenario.true_changes)
    print(f"ingesting against {hdmap.name}: {n_true} injected change(s), "
          f"{args.vehicles} vehicles x {args.routes} route(s) x "
          f"{args.route / 1000:.1f} km")
    header = (f"{'workers':>7}  {'published':>9}  {'throughput':>12}  "
              f"{'versions':>8}  {'detected':>8}  {'dedup':>6}  "
              f"{'dead':>4}  {'fresh p95':>9}")
    print(header)
    print("-" * len(header))
    for workers in args.workers:
        server = MapDistributionServer(scenario.prior.copy())
        pipe = IngestPipeline(server, tile_size=args.tile_size,
                              n_workers=workers,
                              n_partitions=max(8, workers),
                              capacity_per_partition=8192,
                              stage_latency_s=args.stage_latency_ms / 1e3)
        source = FleetObservationSource(
            scenario, n_vehicles=args.vehicles,
            route_length_m=args.route, step_s=0.5,
            routes_per_vehicle=args.routes,
            duplicate_rate=args.duplicate_rate, seed=args.seed)
        report = source.run(pipe.submit)
        t0 = time.perf_counter()
        with pipe:
            pipe.drain(120.0)
        elapsed = time.perf_counter() - t0
        changes = server.changes_since(0)
        removed = {c.element_id for c in changes
                   if c.change_type is ChangeType.REMOVED}
        added = [c.position for c in changes
                 if c.change_type is ChangeType.ADDED]
        detected = 0
        for true_change in scenario.true_changes:
            if true_change.change_type is ChangeType.REMOVED:
                detected += true_change.element_id in removed
            else:
                tx, ty = true_change.position
                detected += any(
                    float(np.hypot(tx - ax, ty - ay)) <= 6.0
                    for ax, ay in added)
        stats = pipe.stats()
        print(f"{workers:>7}  {report.published:>9}  "
              f"{report.published / max(elapsed, 1e-9):>8.0f} o/s  "
              f"{server.version:>8}  {detected:>5}/{n_true}  "
              f"{report.deduplicated:>6}  "
              f"{stats['batches']['dead_letters']:>4}  "
              f"{1e3 * stats['freshness']['p95_s']:>6.1f} ms")
    if tracing:
        _trace_sample_dump(args)
    if args.verify:
        return _verify_overhead_gate(hdmap, args.max_verify_overhead,
                                     args.seed)
    return 0


def _verify_overhead_gate(hdmap, max_overhead: float, seed: int) -> int:
    """The CI gate on the constraint verify stage's publish overhead.

    A/B benchmark of the publish hot path: the same stream of clean
    sign-add patches is pushed through an ungated pipeline's publisher
    and a gated one (arms interleaved rep by rep, best run kept, fresh
    servers per run so neither arm benefits from warm state, GC paused
    during the timed loops so a collection landing in one arm doesn't
    masquerade as gate latency). The gated arm must (a) publish every
    clean patch — zero false quarantines — (b) still quarantine an
    obviously corrupt patch, and (c) add at most ``max_overhead``
    relative latency.
    """
    import gc
    import time

    from repro.core.elements import Lane, SignType, TrafficSign
    from repro.core.ids import ElementId
    from repro.core.versioning import MapPatch
    from repro.geometry.polyline import Polyline
    from repro.ingest import ConfirmedPatch, IngestPipeline
    from repro.update.distribution import MapDistributionServer

    n_patches = 1600
    reps = 5
    min_x, min_y, max_x, max_y = hdmap.bounds()

    def build_patches(server):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n_patches):
            sign = TrafficSign(
                id=server.new_element_id("sign"),
                position=np.array([rng.uniform(min_x, max_x),
                                   rng.uniform(min_y, max_y)]),
                sign_type=SignType.DIRECTION)
            patch = MapPatch(source="verify-bench",
                             confidence=0.9).add(sign)
            out.append(ConfirmedPatch(key=f"verify-bench:add:{i}",
                                      patch=patch))
        return out

    chunk = 100  # publishes per timed slice

    def one_run(verify: bool):
        server = MapDistributionServer(hdmap.copy())
        pipe = IngestPipeline(server, n_workers=1, verify=verify)
        # No conflation: every publish must do the full ingest, so
        # both arms measure identical database work.
        pipe.publisher.add_conflation_radius = 0.0
        patches = build_patches(server)
        slices = []
        gc.collect()
        gc.disable()
        try:
            for start in range(0, n_patches, chunk):
                t0 = time.perf_counter()
                for confirmed in patches[start:start + chunk]:
                    pipe.publisher.publish(confirmed)
                slices.append(time.perf_counter() - t0)
            return slices, pipe
        finally:
            gc.enable()

    def measure():
        # Arms are interleaved rep by rep so clock-speed / allocator
        # drift lands on both equally. A run is timed in small slices;
        # per slice index the map state is identical across arms and
        # reps, so taking the per-slice minimum over the reps discards
        # scheduler/frequency transients a whole-run minimum would keep
        # (one hiccup anywhere in a run poisons its total, and a fresh
        # hiccup in every rep is likelier than one in every slice).
        base_best = [float("inf")] * (n_patches // chunk)
        gated_best = list(base_best)
        pipe = None
        for _ in range(reps):
            slices, _ = one_run(verify=False)
            base_best = [min(a, b) for a, b in zip(base_best, slices)]
            slices, pipe = one_run(verify=True)
            gated_best = [min(a, b) for a, b in zip(gated_best, slices)]
        return sum(base_best), sum(gated_best), pipe

    # Noise only ever inflates a measurement (the gate cannot run
    # faster than its true cost), so on an over-budget reading the
    # whole A/B is re-measured and the lowest overhead kept: a real
    # regression stays over budget on every attempt, a background-load
    # spike does not.
    one_run(verify=True)  # warm both code paths before timing
    base_s, gated_s, gated_pipe = measure()
    for _ in range(3):
        if gated_s / base_s - 1.0 <= max_overhead:
            break
        time.sleep(0.5)  # let a background-load burst pass
        nxt_base, nxt_gated, nxt_pipe = measure()
        if nxt_gated / nxt_base < gated_s / base_s:
            base_s, gated_s, gated_pipe = nxt_base, nxt_gated, nxt_pipe
    stats = gated_pipe.stats()["verify"]
    overhead = gated_s / base_s - 1.0
    print(f"verify gate: {n_patches} clean publishes "
          f"ungated {base_s * 1e3:.1f} ms, gated {gated_s * 1e3:.1f} ms "
          f"-> overhead {overhead * 100:+.1f}% "
          f"(budget {max_overhead * 100:.0f}%)")
    failures = []
    if stats["quarantined"] != 0:
        failures.append(f"{stats['quarantined']} clean patch(es) "
                        f"falsely quarantined")
    if stats["passed"] != n_patches:
        failures.append(f"only {stats['passed']}/{n_patches} clean "
                        f"patch(es) passed the gate")
    # Sanity: the gate that just ran must still reject corrupt geometry.
    corrupt = MapPatch(source="verify-bench", confidence=0.9).add(Lane(
        id=ElementId("lane", 990_000),
        centerline=Polyline(np.array([[0.0, 0.0], [0.2, 0.0]])),
        left_boundary=ElementId("boundary", 990_000),
        right_boundary=ElementId("boundary", 990_001),
        width=0.4, speed_limit=13.9))
    result = gated_pipe.publisher.publish(
        ConfirmedPatch(key="verify-bench:corrupt", patch=corrupt))
    if not result.quarantined:
        failures.append("corrupt patch was not quarantined")
    if overhead > max_overhead:
        failures.append(f"verify overhead {overhead * 100:.1f}% exceeds "
                        f"the {max_overhead * 100:.0f}% budget")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"verify gate ok: clean publishes unharmed, corrupt patch "
              f"quarantined ({len(gated_pipe.verify_gate.quarantine)} "
              f"record(s))")
    return 1 if failures else 0


def _obs_workload(map_path: str, seed: int):
    """Run one small fully-traced serve+ingest workload.

    Everything registers into one :class:`MetricsRegistry` (serve, ingest,
    perf kernels, log counters); tracing runs at sample rate 1.0 into a
    ring large enough that nothing wraps. Returns the registry — the
    recorder/event log are the global ones on ``repro.obs``.
    """
    from repro.ingest import FleetObservationSource, IngestPipeline
    from repro.obs import (
        EVENT_LOG,
        MetricsRegistry,
        configure_tracing,
        register_perf_registry,
    )
    from repro.perf.instrument import REGISTRY as PERF_REGISTRY
    from repro.serve import FleetSimulator, MapService
    from repro.storage import TileStore, load_map
    from repro.update.distribution import MapDistributionServer
    from repro.world.scenario import ChangeSpec, apply_changes

    hdmap = load_map(map_path)
    rng = np.random.default_rng(seed)
    scenario = apply_changes(
        hdmap, ChangeSpec(remove_signs=1, add_signs=1), rng)

    registry = MetricsRegistry()
    EVENT_LOG.register_into(registry)
    configure_tracing(enabled=True, sample_rate=1.0, capacity=65536,
                      reset=True)
    PERF_REGISTRY.enable()
    register_perf_registry(registry, PERF_REGISTRY)

    server = MapDistributionServer(scenario.prior.copy())
    store = TileStore.build(scenario.prior, tile_size=250.0)
    pipe = IngestPipeline(server, tile_size=250.0, n_workers=2)
    pipe.register_into(registry)
    source = FleetObservationSource(scenario, n_vehicles=2,
                                    route_length_m=600.0, step_s=1.0,
                                    seed=seed)
    with pipe:
        source.run(pipe.submit)
        pipe.drain(30.0)
    service = MapService(server, store, n_workers=2, registry=registry)
    with service:
        FleetSimulator(service, scenario.prior, n_vehicles=2,
                       route_length_m=400.0, sync_every=3, ingest_every=5,
                       seed=seed, trace_requests=True).run()
    PERF_REGISTRY.disable()
    return registry


def _cmd_obs_export(args: argparse.Namespace) -> int:
    registry = _obs_workload(args.map, args.seed)
    if args.format == "json":
        print(registry.to_json())
    else:
        print(registry.to_prometheus(), end="")
    from repro.obs import TRACER
    TRACER.configure(enabled=False)
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs import format_trace, load_spans_jsonl, verify_spans

    spans = load_spans_jsonl(args.input)
    by_trace: dict = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    if getattr(args, "cluster", False):
        # Cluster mode: keep only traces that actually crossed a process
        # boundary (a router-side cluster.* span plus a shard-side span
        # merged by the telemetry harvester), and treat any structural
        # violation in them as a hard failure — a broken parent chain
        # here means propagation or merging regressed.
        def _cross_process(trace_spans: list) -> bool:
            has_router = any(str(s["name"]).startswith("cluster.")
                             for s in trace_spans)
            has_shard = any("role" in (s.get("attrs") or {})
                            for s in trace_spans)
            return has_router and has_shard

        by_trace = {tid: ts for tid, ts in by_trace.items()
                    if _cross_process(ts)}
        problems = [p for tid, ts in by_trace.items()
                    for p in verify_spans(ts)]
        if problems:
            for problem in problems:
                print(f"OBS TRACE FAILED: {problem}", file=sys.stderr)
            return 1
        if not by_trace:
            print("(no cross-process cluster traces)", file=sys.stderr)
            return 1
    if not by_trace:
        print("(no spans)")
        return 0
    if args.trace_id is not None:
        if args.trace_id not in by_trace:
            print(f"trace {args.trace_id!r} not found "
                  f"({len(by_trace)} traces in {args.input})",
                  file=sys.stderr)
            return 1
        wanted = [args.trace_id]
    else:
        wanted = list(by_trace)[:args.limit]
    for trace_id in wanted:
        print(f"trace {trace_id} ({len(by_trace[trace_id])} spans)")
        print(format_trace(by_trace[trace_id]))
        print()
    print(f"{len(by_trace)} trace(s), {len(spans)} span(s) total")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from collections import defaultdict

    from repro.obs import load_spans_jsonl

    spans = load_spans_jsonl(args.input)
    agg = defaultdict(lambda: [0, 0.0, 0.0])  # count, total_s, max_s
    for span in spans:
        entry = agg[span["name"]]
        duration = float(span.get("duration_s") or 0.0)
        entry[0] += 1
        entry[1] += duration
        entry[2] = max(entry[2], duration)
    header = (f"{'span':<28} {'count':>6} {'total':>10} "
              f"{'mean':>10} {'max':>10}")
    print(header)
    print("-" * len(header))
    ranked = sorted(agg.items(), key=lambda kv: kv[1][1], reverse=True)
    for name, (count, total, peak) in ranked[:args.limit]:
        print(f"{name:<28} {count:>6} {1e3 * total:>8.2f}ms "
              f"{1e3 * total / count:>8.3f}ms {1e3 * peak:>8.3f}ms")
    return 0


def _cmd_obs_smoke(args: argparse.Namespace) -> int:
    """CI gate: traced workload, valid export, no broken spans."""
    from repro.obs import TRACER, validate_prometheus_text, verify_spans

    registry = _obs_workload(args.map, args.seed)
    failures: List[str] = []

    text = registry.to_prometheus()
    failures += [f"prometheus: {p}" for p in validate_prometheus_text(text)]
    from repro.obs.metrics import _prom_name
    exported = {line.split("{")[0].split(" ")[0]
                for line in text.splitlines()
                if line and not line.startswith("#")}
    for name in registry.names():
        pname = _prom_name(name)
        if not any(e == pname or e.startswith(pname + "_")
                   for e in exported):
            failures.append(f"metric {name!r} missing from export")
    for prefix in ("serve.", "ingest.", "perf.", "log."):
        if not any(n.startswith(prefix) for n in registry.names()):
            failures.append(f"no {prefix}* metrics registered")

    spans = [s.as_dict() for s in TRACER.recorder.spans()]
    if not spans:
        failures.append("no spans recorded")
    failures += [f"trace: {p}" for p in verify_spans(spans)]
    if TRACER.recorder.dropped:
        failures.append(
            f"span ring wrapped ({TRACER.recorder.dropped} dropped)")

    n_traces = len(TRACER.recorder.trace_ids())
    TRACER.configure(enabled=False)
    if failures:
        for failure in failures:
            print(f"OBS SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"obs smoke passed: {len(registry.names())} metrics exported, "
          f"{len(spans)} spans across {n_traces} traces, all parented")
    return 0


def _cmd_chaos_bench(args: argparse.Namespace) -> int:
    """Certify graceful degradation under the curated fault matrix."""
    from repro.chaos import (
        ChaosHarness,
        ChaosWorkload,
        ClusterChaosHarness,
        ClusterWorkload,
        FaultPlan,
    )
    from repro.chaos.faults import FAULT_CLASSES, curated_matrix
    from repro.storage import load_map

    hdmap = load_map(args.map)
    wanted = None if args.classes == "all" else \
        {c.strip() for c in args.classes.split(",") if c.strip()}
    if wanted is not None:
        unknown = wanted - set(FAULT_CLASSES)
        if unknown:
            print(f"unknown fault class(es): {', '.join(sorted(unknown))} "
                  f"(choose from {', '.join(FAULT_CLASSES)})",
                  file=sys.stderr)
            return 2
    workload = ChaosWorkload(vehicles=args.vehicles,
                             routes_per_vehicle=args.routes,
                             route_length_m=args.route, seed=args.seed)
    cluster_workload = ClusterWorkload(
        transport=args.shard_transport, seed=args.seed,
        trace_sample_rate=args.trace_sample_rate)
    print(f"chaos matrix against {hdmap.name} "
          f"(seed {args.seed}, {args.vehicles} vehicles x {args.routes} "
          f"route(s) x {args.route / 1000:.1f} km)")
    failures = 0
    ran_shard = False
    for fault_class, plan in curated_matrix(args.seed):
        if wanted is not None and fault_class not in wanted:
            continue
        if fault_class == "shard":
            # the cluster layer has its own harness: shard crashes, slow
            # shards, and rebalances against a live ClusterRouter.
            cluster_harness = ClusterChaosHarness(
                hdmap, plan, workload=cluster_workload,
                freshness_bound_s=args.freshness_bound_s)
            report = cluster_harness.run(fault_class)
            ran_shard = True
        else:
            harness = ChaosHarness(hdmap, plan, workload=workload,
                                   freshness_bound_s=args.freshness_bound_s)
            report = harness.run(fault_class)
        print(report.format())
        if not report.certify():
            failures += len(report.violations())
    if not args.skip_parity:
        if wanted is None or wanted - {"shard"}:
            harness = ChaosHarness(hdmap, FaultPlan.none(args.seed),
                                   workload=workload,
                                   freshness_bound_s=args.freshness_bound_s)
            report = harness.run("parity")
            chaos_bytes = harness.final_map_bytes()
            plain_bytes = harness.run_plain()
            identical = chaos_bytes == plain_bytes
            print(f"parity: inert chaos run vs plain pipeline -> "
                  f"{'byte-identical' if identical else 'MISMATCH'} "
                  f"({len(chaos_bytes)} B)")
            if not identical or not report.certify():
                failures += 1
        if ran_shard:
            cluster_harness = ClusterChaosHarness(
                hdmap, FaultPlan.none(args.seed),
                workload=cluster_workload,
                freshness_bound_s=args.freshness_bound_s)
            report = cluster_harness.run("shard-parity")
            cluster_bytes = cluster_harness.final_map_bytes()
            plain_bytes = cluster_harness.run_plain()
            identical = cluster_bytes == plain_bytes
            print(f"parity: inert cluster run vs single-node service -> "
                  f"{'byte-identical' if identical else 'MISMATCH'} "
                  f"({len(cluster_bytes)} B)")
            if not identical or not report.certify():
                failures += 1
    if failures:
        print(f"CHAOS BENCH FAILED: {failures} violation(s)",
              file=sys.stderr)
        return 1
    print("chaos bench passed: all invariants certified")
    return 0


def _cluster_read_throughput(router, requests: int,
                             clients: int) -> tuple:
    """Aggregate encoded-GetTile req/s against a live router.

    Clients are pinned to one shard and walk *disjoint* subsets of its
    tiles, so two clients never issue the same tile concurrently — the
    router's single-flight coalescing cannot share responses and the
    number measures backend capacity, nothing else.
    """
    import threading

    from repro.serve.api import GetTile

    by_shard: dict = {}
    for tile in router.tiles():
        by_shard.setdefault(router.owner_of_tile(tile), []).append(tile)
    shard_tiles = [by_shard[s] for s in sorted(by_shard)]
    n_lists = len(shard_tiles)
    errors = [0] * clients
    done = [0] * clients
    share = [requests // clients] * clients
    for i in range(requests % clients):
        share[i] += 1

    def worker(me: int) -> None:
        tiles = shard_tiles[me % n_lists]
        rank = me // n_lists
        peers = len(range(me % n_lists, clients, n_lists))
        mine = tiles[rank % len(tiles)::peers] or \
            [tiles[rank % len(tiles)]]
        for k in range(share[me]):
            tile = mine[k % len(mine)]
            response = router.request(GetTile(tile=tile, encoded=True))
            if not response.ok:
                errors[me] += 1
            done[me] += 1

    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    throughput = sum(done) / elapsed if elapsed > 0 else 0.0
    return throughput, sum(errors), elapsed


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Sweep shard counts; optionally gate the concurrent read path.

    The sweep measures aggregate encoded-GetTile throughput per shard
    count (pipelined connections, so N shards x W workers concurrent
    requests overlap their simulated service cost). ``--pipeline`` adds
    the read-path suite: replica read scaling vs the legacy lockstep
    baseline, concurrent vs serial scatter-gather, and single-flight
    GetTile coalescing with byte-parity. ``--trace-sample-rate`` adds
    the telemetry-plane suite: interleaved traced/untraced read rounds
    bound the sampling overhead, and a guaranteed-sampled request must
    reconstruct as one merged cross-process span tree after a telemetry
    harvest. ``--check-scaling`` turns the measured ratios into hard
    gates; every number lands in ``--out``.
    """
    import json
    import threading

    from repro.cluster import ClusterRouter
    from repro.serve.api import ChangesSince, GetTile
    from repro.storage import load_map

    hdmap = load_map(args.map)
    latency_s = args.service_latency_ms / 1e3
    check = args.check_scaling is not None
    sweep_gate = args.check_scaling if check and args.check_scaling > 0 \
        else 1.5
    failures: List[str] = []
    report: dict = {
        "map": hdmap.name, "transport": args.transport,
        "service_latency_ms": args.service_latency_ms,
        "requests": args.requests, "clients": args.clients,
        "sweep": [], "gates": {},
    }

    # -- shard-count sweep ----------------------------------------------
    print(f"cluster GetTile sweep against {hdmap.name} "
          f"({args.requests} requests, {args.clients} client(s), "
          f"{args.service_latency_ms:g} ms simulated service cost, "
          f"transport={args.transport})")
    print(f"{'shards':>6} {'errors':>7} {'elapsed':>9} "
          f"{'throughput':>12}")
    results: List[tuple] = []
    for n_shards in args.shards:
        router = ClusterRouter(
            hdmap, n_shards=n_shards, tile_size=args.tile_size,
            replicas=args.replicas, transport=args.transport,
            n_workers=args.workers, service_latency_s=latency_s)
        try:
            throughput, failed, elapsed = _cluster_read_throughput(
                router, args.requests, args.clients)
        finally:
            router.close()
        results.append((n_shards, throughput, failed))
        report["sweep"].append({"shards": n_shards,
                                "throughput_rps": round(throughput, 1),
                                "errors": failed,
                                "elapsed_s": round(elapsed, 3)})
        print(f"{n_shards:>6} {failed:>7} {elapsed:>8.2f}s "
              f"{throughput:>9.1f} req/s")
    if any(failed for _, _, failed in results):
        failures.append("request errors during the shard sweep")
    if check and len(results) >= 2:
        base_shards, base_tp, _ = results[0]
        peak_shards, peak_tp, _ = max(results[1:], key=lambda r: r[1])
        factor = peak_tp / base_tp if base_tp > 0 else 0.0
        report["gates"]["sweep_scaling"] = {
            "factor": round(factor, 2), "required": sweep_gate}
        print(f"scaling: {peak_shards} shard(s) vs {base_shards} -> "
              f"{factor:.2f}x (required >= {sweep_gate:g}x)")
        if factor < sweep_gate:
            failures.append(f"shard scaling {factor:.2f}x below "
                            f"{sweep_gate:g}x")

    # -- pipelined read-path suite --------------------------------------
    if args.pipeline:
        # 1. Replica read scaling: 1 replica/shard with pipelining vs
        # the replica-less legacy lockstep router at equal shard count.
        n_shards = 2
        clients = max(args.clients, 16)
        print(f"replica read scaling: {n_shards} shard(s), {clients} "
              f"client(s), {args.requests} requests per mode")
        baseline_rps = replicated_rps = 0.0
        for label, kwargs in (
                ("baseline", dict(replicas=0, pipeline=False)),
                ("1 replica", dict(replicas=1, pipeline=True,
                                   replica_reads=True))):
            router = ClusterRouter(
                hdmap, n_shards=n_shards, tile_size=args.tile_size,
                transport=args.transport, n_workers=args.workers,
                service_latency_s=latency_s, **kwargs)
            try:
                rps, failed, _ = _cluster_read_throughput(
                    router, args.requests, clients)
                hits = router.replica_hits.value
            finally:
                router.close()
            if failed:
                failures.append(f"replica suite: {failed} error(s) "
                                f"({label})")
            if label == "baseline":
                baseline_rps = rps
            else:
                replicated_rps = rps
            print(f"  {label:>10}: {rps:>9.1f} req/s"
                  + (f"  (replica_hits={hits})" if hits else ""))
        replica_speedup = replicated_rps / baseline_rps \
            if baseline_rps > 0 else 0.0
        report["gates"]["replica_speedup"] = {
            "baseline_rps": round(baseline_rps, 1),
            "replicated_rps": round(replicated_rps, 1),
            "factor": round(replica_speedup, 2),
            "required": args.min_replica_speedup}
        print(f"  replica speedup: {replica_speedup:.2f}x "
              f"(required >= {args.min_replica_speedup:g}x)")
        if check and replica_speedup < args.min_replica_speedup:
            failures.append(f"replica speedup {replica_speedup:.2f}x "
                            f"below {args.min_replica_speedup:g}x")

        # 2 + 3. Scatter-gather and coalescing share one slow-handler
        # router: every shard call pays the simulated service cost, so
        # serial broadcasts cost ~shards x latency while concurrent
        # ones cost ~1 x, and concurrent identical GetTiles overlap
        # long enough to coalesce. Six shards put the ideal speedup at
        # 6x — comfortable margin over the 3x gate on noisy runners.
        scatter_shards = 6
        router = ClusterRouter(
            hdmap, n_shards=scatter_shards, tile_size=args.tile_size,
            transport=args.transport, n_workers=args.workers,
            service_latency_s=latency_s)
        try:
            broadcasts = 10
            timings = {}
            # Concurrent first: it pays any warmup, which only flatters
            # the serial baseline — conservative for the gate.
            for mode in ("concurrent", "serial"):
                router.scatter = mode
                t0 = time.perf_counter()
                for _ in range(broadcasts):
                    response = router.request(ChangesSince(since_version=0))
                    if not response.ok:
                        failures.append(f"scatter suite: {response.error}")
                timings[mode] = time.perf_counter() - t0
            router.scatter = "concurrent"
            scatter_speedup = timings["serial"] / timings["concurrent"] \
                if timings["concurrent"] > 0 else 0.0
            report["gates"]["scatter_speedup"] = {
                "serial_s": round(timings["serial"], 3),
                "concurrent_s": round(timings["concurrent"], 3),
                "factor": round(scatter_speedup, 2),
                "required": args.min_scatter_speedup}
            print(f"scatter-gather ({broadcasts} ChangesSince broadcasts "
                  f"over {scatter_shards} shards): serial "
                  f"{timings['serial']:.2f}s, concurrent "
                  f"{timings['concurrent']:.2f}s -> "
                  f"{scatter_speedup:.2f}x "
                  f"(required >= {args.min_scatter_speedup:g}x)")
            if check and scatter_speedup < args.min_scatter_speedup:
                failures.append(f"scatter speedup {scatter_speedup:.2f}x "
                                f"below {args.min_scatter_speedup:g}x")

            # Coalescing byte-parity: identical concurrent encoded
            # GetTiles must collapse onto one flight and every caller
            # must see byte-identical payloads — including a fresh
            # uncoalesced read afterwards.
            tile = router.tiles()[0]
            burst = 8
            payloads: List[object] = [None] * burst

            def one(slot: int) -> None:
                response = router.request(GetTile(tile=tile, encoded=True))
                payloads[slot] = response.payload if response.ok else None

            threads = [threading.Thread(target=one, args=(s,))
                       for s in range(burst)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            solo = router.request(GetTile(tile=tile, encoded=True))
            reference = solo.payload if solo.ok else None
            divergent = sum(1 for p in payloads
                            if p is None or bytes(p) != bytes(reference))
            coalesced = router.read_coalesced.value
            report["gates"]["coalesce"] = {
                "burst": burst, "coalesced": coalesced,
                "divergent": divergent}
            print(f"coalescing: {burst} identical concurrent GetTiles -> "
                  f"{coalesced} coalesced, {divergent} divergent payload(s)")
            if divergent:
                failures.append(f"{divergent} coalesced response(s) "
                                f"diverged from the uncoalesced payload")
            if check and coalesced == 0:
                failures.append("no requests coalesced during the burst")
        finally:
            router.close()

    # -- telemetry-plane suite: tracing overhead + merged-tree check ----
    if args.trace_sample_rate is not None:
        import statistics

        from repro.obs import TRACER, configure_tracing, verify_spans

        n_shards = args.shards[-1]
        rounds = 3
        round_requests = max(100, args.requests // 2)
        print(f"tracing suite: {n_shards} shard(s), sample rate "
              f"{args.trace_sample_rate:g}, {rounds} interleaved "
              f"round(s) x {round_requests} requests per mode")
        configure_tracing(enabled=False, reset=True)
        router = ClusterRouter(
            hdmap, n_shards=n_shards, tile_size=args.tile_size,
            replicas=args.replicas, transport=args.transport,
            n_workers=args.workers, service_latency_s=latency_s,
            telemetry_interval_s=0.25)
        overhead = 0.0
        try:
            # Warm every connection and cache path once, then interleave
            # traced/untraced rounds so drift hits both modes equally.
            _cluster_read_throughput(router, round_requests, args.clients)
            elapsed: dict = {"off": [], "on": []}
            for _ in range(rounds):
                for mode in ("off", "on"):
                    if mode == "on":
                        configure_tracing(
                            enabled=True,
                            sample_rate=args.trace_sample_rate)
                    else:
                        TRACER.configure(enabled=False)
                    _, failed, took = _cluster_read_throughput(
                        router, round_requests, args.clients)
                    if failed:
                        failures.append(
                            f"tracing suite: {failed} error(s) ({mode})")
                    elapsed[mode].append(took)
            off_s = statistics.median(elapsed["off"])
            on_s = statistics.median(elapsed["on"])
            overhead = on_s / off_s - 1.0 if off_s > 0 else 0.0

            # One guaranteed-sampled GetTile, then a harvest: the merged
            # recorder must reconstruct the full cross-process chain.
            configure_tracing(enabled=True, sample_rate=1.0)
            tile = router.tiles()[0]
            response = router.request(GetTile(tile=tile, encoded=True))
            if not response.ok:
                failures.append(f"tracing suite: {response.error}")
            TRACER.set_sample_rate(args.trace_sample_rate)
            router.harvest_telemetry()
            spans = [s.as_dict() for s in TRACER.recorder.spans()]
            trace_problems = verify_spans(spans)
            by_id = {s["span_id"]: s for s in spans}

            def _router_root(span: dict) -> bool:
                while span.get("parent_id") in by_id:
                    span = by_id[span["parent_id"]]
                return str(span["name"]).startswith("cluster.request.") \
                    and span.get("parent_id") is None

            chained = [
                s for s in spans
                if s["name"] == "serve.request.GetTile"
                and by_id.get(s.get("parent_id"), {}).get("name")
                == "shard.serve"
                and _router_root(s)]
            has_rpc = any(s["name"] == "cluster.rpc.serve" for s in spans)
            if trace_problems:
                failures += [f"tracing suite: {p}" for p in trace_problems]
            if not (chained and has_rpc):
                failures.append(
                    "tracing suite: no merged trace chains "
                    "serve.request.GetTile -> shard.serve -> "
                    "cluster.rpc.serve -> cluster.request.*")
            report["gates"]["trace_overhead"] = {
                "off_s": round(off_s, 4), "on_s": round(on_s, 4),
                "overhead": round(overhead, 4),
                "required_max": args.max_trace_overhead,
                "merged_spans": len(spans),
                "harvests": router.telemetry_harvests.value,
                "harvested_spans": router.telemetry_spans.value,
                "dropped": router.telemetry_dropped.value}
            print(f"  traced {on_s:.3f}s vs untraced {off_s:.3f}s -> "
                  f"{100 * overhead:+.1f}% overhead (allowed <= "
                  f"{100 * args.max_trace_overhead:g}%), "
                  f"{len(spans)} merged span(s), "
                  f"{router.telemetry_harvests.value} harvest(s)")
            if check and overhead > args.max_trace_overhead:
                failures.append(
                    f"tracing overhead {100 * overhead:.1f}% above "
                    f"{100 * args.max_trace_overhead:g}%")
            if args.trace_sample is not None:
                with open(args.trace_sample, "w") as fh:
                    for span in spans:
                        fh.write(json.dumps(span, sort_keys=True,
                                            default=str) + "\n")
                print(f"  merged span dump -> {args.trace_sample}")
        finally:
            router.close()
            configure_tracing(enabled=False, reset=True)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"report -> {args.out}")
    if failures:
        for failure in failures:
            print(f"CLUSTER BENCH FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_pack_bench(args: argparse.Namespace) -> int:
    """Gate the pack store's serving claims with measured numbers.

    Four checks, all written into the JSON artifact and enforced under
    ``--check``:

    - bytes/tile of the packed base map stays under the ceiling;
    - an encoded GetTile answered from the pack is a zero-copy slice of
      the mmap (its throughput is reported, not gated);
    - a synthetic pack with at least ``--target-elements`` elements
      cold-starts (open + one tile decode) inside the budget, with
      exactly one decode — proof there is no hidden full-map decode;
    - the binary delta wire format stays under the required fraction of
      the pickled SyncDelta.
    """
    import json
    import os
    import pickle
    import tempfile

    from repro.core import MapPatch, SignType, TrafficSign
    from repro.core.tiles import TileId
    from repro.pack import PackReader, PackWriter, encode_delta
    from repro.serve.api import GetTile
    from repro.serve.service import MapService
    from repro.storage import TileStore, load_map
    from repro.storage.tilestore import _count_elements
    from repro.update.distribution import MapDistributionServer

    hdmap = load_map(args.map)
    store = TileStore.build(hdmap, tile_size=args.tile_size)
    tiles = store.tiles()
    if not tiles:
        print("PACK BENCH FAILED: map has no tiles", file=sys.stderr)
        return 1
    bytes_per_tile = store.total_bytes() / len(tiles)

    with tempfile.TemporaryDirectory(prefix="pack-bench-") as workdir:
        pack_path = os.path.join(workdir, "base.pack")
        store.to_pack(pack_path)
        print(f"packed {hdmap.name}: {len(tiles)} tiles, "
              f"{bytes_per_tile / 1024:.1f} KB/tile, "
              f"{os.path.getsize(pack_path) / 1024:.1f} KB pack file")

        # -- encoded-GetTile throughput from pack slices ----------------
        packed = TileStore.from_pack(pack_path)
        requests = [GetTile(tile=tiles[i % len(tiles)], encoded=True)
                    for i in range(args.requests)]
        server = MapDistributionServer(hdmap.copy())
        with packed.pack_reader, \
                MapService(server, packed, n_workers=args.workers) as service:
            t0 = time.perf_counter()
            for request in requests:
                response = service.request(request)
                assert response.ok, response.error
            pack_tps = args.requests / (time.perf_counter() - t0)
            response = service.request(GetTile(tile=tiles[0], encoded=True))
            zero_copy = isinstance(response.payload, memoryview) \
                and response.payload.obj is packed.pack_reader.buffer.obj
            del response  # a live view would keep the mmap open past close
        print(f"encoded GetTile: pack {pack_tps:,.0f} req/s "
              f"(zero-copy payload: {zero_copy})")

        # -- cold start of a >= target-elements pack --------------------
        big_path = os.path.join(workdir, "big.pack")
        blob = store.encoded_view(max(tiles, key=store.blob_bytes))
        per_blob = max(1, _count_elements(blob))
        n_copies = max(1, -(-args.target_elements // per_blob))
        with PackWriter(big_path, tile_size=args.tile_size) as writer:
            for i in range(n_copies):
                writer.add(TileId(i % 4096, i // 4096), blob,
                           n_elements=per_blob)
            writer.publish()
        t0 = time.perf_counter()
        reader = PackReader(big_path)
        shard = reader.load(reader.tiles()[0])
        cold_start_s = time.perf_counter() - t0
        cold_elements = reader.total_elements
        cold_decodes = int(reader.decodes.value)
        assert shard is not None
        reader.close()
        print(f"cold start: {cold_elements:,} elements "
              f"({os.path.getsize(big_path) / 1e6:.1f} MB pack) open + one "
              f"tile decode in {cold_start_s * 1e3:.1f} ms, "
              f"{cold_decodes} decode(s)")

    # -- delta wire vs pickled SyncDelta --------------------------------
    working = hdmap.copy()
    delta_server = MapDistributionServer(working)
    rng = np.random.default_rng(0)
    for i in range(args.delta_ops):
        patch = MapPatch(source=f"probe-{i}", confidence=0.9)
        x, y = rng.uniform(0, 500, size=2)
        patch.add(TrafficSign(id=working.new_id(f"pb{i}-sign"),
                              position=np.array([x, y]),
                              sign_type=SignType.STOP))
        delta_server.ingest(patch)
    delta = delta_server.delta_since(0)
    wire_bytes = len(encode_delta(delta))
    pickle_bytes = len(pickle.dumps(delta,
                                    protocol=pickle.HIGHEST_PROTOCOL))
    delta_ratio = wire_bytes / pickle_bytes
    print(f"delta wire: {wire_bytes} B vs {pickle_bytes} B pickled "
          f"({args.delta_ops} changes) -> ratio {delta_ratio:.3f}")

    report = {
        "map": hdmap.name,
        "tiles": len(tiles),
        "bytes_per_tile": bytes_per_tile,
        "pack_tps": pack_tps,
        "zero_copy": zero_copy,
        "cold_start_s": cold_start_s,
        "cold_elements": cold_elements,
        "cold_decodes": cold_decodes,
        "delta_wire_bytes": wire_bytes,
        "delta_pickle_bytes": pickle_bytes,
        "delta_ratio": delta_ratio,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        if bytes_per_tile > args.max_bytes_per_tile:
            failures.append(f"bytes/tile {bytes_per_tile:.0f} above "
                            f"{args.max_bytes_per_tile:.0f}")
        if not zero_copy:
            failures.append("encoded GetTile payload is not a pack "
                            "mmap slice")
        if cold_elements < args.target_elements:
            failures.append(f"cold pack holds {cold_elements:,} elements "
                            f"< {args.target_elements:,}")
        if cold_start_s > args.cold_start_budget_s:
            failures.append(f"cold start {cold_start_s:.2f}s above "
                            f"{args.cold_start_budget_s:g}s")
        if cold_decodes != 1:
            failures.append(f"cold start decoded {cold_decodes} tiles "
                            "(expected exactly 1)")
        if delta_ratio > args.max_delta_ratio:
            failures.append(f"delta ratio {delta_ratio:.3f} above "
                            f"{args.max_delta_ratio:g}")
        if failures:
            for failure in failures:
                print(f"PACK BENCH FAILED: {failure}", file=sys.stderr)
            return 1
        print("pack bench passed: all bounds met")
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro import taxonomy

    print(taxonomy.render_table())
    return 0


def _cmd_perf_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        HEADLINE_KERNELS,
        check_baseline,
        load_report,
        run_perf_suite,
        write_report,
    )

    results, speedups, counters = run_perf_suite(
        repetitions=args.repetitions, warmup=args.warmup)

    print(f"{'kernel':<28} {'median':>10} {'p95':>10} {'reps':>5}")
    for result in results:
        print(f"{result.name:<28} {1e3 * result.median_s:>8.3f}ms "
              f"{1e3 * result.p95_s:>8.3f}ms {len(result.samples_s):>5}")
    print()
    for name, factor in sorted(speedups.items()):
        print(f"speedup {name:<28} {factor:>6.2f}x")

    report = write_report(args.out, results, speedups=speedups,
                          counters=counters)
    print(f"\nwrote {args.out}")

    if args.check_baseline:
        baseline = load_report(args.check_baseline)
        failures = check_baseline(report, baseline, HEADLINE_KERNELS,
                                  max_regression=args.max_regression)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check passed for {len(HEADLINE_KERNELS)} headline "
              f"kernels (limit {args.max_regression}x)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HD-map ecosystem reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic HD map")
    gen.add_argument("--kind", choices=("city", "highway", "factory",
                                        "sampled"), default="city")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, default=4,
                     help="blocks (city), km (highway), aisles (factory), "
                          "scale (sampled)")
    gen.add_argument("--out", required=True, help="output GeoJSON path")
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarize a map file")
    stats.add_argument("map")
    stats.add_argument("--tiles", action="store_true",
                       help="also report tile-store serving capacity")
    stats.add_argument("--tile-size", type=float, default=500.0,
                       help="tile edge length in metres (with --tiles)")
    stats.set_defaults(func=_cmd_stats)

    val = sub.add_parser("validate", help="run integrity checks")
    val.add_argument("map")
    val.set_defaults(func=_cmd_validate)

    route = sub.add_parser("route", help="lane-level route between points")
    route.add_argument("map")
    route.add_argument("--from", dest="start", type=_parse_point,
                       required=True, metavar="X,Y")
    route.add_argument("--to", dest="goal", type=_parse_point,
                       required=True, metavar="X,Y")
    route.set_defaults(func=_cmd_route)

    bench = sub.add_parser(
        "serve-bench",
        help="load-test the serving layer with a synthetic fleet")
    bench.add_argument("map")
    bench.add_argument("--workers", type=_parse_worker_list, default=[1, 4],
                       metavar="N,M,...",
                       help="worker-pool sizes to sweep (default 1,4)")
    bench.add_argument("--vehicles", type=int, default=8)
    bench.add_argument("--route", type=float, default=2000.0,
                       help="route length per vehicle, metres")
    bench.add_argument("--tile-size", type=float, default=250.0)
    bench.add_argument("--service-latency-ms", type=float, default=2.0,
                       help="simulated per-request network/serialization cost")
    bench.add_argument("--storage-latency-ms", type=float, default=2.0,
                       help="simulated blob-fetch cost on tile cache misses")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--trace-sample", metavar="PATH",
                       help="enable tracing and dump sampled spans (JSONL)")
    bench.add_argument("--trace-sample-rate", type=float, default=0.05,
                       help="root-span sampling rate with --trace-sample")
    bench.set_defaults(func=_cmd_serve_bench)

    ingest = sub.add_parser(
        "ingest-bench",
        help="stream a synthetic fleet through the ingest pipeline")
    ingest.add_argument("map")
    ingest.add_argument("--workers", type=_parse_worker_list, default=[1, 4],
                        metavar="N,M,...",
                        help="stage-worker pool sizes to sweep (default 1,4)")
    ingest.add_argument("--vehicles", type=int, default=4)
    ingest.add_argument("--routes", type=int, default=3,
                        help="routes per vehicle (coverage)")
    ingest.add_argument("--route", type=float, default=1200.0,
                        help="route length per vehicle, metres")
    ingest.add_argument("--remove-signs", type=int, default=2,
                        help="ground-truth sign removals to inject")
    ingest.add_argument("--add-signs", type=int, default=2,
                        help="ground-truth sign additions to inject")
    ingest.add_argument("--duplicate-rate", type=float, default=0.1,
                        help="fraction of reports re-sent (at-least-once "
                             "uplink)")
    ingest.add_argument("--stage-latency-ms", type=float, default=2.0,
                        help="simulated per-batch I/O cost in the pipeline")
    ingest.add_argument("--tile-size", type=float, default=250.0)
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--trace-sample", metavar="PATH",
                        help="enable tracing and dump sampled spans (JSONL)")
    ingest.add_argument("--trace-sample-rate", type=float, default=0.05,
                        help="root-span sampling rate with --trace-sample")
    ingest.add_argument("--verify", action="store_true",
                        help="also A/B-benchmark the constraint verify "
                             "gate and fail if its clean-patch publish "
                             "overhead exceeds --max-verify-overhead")
    ingest.add_argument("--max-verify-overhead", type=float, default=0.10,
                        help="relative publish-latency budget for the "
                             "verify gate (default 0.10 = 10%%)")
    ingest.set_defaults(func=_cmd_ingest_bench)

    obs = sub.add_parser(
        "obs", help="unified observability: export, traces, smoke gate")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_export = obs_sub.add_parser(
        "export",
        help="run a traced workload and export the unified registry")
    obs_export.add_argument("map")
    obs_export.add_argument("--format", choices=("prometheus", "json"),
                            default="prometheus")
    obs_export.add_argument("--seed", type=int, default=0)
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_trace = obs_sub.add_parser(
        "trace", help="render span trees from a JSONL span dump")
    obs_trace.add_argument("--input", required=True,
                           help="span dump (from --trace-sample or "
                                "SpanRecorder.dump_jsonl)")
    obs_trace.add_argument("--trace-id", help="render one specific trace")
    obs_trace.add_argument("--limit", type=int, default=3,
                           help="max traces to render without --trace-id")
    obs_trace.add_argument("--cluster", action="store_true",
                           help="show only cross-process cluster traces "
                                "(router span + harvested shard spans) "
                                "and fail on any structural violation")
    obs_trace.set_defaults(func=_cmd_obs_trace)

    obs_top = obs_sub.add_parser(
        "top", help="rank span names by total time from a span dump")
    obs_top.add_argument("--input", required=True)
    obs_top.add_argument("--limit", type=int, default=15)
    obs_top.set_defaults(func=_cmd_obs_top)

    obs_smoke = obs_sub.add_parser(
        "smoke",
        help="CI gate: traced workload, valid Prometheus export, "
             "no unparented/unfinished spans")
    obs_smoke.add_argument("map")
    obs_smoke.add_argument("--seed", type=int, default=0)
    obs_smoke.set_defaults(func=_cmd_obs_smoke)

    chaos = sub.add_parser(
        "chaos-bench",
        help="fault-injection matrix: certify graceful degradation "
             "invariants across the serve->ingest loop")
    chaos.add_argument("map")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--classes", default="all",
                       help="comma-separated fault classes to run "
                            "(sensor,bus,pipeline,publish,serve,shard) "
                            "or 'all'")
    chaos.add_argument("--shard-transport", choices=("process", "local"),
                       default="process",
                       help="shard-class cluster transport (default "
                            "process; local = in-process, for "
                            "constrained CI)")
    chaos.add_argument("--vehicles", type=int, default=3)
    chaos.add_argument("--routes", type=int, default=2,
                       help="routes per vehicle")
    chaos.add_argument("--route", type=float, default=900.0,
                       help="route length per vehicle, metres")
    chaos.add_argument("--freshness-bound-s", type=float, default=30.0,
                       help="freshness-lag invariant bound, seconds")
    chaos.add_argument("--skip-parity", action="store_true",
                       help="skip the faults-disabled byte-parity check")
    chaos.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="shard-class runs: sample each op as a "
                            "trace at this rate so the report counts "
                            "traces poisoned by injected faults "
                            "(0 = off)")
    chaos.set_defaults(func=_cmd_chaos_bench)

    cluster = sub.add_parser(
        "cluster-bench",
        help="sweep shard counts and check aggregate GetTile scaling")
    cluster.add_argument("map")
    cluster.add_argument("--shards", type=_parse_worker_list, default=[1, 2],
                         metavar="N,M,...",
                         help="shard counts to sweep (default 1,2)")
    cluster.add_argument("--requests", type=int, default=400,
                         help="total GetTile requests per shard count")
    cluster.add_argument("--clients", type=int, default=16,
                         help="concurrent client threads (must exceed "
                              "aggregate shard capacity for the sweep "
                              "to show scaling)")
    cluster.add_argument("--workers", type=int, default=2,
                         help="MapService workers per shard")
    cluster.add_argument("--replicas", type=int, default=0,
                         help="read replicas per shard")
    cluster.add_argument("--tile-size", type=float, default=250.0)
    cluster.add_argument("--service-latency-ms", type=float, default=20.0,
                         help="simulated per-request service cost inside "
                              "each shard; must dominate the ~1 ms "
                              "serial RPC overhead for the sweep to show "
                              "shard-count scaling on few cores")
    cluster.add_argument("--transport", choices=("process", "local"),
                         default="process")
    cluster.add_argument("--pipeline", action="store_true",
                         help="run the concurrent read-path suite: "
                              "replica read scaling vs the lockstep "
                              "baseline, concurrent vs serial scatter-"
                              "gather, and GetTile coalescing parity")
    cluster.add_argument("--check-scaling", type=float, default=None,
                         nargs="?", const=-1.0, metavar="FACTOR",
                         help="enforce the gates; with a FACTOR, require "
                              "best sweep throughput >= FACTOR x the "
                              "first shard count's (bare flag: 1.5x)")
    cluster.add_argument("--min-replica-speedup", type=float, default=2.0,
                         help="required 1-replica/shard vs replica-less "
                              "read throughput ratio (--pipeline)")
    cluster.add_argument("--min-scatter-speedup", type=float, default=3.0,
                         help="required serial/concurrent scatter-gather "
                              "latency ratio (--pipeline)")
    cluster.add_argument("--trace-sample-rate", type=float, default=None,
                         metavar="RATE",
                         help="run the telemetry-plane suite: measure "
                              "read latency with tracing off vs sampled "
                              "at RATE, then harvest and verify one "
                              "merged cross-process trace")
    cluster.add_argument("--trace-sample", default=None, metavar="PATH",
                         help="write the merged (router + harvested "
                              "shard) span dump as JSONL")
    cluster.add_argument("--max-trace-overhead", type=float, default=0.05,
                         help="allowed median-latency overhead of sampled "
                              "tracing (fraction; gated under "
                              "--check-scaling)")
    cluster.add_argument("--out", default="CLUSTER_BENCH.json",
                         help="machine-readable report path")
    cluster.set_defaults(func=_cmd_cluster_bench)

    pack = sub.add_parser(
        "pack-bench",
        help="measure pack-store serving: zero-copy, cold start, delta")
    pack.add_argument("map")
    pack.add_argument("--tile-size", type=float, default=250.0)
    pack.add_argument("--requests", type=int, default=300,
                      help="encoded GetTile requests in the pack sweep")
    pack.add_argument("--workers", type=int, default=1,
                      help="MapService workers behind the pack sweep")
    pack.add_argument("--target-elements", type=int, default=1_000_000,
                      help="minimum element count of the cold-start pack")
    pack.add_argument("--delta-ops", type=int, default=20,
                      help="ingested changes behind the delta-size check")
    pack.add_argument("--out", default="PACK_BENCH.json",
                      help="machine-readable report path")
    pack.add_argument("--check", action="store_true",
                      help="fail unless every bound below is met")
    pack.add_argument("--max-bytes-per-tile", type=float, default=65536,
                      help="ceiling on mean encoded tile size")
    pack.add_argument("--cold-start-budget-s", type=float, default=2.0,
                      help="budget for open + one-tile decode of the "
                           "cold pack")
    pack.add_argument("--max-delta-ratio", type=float, default=0.25,
                      help="ceiling on wire-delta / pickled-delta size")
    pack.set_defaults(func=_cmd_pack_bench)

    tax = sub.add_parser("taxonomy", help="print Table I with coverage")
    tax.set_defaults(func=_cmd_taxonomy)

    perf = sub.add_parser(
        "perf-bench",
        help="run the hot-path kernel microbenchmark suite")
    perf.add_argument("--repetitions", type=int, default=20)
    perf.add_argument("--warmup", type=int, default=3)
    perf.add_argument("--out", default="BENCH_PERF.json",
                      help="machine-readable report path")
    perf.add_argument("--check-baseline", metavar="PATH",
                      help="fail on median regressions vs this report")
    perf.add_argument("--max-regression", type=float, default=2.5,
                      help="regression multiplier the baseline check allows")
    perf.set_defaults(func=_cmd_perf_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
