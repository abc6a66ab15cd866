"""Command-line interface: generate, inspect, validate, and route on maps.

Usage::

    python -m repro generate --kind city --seed 7 --out city.json
    python -m repro stats city.json [--tiles] [--tile-size 500]
    python -m repro validate city.json
    python -m repro route city.json --from 100,100 --to 600,400
    python -m repro serve-bench city.json --workers 1,4 --vehicles 8
    python -m repro chaos-bench city.json --classes sensor,pipeline
    python -m repro cluster-bench city.json --shards 1,2 --check-scaling 1.5
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


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Sweep shard counts: aggregate encoded-GetTile throughput per count.

    Connections are pipelined, so N shards x W workers concurrent
    requests overlap their simulated service cost. ``--check-scaling
    FACTOR`` fails the run unless the best count clears FACTOR x the
    first; ``--trace-sample PATH`` samples the sweep's requests and dumps
    the merged (router + harvested shard) spans for ``obs trace
    --cluster``.
    """
    import json

    from repro.cluster import ClusterRouter, read_throughput
    from repro.storage import load_map

    tracing = _trace_sample_setup(args)
    hdmap = load_map(args.map)
    print(f"cluster GetTile sweep against {hdmap.name} "
          f"({args.requests} requests, {args.clients} client(s), "
          f"{args.service_latency_ms:g} ms simulated service cost, "
          f"transport={args.transport})")
    print(f"{'shards':>6} {'errors':>7} {'elapsed':>9} "
          f"{'throughput':>12}")
    sweep: List[dict] = []
    for n_shards in args.shards:
        router = ClusterRouter(
            hdmap, n_shards=n_shards, tile_size=args.tile_size,
            replicas=args.replicas, transport=args.transport,
            n_workers=args.workers,
            service_latency_s=args.service_latency_ms / 1e3)
        try:
            throughput, failed, elapsed = read_throughput(
                router, args.requests, args.clients)
        finally:
            router.close()  # with tracing on: the final shard harvest
        sweep.append({"shards": n_shards,
                      "throughput_rps": round(throughput, 1),
                      "errors": failed, "elapsed_s": round(elapsed, 3)})
        print(f"{n_shards:>6} {failed:>7} {elapsed:>8.2f}s "
              f"{throughput:>9.1f} req/s")
    report: dict = {
        "map": hdmap.name, "transport": args.transport,
        "service_latency_ms": args.service_latency_ms,
        "requests": args.requests, "clients": args.clients,
        "sweep": sweep,
    }
    failures: List[str] = []
    if any(row["errors"] for row in sweep):
        failures.append("request errors during the shard sweep")
    if args.check_scaling is not None and len(sweep) >= 2:
        base = sweep[0]
        peak = max(sweep[1:], key=lambda row: row["throughput_rps"])
        factor = peak["throughput_rps"] / base["throughput_rps"] \
            if base["throughput_rps"] > 0 else 0.0
        report["scaling"] = {"factor": round(factor, 2),
                             "required": args.check_scaling}
        print(f"scaling: {peak['shards']} shard(s) vs {base['shards']} -> "
              f"{factor:.2f}x (required >= {args.check_scaling:g}x)")
        if factor < args.check_scaling:
            failures.append(f"shard scaling {factor:.2f}x below "
                            f"{args.check_scaling:g}x")
    if tracing:
        _trace_sample_dump(args)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"report -> {args.out}")
    for failure in failures:
        print(f"CLUSTER BENCH FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
    cluster.add_argument("--check-scaling", type=float, default=None,
                         metavar="FACTOR",
                         help="fail unless the best sweep throughput is "
                              ">= FACTOR x the first shard count's "
                              "(absent: report only)")
    cluster.add_argument("--trace-sample", metavar="PATH",
                         help="enable tracing and dump the merged (router "
                              "+ harvested shard) spans as JSONL")
    cluster.add_argument("--trace-sample-rate", type=float, default=0.05,
                         help="root-span sampling rate with --trace-sample")
    cluster.add_argument("--out", default="CLUSTER_BENCH.json",
                         help="machine-readable report path")
    cluster.set_defaults(func=_cmd_cluster_bench)

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
