"""Command-line interface: generate, inspect, validate, and route on maps.

Usage::

    python -m repro generate --kind city --seed 7 --out city.json
    python -m repro stats city.json [--tiles] [--tile-size 500]
    python -m repro validate city.json
    python -m repro route city.json --from 100,100 --to 600,400
    python -m repro chaos-bench city.json --classes sensor,pipeline
    python -m repro taxonomy
    python -m repro obs export city.json --format prometheus
    python -m repro obs export city.json --format spans > spans.jsonl
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


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


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


def _obs_workload(map_path: str, seed: int):
    """Run one small fully-traced serve+ingest workload.

    One :class:`MetricsRegistry` composes the event log's, the
    pipeline's and the service's registries plus the perf kernels;
    tracing runs at sample rate 1.0 into a
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
    registry.register_collector(EVENT_LOG.registry.collect)
    configure_tracing(enabled=True, sample_rate=1.0, capacity=65536,
                      reset=True)
    PERF_REGISTRY.enable()
    register_perf_registry(registry, PERF_REGISTRY)

    server = MapDistributionServer(scenario.prior.copy())
    store = TileStore.build(scenario.prior, tile_size=250.0)
    pipe = IngestPipeline(server, tile_size=250.0, n_workers=2)
    registry.register_collector(pipe.registry.collect)
    source = FleetObservationSource(scenario, n_vehicles=2,
                                    route_length_m=600.0, step_s=1.0,
                                    seed=seed)
    with pipe:
        source.run(pipe.submit)
        pipe.drain(30.0)
    service = MapService(server, store, n_workers=2)
    registry.register_collector(service.registry.collect)
    with service:
        FleetSimulator(service, scenario.prior, n_vehicles=2,
                       route_length_m=400.0, sync_every=3, ingest_every=5,
                       seed=seed, trace_requests=True).run()
    PERF_REGISTRY.disable()
    return registry


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import TRACER

    registry = _obs_workload(args.map, args.seed)
    if args.format == "json":
        print(registry.to_json())
    elif args.format == "spans":
        TRACER.recorder.dump_jsonl(sys.stdout)
    else:
        print(registry.to_prometheus(), end="")
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


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro import taxonomy

    print(taxonomy.render_table())
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
    stats.add_argument("--tile-size", type=_positive_float, default=500.0,
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

    obs = sub.add_parser(
        "obs", help="unified observability: export, traces, smoke gate")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_export = obs_sub.add_parser(
        "export",
        help="run a traced workload and export the unified registry "
             "(or, with --format spans, its span dump as JSONL)")
    obs_export.add_argument("map")
    obs_export.add_argument("--format",
                            choices=("prometheus", "json", "spans"),
                            default="prometheus")
    obs_export.add_argument("--seed", type=int, default=0)
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_trace = obs_sub.add_parser(
        "trace", help="render span trees from a JSONL span dump")
    obs_trace.add_argument("--input", required=True,
                           help="span dump (from `obs export --format "
                                "spans` or SpanRecorder.dump_jsonl)")
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

    tax = sub.add_parser("taxonomy", help="print Table I with coverage")
    tax.set_defaults(func=_cmd_taxonomy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; a bad input file is a one-line error, exit 2."""
    from repro.errors import HDMapError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader went away (``| head``): not a bad input. Point
        # stdout at /dev/null so the flush at exit cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, HDMapError) as exc:
        command = " ".join(filter(None, (args.command,
                                         getattr(args, "obs_command", None))))
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
