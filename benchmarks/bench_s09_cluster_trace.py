"""S9 — Cluster telemetry plane: cheap sampling, faithful merged trees.

The tracing layer's cost model (bench S4) holds on a single node; this
bench certifies the *distributed* claims from ``repro.cluster``:

- **overhead** — sampled tracing on the cluster read path (trace
  context pickled into every RPC envelope, router-side ``cluster.rpc``
  spans, a live background :class:`TelemetryHarvester`) must not
  meaningfully move read-round latency. Traced and untraced rounds are
  paired through :func:`repro.perf.paired` (alternating order, gate on
  the median per-pair ratio); the gate is deliberately loose (local
  transport, tiny rounds amplify noise) — the real-cost number over the
  process transport is the macrobench
  ``obs.trace.full_sampling_slowdown`` row;
- **reconstruction** — on a 2-shard process-transport router, one
  guaranteed-sampled ``GetTile`` must, after a harvest, reconstruct as a
  single verify-clean span tree whose parent chain crosses the process
  boundary: ``cluster.request.GetTile -> cluster.rpc.serve ->
  shard.serve -> serve.request.GetTile``, with both shard-side spans
  tagged by the harvester with the ``role`` that served them.
"""

import statistics

from conftest import once

from repro.cluster import ClusterRouter, read_throughput
from repro.eval import ResultTable
from repro.obs import TRACER, configure_tracing, verify_spans
from repro.perf import paired
from repro.serve.api import GetTile
from repro.world import generate_grid_city

_ROUNDS = 20
_REQUESTS_PER_ROUND = 60
_CLIENTS = 4
_SERVICE_LATENCY_S = 0.002
_MAX_OVERHEAD = 0.25  # loose: local transport, tiny rounds


def _read_round(router, sample_rate):
    """One read round with tracing off (rate 0) or sampled at ``rate``."""
    def run():
        if sample_rate:
            configure_tracing(enabled=True, sample_rate=sample_rate)
        else:
            TRACER.configure(enabled=False)
        _, errors, _ = read_throughput(router, _REQUESTS_PER_ROUND,
                                       _CLIENTS)
        assert errors == 0
    return run


def _experiment(rng):
    world = generate_grid_city(rng, blocks_x=3, blocks_y=2,
                               block_size=150.0)
    configure_tracing(enabled=False, reset=True)
    router = ClusterRouter(world, n_shards=2, tile_size=250.0,
                           transport="local",
                           service_latency_s=_SERVICE_LATENCY_S)
    try:
        overhead = paired(_read_round(router, 0.0),
                          _read_round(router, 0.01), _ROUNDS, warmup=1)
    finally:
        router.close()
        configure_tracing(enabled=False, reset=True)

    # One fully sampled request through forked shards, then harvest.
    router = ClusterRouter(world, n_shards=2, tile_size=250.0,
                           transport="process")
    try:
        configure_tracing(enabled=True, sample_rate=1.0, reset=True)
        tile = sorted(router.tiles())[0]
        assert router.request(GetTile(tile=tile, encoded=True)).ok
        router.harvest_telemetry()
        spans = [s.as_dict() for s in TRACER.recorder.spans()]
    finally:
        router.close()
        configure_tracing(enabled=False, reset=True)
    return overhead, spans


def test_s09_cluster_tracing(benchmark, rng):
    overhead, spans = once(benchmark, _experiment, rng)

    problems = verify_spans(spans)
    by_id = {s["span_id"]: s for s in spans}
    chain = []
    for span in spans:
        if span["name"] != "serve.request.GetTile":
            continue
        chain = [span]
        while chain[-1].get("parent_id") in by_id:
            chain.append(by_id[chain[-1]["parent_id"]])
        chain.reverse()
        break
    expected = ["cluster.request.GetTile", "cluster.rpc.serve",
                "shard.serve", "serve.request.GetTile"]
    roles = [str((s.get("attrs") or {}).get("role")) for s in chain[2:]]

    table = ResultTable("S9", "cluster tracing overhead + merged tree")
    table.add(f"median read round ({_REQUESTS_PER_ROUND} reqs), "
              f"tracing off", "reported",
              f"{1e3 * statistics.median(overhead.a_s):.2f} ms",
              ok=min(overhead.a_s) > 0)
    table.add("overhead at 1% sampling + live harvester "
              "(median paired ratio)",
              f"< {100 * _MAX_OVERHEAD:g}%",
              f"{100 * (overhead.median - 1):+.1f}% "
              f"(N={len(overhead.ratios)} pairs, {overhead.describe()})",
              ok=overhead.median - 1 <= _MAX_OVERHEAD)
    table.add("merged span dump structurally clean", "0 problems",
              f"{len(problems)} ({len(spans)} spans)", ok=not problems)
    table.add("cross-process parent chain", " -> ".join(expected),
              " -> ".join(s["name"] for s in chain) or "(missing)",
              ok=[s["name"] for s in chain] == expected)
    table.add("shard spans carry the harvested role", "primary, primary",
              ", ".join(roles) or "(missing)",
              ok=roles == ["primary", "primary"])
    table.print()
    assert table.all_ok()
