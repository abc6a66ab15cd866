"""S9 — Cluster telemetry plane: cheap sampling, faithful merged trees.

The tracing layer's cost model (bench S4) holds on a single node; this
bench certifies the *distributed* claims from ``repro.cluster``:

- **overhead** — sampled tracing on the cluster read path (trace
  context pickled into every RPC envelope, router-side ``cluster.rpc``
  spans, a live background :class:`TelemetryHarvester`) must not
  meaningfully move median read-round latency. Rounds are interleaved
  traced/untraced so machine drift hits both modes equally; the gate is
  deliberately loose (local transport, tiny rounds amplify noise) —
  the real-cost number over the process transport is the macrobench
  ``obs.trace.full_sampling_slowdown`` row;
- **reconstruction** — after a harvest, one guaranteed-sampled
  ``GetTile`` must reconstruct as a single verify-clean span tree whose
  parent chain crosses the transport: ``cluster.request.GetTile ->
  cluster.rpc.serve -> shard.serve -> serve.request.GetTile``.
"""

import statistics

from conftest import once

from repro.cluster import ClusterRouter, read_throughput
from repro.eval import ResultTable
from repro.obs import TRACER, configure_tracing, verify_spans
from repro.serve.api import GetTile
from repro.world import generate_grid_city

_ROUNDS = 20
_REQUESTS_PER_ROUND = 60
_CLIENTS = 4
_SERVICE_LATENCY_S = 0.002
_MAX_OVERHEAD = 0.25  # loose: local transport, tiny rounds


def _read_round(router):
    _, errors, elapsed = read_throughput(router, _REQUESTS_PER_ROUND,
                                         _CLIENTS)
    assert errors == 0
    return elapsed


def _experiment(rng):
    world = generate_grid_city(rng, blocks_x=3, blocks_y=2,
                               block_size=150.0)
    configure_tracing(enabled=False, reset=True)
    router = ClusterRouter(world, n_shards=2, tile_size=250.0,
                           transport="local",
                           service_latency_s=_SERVICE_LATENCY_S)
    elapsed = {"off": [], "on": []}
    try:
        tiles = sorted(router.tiles())
        _read_round(router)  # warmup
        for _ in range(_ROUNDS):
            for mode in ("off", "on"):
                if mode == "on":
                    configure_tracing(enabled=True, sample_rate=0.01)
                else:
                    TRACER.configure(enabled=False)
                elapsed[mode].append(_read_round(router))

        # One fully sampled request, then harvest and reconstruct.
        configure_tracing(enabled=True, sample_rate=1.0, reset=True)
        assert router.request(GetTile(tile=tiles[0], encoded=True)).ok
        router.harvest_telemetry()
        spans = [s.as_dict() for s in TRACER.recorder.spans()]
    finally:
        router.close()
        configure_tracing(enabled=False, reset=True)
    return elapsed, spans


def test_s09_cluster_tracing(benchmark, rng):
    elapsed, spans = once(benchmark, _experiment, rng)
    off_s = statistics.median(elapsed["off"])
    on_s = statistics.median(elapsed["on"])
    overhead = on_s / off_s - 1.0 if off_s > 0 else 0.0

    problems = verify_spans(spans)
    by_id = {s["span_id"]: s for s in spans}
    chain = []
    for span in spans:
        if span["name"] != "serve.request.GetTile":
            continue
        names = [span["name"]]
        node = span
        while node.get("parent_id") in by_id:
            node = by_id[node["parent_id"]]
            names.append(node["name"])
        chain = list(reversed(names))
        break
    expected = ["cluster.request.GetTile", "cluster.rpc.serve",
                "shard.serve", "serve.request.GetTile"]

    table = ResultTable("S9", "cluster tracing overhead + merged tree")
    table.add(f"median read round ({_REQUESTS_PER_ROUND} reqs), "
              f"tracing off", "reported", f"{1e3 * off_s:.2f} ms",
              ok=off_s > 0)
    table.add("overhead at 1% sampling + live harvester",
              f"< {100 * _MAX_OVERHEAD:g}%",
              f"{100 * overhead:+.1f}% ({1e3 * on_s:.2f} ms)",
              ok=overhead <= _MAX_OVERHEAD)
    table.add("merged span dump structurally clean", "0 problems",
              f"{len(problems)} ({len(spans)} spans)", ok=not problems)
    table.add("cross-transport parent chain", " -> ".join(expected),
              " -> ".join(chain) if chain else "(missing)",
              ok=chain == expected)
    table.print()
    assert table.all_ok()
