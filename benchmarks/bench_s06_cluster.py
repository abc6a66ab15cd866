"""S6 — Cluster: sharded serving scales reads and survives shard loss.

The source paper's ecosystem serves HD maps to fleets at a scale no
single node reaches: map distribution is regional and redundant, and
tile ownership moves as capacity grows. This bench exercises
:mod:`repro.cluster` end-to-end on the synthetic substrate:

- **throughput scaling** — aggregate ``GetTile`` throughput at 2 shards
  must clear 1.5x the single-shard run. Clients are shard-pinned on
  disjoint tile slices (:func:`repro.cluster.read_throughput`, so
  nothing coalesces) and outnumber the service slots, so N shards x 2
  workers admit exactly 2N concurrent simulated service sleeps and the
  sweep isolates routing-tier scaling even on one core. Replica
  round-robin, scatter-gather and single-flight coalescing are gated
  in ``bench_s08_readpath.py``;
- **failover** — killing a shard mid-read must be absorbed by a replica
  or a journal restart, never surfaced to the caller;
- **chaos certification** — the ``shard`` fault class (crash, slow
  shard, rebalance mid-stream) certifies the same five degradation
  invariants as the single-node matrix (the constraint scan runs over
  the *merged* served state), and the faults-disabled cluster run is
  byte-identical to a plain single-node service run.
"""

import numpy as np
from conftest import once

from repro.chaos import ClusterChaosHarness, ClusterWorkload, FaultPlan
from repro.chaos.faults import curated_matrix
from repro.cluster import ClusterRouter, read_throughput
from repro.eval import ResultTable
from repro.world import generate_grid_city

_SEED = 7
_REQUESTS = 240
_CLIENTS = 8
_SERVICE_LATENCY_S = 0.02


def _throughput(city, n_shards: int) -> float:
    router = ClusterRouter(city, n_shards=n_shards, tile_size=120.0,
                           transport="process", n_workers=2,
                           service_latency_s=_SERVICE_LATENCY_S)
    try:
        throughput, errors, _ = read_throughput(router, _REQUESTS, _CLIENTS)
        assert errors == 0
        return throughput
    finally:
        router.close()


def _experiment(rng):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    tp_1 = _throughput(city, 1)
    tp_2 = _throughput(city, 2)

    workload = ClusterWorkload(seed=_SEED)
    plan = dict(curated_matrix(_SEED))["shard"]
    faulted = ClusterChaosHarness(city, plan, workload=workload)
    report = faulted.run("shard")

    inert = ClusterChaosHarness(city, FaultPlan.none(_SEED),
                                workload=workload)
    inert_report = inert.run("shard-inert")
    cluster_bytes = inert.final_map_bytes()
    plain_bytes = inert.run_plain()
    return tp_1, tp_2, report, inert_report, cluster_bytes, plain_bytes


def test_s06_cluster(benchmark, rng):
    tp_1, tp_2, report, inert_report, cluster_bytes, plain_bytes = \
        once(benchmark, _experiment, rng)

    table = ResultTable("S6", "sharded serving: scaling + shard chaos")
    factor = tp_2 / tp_1 if tp_1 > 0 else 0.0
    table.add("GetTile throughput, 1 shard", "> 0 req/s",
              f"{tp_1:.1f} req/s", ok=tp_1 > 0)
    table.add("GetTile scaling at 2 shards", ">= 1.5x",
              f"{factor:.2f}x", ok=factor >= 1.5)

    fired = sum(report.fired.values())
    table.add("shard faults fired", "> 0", str(fired), ok=fired > 0)
    violations = report.violations()
    total = len(report.invariants)
    table.add("shard: invariants certified", "5/5",
              f"{total - len(violations)}/{total}"
              + (f" ({violations[0].name})" if violations else ""),
              ok=report.certify() and total == 5)
    table.add("shard: crash absorbed by restart", "> 0 restarts",
              str(report.stats["restarts"]),
              ok=report.stats["restarts"] > 0)
    table.add("shard: rebalance mid-stream", "1 rebalance",
              str(report.stats["rebalances"]),
              ok=report.stats["rebalances"] == 1)

    n_inert = len(inert_report.invariants)
    table.add("faults-disabled cluster run certifies", "5/5",
              f"{n_inert - len(inert_report.violations())}/{n_inert}",
              ok=inert_report.certify() and n_inert == 5)
    table.add("faults-disabled parity vs single node", "byte-identical",
              f"{len(cluster_bytes)} B vs {len(plain_bytes)} B "
              + ("(equal)" if cluster_bytes == plain_bytes else "(DIFFER)"),
              ok=cluster_bytes == plain_bytes)
    table.print()
    assert table.all_ok()
