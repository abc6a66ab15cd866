"""S8 — Concurrent read path: replica scaling, scatter-gather, coalescing.

The paper's distribution tier serves a fleet whose read load dwarfs its
write load: base-map tiles are fetched continuously while change-feed
publishes trickle. The cluster read path is concurrent end to end, and
this bench certifies each layer on the synthetic substrate:

- **replica read scaling** — round-robining ``GetTile`` across primary
  + 1 replica per shard (with the version-floor staleness guard) must
  clear 1.5x the same router without replicas (4 -> 8 service slots,
  ideal 2x);
- **concurrent scatter-gather** — a ``ChangesSince`` broadcast across 6
  slow shards is gated against the *known injected cost*: it must
  finish within a third of the 6 service sleeps a per-shard walk would
  pay (ideal: one sleep);
- **single-flight coalescing** — a burst of identical concurrent
  ``GetTile`` requests collapses onto one shard read with byte-identical
  responses (zero divergence), so a thundering herd on a hot tile costs
  one backend fetch.
"""

import statistics
import threading
import time

import numpy as np
from conftest import once

from repro.cluster import ClusterRouter, read_throughput
from repro.eval import ResultTable
from repro.serve.api import GetTile
from repro.world import generate_grid_city

_SEED = 7
_REQUESTS = 320
_CLIENTS = 16
_SERVICE_LATENCY_S = 0.02
_SCATTER_SHARDS = 6
_SCATTER_BUDGET_S = _SCATTER_SHARDS * _SERVICE_LATENCY_S / 3
_BURST = 8


def _replica_throughput(city, replicas):
    router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                           transport="process", n_workers=2,
                           service_latency_s=_SERVICE_LATENCY_S,
                           replicas=replicas)
    try:
        throughput, errors, _ = read_throughput(
            router, _REQUESTS, _CLIENTS)
        assert errors == 0
        return throughput, router.replica_hits.value
    finally:
        router.close()


def _experiment(rng):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)

    base_tp, _ = _replica_throughput(city, replicas=0)
    repl_tp, replica_hits = _replica_throughput(city, replicas=1)

    router = ClusterRouter(city, n_shards=_SCATTER_SHARDS, tile_size=120.0,
                           transport="process", n_workers=2,
                           service_latency_s=_SERVICE_LATENCY_S)
    try:
        rounds = []
        for _ in range(9):
            t0 = time.perf_counter()
            delta = router.changes_since(
                {i: 0 for i in range(_SCATTER_SHARDS)})
            rounds.append(time.perf_counter() - t0)
            assert len(delta.deltas) == _SCATTER_SHARDS
        broadcast_s = statistics.median(rounds[1:])  # first one warms up

        # Thundering herd on one hot tile.
        tile = router.tiles()[0]
        payloads = [None] * _BURST
        barrier = threading.Barrier(_BURST)

        def one(slot):
            barrier.wait()
            response = router.request(GetTile(tile=tile, encoded=True))
            payloads[slot] = response.payload if response.ok else None

        threads = [threading.Thread(target=one, args=(s,))
                   for s in range(_BURST)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = router.request(GetTile(tile=tile, encoded=True)).payload
        divergent = sum(1 for p in payloads
                        if p is None or bytes(p) != bytes(reference))
        coalesced = router.read_coalesced.value
    finally:
        router.close()
    return (base_tp, repl_tp, replica_hits, broadcast_s, coalesced,
            divergent)


def test_s08_readpath(benchmark, rng):
    (base_tp, repl_tp, replica_hits, broadcast_s, coalesced,
     divergent) = once(benchmark, _experiment, rng)

    table = ResultTable("S8", "concurrent read path: replicas + pipelining")
    factor = repl_tp / base_tp if base_tp > 0 else 0.0
    table.add("GetTile throughput, no replicas", "> 0 req/s",
              f"{base_tp:.1f} req/s", ok=base_tp > 0)
    table.add("read scaling with 1 replica/shard", ">= 1.5x",
              f"{factor:.2f}x", ok=factor >= 1.5)
    table.add("replica reads served", "> 0", str(replica_hits),
              ok=replica_hits > 0)
    table.add(f"{_SCATTER_SHARDS}-shard broadcast, "
              f"{1e3 * _SERVICE_LATENCY_S:g} ms injected per shard",
              f"<= {1e3 * _SCATTER_BUDGET_S:g} ms",
              f"{1e3 * broadcast_s:.1f} ms",
              ok=broadcast_s <= _SCATTER_BUDGET_S)
    table.add("hot-tile burst coalesced", "> 0 coalesced",
              str(coalesced), ok=coalesced > 0)
    table.add("coalesced response divergence", "0 divergent",
              str(divergent), ok=divergent == 0)
    table.print()
    assert table.all_ok()
