"""S4 — Observability overhead: tracing must be ~free on the hot path.

The tracing layer's cost model (see ``repro.obs.trace``) promises that a
disabled tracer costs one attribute check per instrumentation point and
that production-style sampling (1%) stays under 5% median overhead on
the ``GetTile`` hot path. One warmed MapService serves bursts of
``REQUESTS_PER_ITER`` concurrent GetTile requests (so thread-handoff
jitter averages out). The comparison is :func:`repro.perf.paired`: each
of ``ROUNDS`` pairs times a tracing-off burst and a 1%-sampled burst
back to back, alternating which runs first, and the gate is the median
of the per-pair ratios — slow machine drift moves both halves of a pair
together instead of biasing whichever sweep ran last. 100% sampling is
reported from its own ``FULL_ROUNDS`` pairs.
"""

import itertools
import statistics

from conftest import once

from repro.core.tiles import TileId
from repro.eval import ResultTable
from repro.obs import TRACER
from repro.perf import paired
from repro.serve import GetTile, MapService
from repro.storage import TileStore
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city

REQUESTS_PER_ITER = 200
#: pairs behind the gate: the 1% cost measures ~4-5% of a burst on a
#: 2-core host, close to the 5% bound, so the median needs many pairs
ROUNDS = 400
FULL_ROUNDS = 20
WARMUP = 2

OFF = (False, 1.0)
SAMPLED = (True, 0.01)
FULL = (True, 1.0)


def _experiment(rng):
    """Paired bursts: tracing off vs 1% sampled (the gate) and tracing
    off vs 100% sampled (the reported row)."""
    world = generate_grid_city(rng, blocks_x=3, blocks_y=2,
                               block_size=150.0)
    server = MapDistributionServer(world.copy())
    store = TileStore.build(world, tile_size=250.0)
    tiles = store.tiles() or [TileId(0, 0)]
    cycle = list(itertools.islice(itertools.cycle(tiles),
                                  REQUESTS_PER_ITER))
    TRACER.configure(enabled=False, capacity=65536, reset=True)
    with MapService(server, store, n_workers=2,
                    tiles_per_shard=len(tiles) + 1) as service:

        def burst(config):
            enabled, rate = config

            def run():
                TRACER.configure(enabled=enabled, sample_rate=rate)
                futures = [service.submit(GetTile(tile)) for tile in cycle]
                for future in futures:
                    future.result()
            return run

        sampled = paired(burst(OFF), burst(SAMPLED), ROUNDS, WARMUP)
        full = paired(burst(OFF), burst(FULL), FULL_ROUNDS, WARMUP)
        TRACER.configure(enabled=False, reset=True)
    return sampled, full


def test_s04_tracing_overhead(benchmark, rng):
    sampled, full = once(benchmark, _experiment, rng)

    table = ResultTable("S4", "observability overhead on GetTile")
    table.add(f"median burst ({REQUESTS_PER_ITER} reqs), tracing off",
              "reported", f"{1e3 * statistics.median(sampled.a_s):.2f} ms",
              ok=min(sampled.a_s + sampled.b_s) > 0)
    table.add("overhead at 1% sampling (median paired ratio)", "< 5%",
              f"{100 * (sampled.median - 1):+.1f}% "
              f"(N={len(sampled.ratios)} pairs, {sampled.describe()})",
              ok=sampled.median <= 1.05)
    table.add("overhead at 100% sampling (median paired ratio)",
              "reported", f"{100 * (full.median - 1):+.1f}% "
              f"(N={len(full.ratios)} pairs)", ok=full.median > 0)
    table.print()
    assert table.all_ok()
