"""S3 — Hot-path kernel performance: the optimization pass holds its gains.

The curated suite (:func:`repro.perf.run_perf_suite`) pairs each
optimized kernel with its frozen pre-optimization twin
(:mod:`repro.perf.reference`) in one process, on one pinned fixture
world, through :func:`repro.perf.paired`: alternating order, untimed
warm-up, speedup = median per-pair ratio. Shape assertions: batched
polyline projection must be >= 3x the scalar per-point loop on 1k
points, repeated ``LidarScanner.scan`` at a fixed pose cell must be >= 2x
the re-cropping original, particle weighting >= 5x, the ticket-sorted
grid query no slower than the repr-sorted one, and the index-cursor tile
codec must decode >= 2x faster than the ``BytesIO`` twin *while a second
thread decodes beside it* (decode runs on GIL-sharing service workers; a
serial number does not predict serving) and encode >= 2x faster. The
equivalence side (bit-identical outputs on the same rng stream,
byte-identical blobs) lives in ``tests/test_perf.py``; this bench only
certifies the speed.
"""

import statistics

from conftest import once

from repro.eval import ResultTable
from repro.perf import run_perf_suite

#: (pair name, row label, required speedup)
GATES = (
    ("polyline.project_batch",
     "batched polyline projection speedup (1k points)", 3.0),
    ("lidar.scan", "repeated lidar scan speedup (fixed pose cell)", 2.0),
    ("pf.weight", "particle-weight batching speedup", 5.0),
    ("grid.query_box", "grid query ticket-sort vs repr-sort", 1.0),
    ("codec.decode_tile_2thr",
     "tile decode under two threads vs BytesIO twin", 2.0),
    ("codec.encode_tile", "tile encode vs BytesIO twin", 2.0),
)


def _experiment(rng):
    return run_perf_suite(repetitions=10, warmup=2)


def _ms(seconds):
    return 1e3 * statistics.median(seconds)


def test_s03_hot_path_kernels(benchmark, rng):
    pairs, counters = once(benchmark, _experiment, rng)

    table = ResultTable("S3", "hot-path kernel optimization")
    for name, label, bound in GATES:
        pair = pairs[name]
        table.add(label, f">= {bound:g}x",
                  f"{pair.median:.2f}x ({_ms(pair.b_s):.2f} -> "
                  f"{_ms(pair.a_s):.2f} ms; {pair.describe()})",
                  ok=pair.median >= bound)
    alone = pairs["codec.decode_tile"]
    table.add("tile decode alone vs BytesIO twin", "reported",
              f"{alone.median:.2f}x ({alone.describe()})",
              ok=alone.median > 0)
    table.add("instrumented counters captured", ">= 2",
              str(len(counters)), ok=len(counters) >= 2)
    table.print()
    assert table.all_ok()
