"""S3 — Hot-path kernel performance: the optimization pass holds its gains.

The curated microbenchmark suite times each optimized kernel next to its
frozen pre-optimization twin (:mod:`repro.perf.reference`) in one
process, on one pinned fixture world. Shape assertions: batched polyline
projection must be >= 3x the scalar per-point loop on 1k points, repeated
``LidarScanner.scan`` at a fixed pose cell must be >= 2x the re-cropping
original, the index-cursor tile codec must decode >= 2x faster than the
``BytesIO`` twin *while a second thread decodes beside it* (decode runs on
GIL-sharing service workers; a serial number does not predict serving)
and encode >= 2x faster, and every headline kernel must report a sane
median/p95. The equivalence side (bit-identical outputs on the same rng
stream, byte-identical blobs) lives in ``tests/test_perf.py``; this bench
only certifies the speed.
"""

from conftest import once

from repro.eval import ResultTable
from repro.perf import HEADLINE_KERNELS, run_perf_suite


def _experiment(rng):
    return run_perf_suite(repetitions=10, warmup=2)


def test_s03_hot_path_kernels(benchmark, rng):
    results, speedups, counters = once(benchmark, _experiment, rng)
    by_name = {r.name: r for r in results}

    table = ResultTable("S3", "hot-path kernel optimization")
    table.add("batched polyline projection speedup (1k points)", ">= 3x",
              f"{speedups['polyline.project_batch']:.2f}x "
              f"({1e3 * by_name['polyline.project_scalar'].median_s:.1f} -> "
              f"{1e3 * by_name['polyline.project_batch'].median_s:.1f} ms)",
              ok=speedups["polyline.project_batch"] >= 3.0)
    table.add("repeated lidar scan speedup (fixed pose cell)", ">= 2x",
              f"{speedups['lidar.scan']:.2f}x "
              f"({1e3 * by_name['lidar.scan_reference'].median_s:.1f} -> "
              f"{1e3 * by_name['lidar.scan'].median_s:.1f} ms)",
              ok=speedups["lidar.scan"] >= 2.0)
    table.add("particle-weight batching speedup", ">= 5x",
              f"{speedups['pf.weight']:.2f}x",
              ok=speedups["pf.weight"] >= 5.0)
    table.add("grid query ticket-sort vs repr-sort", ">= 1x",
              f"{speedups['grid.query_box']:.2f}x",
              ok=speedups["grid.query_box"] >= 1.0)

    us = {name: 1e6 * r.median_s for name, r in by_name.items()}
    table.add("tile decode under two threads vs BytesIO twin", ">= 2x",
              f"{speedups['codec.decode_tile_2thr']:.2f}x "
              f"({us['codec.decode_tile_2thr_reference']:.0f} -> "
              f"{us['codec.decode_tile_2thr']:.0f} us/tile; alone "
              f"{speedups['codec.decode_tile']:.2f}x, "
              f"{us['codec.decode_tile_reference']:.0f} -> "
              f"{us['codec.decode_tile']:.0f} us)",
              ok=speedups["codec.decode_tile_2thr"] >= 2.0)
    table.add("tile encode vs BytesIO twin", ">= 2x",
              f"{speedups['codec.encode_tile']:.2f}x "
              f"({us['codec.encode_tile_reference']:.0f} -> "
              f"{us['codec.encode_tile']:.0f} us/tile)",
              ok=speedups["codec.encode_tile"] >= 2.0)

    for name in HEADLINE_KERNELS:
        r = by_name[name]
        table.add(f"{name} median / p95", "reported",
                  f"{1e3 * r.median_s:.2f} / {1e3 * r.p95_s:.2f} ms",
                  ok=0.0 < r.median_s <= r.p95_s)

    table.add("kernels reported", ">= 6", str(len(results)),
              ok=len(results) >= 6)
    table.add("instrumented counters captured", ">= 2",
              str(len(counters)), ok=len(counters) >= 2)
    table.print()
    assert table.all_ok()
