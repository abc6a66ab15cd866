"""The curated hot-path microbenchmark suite.

Each kernel is a closure over a deterministic fixture world (pinned seed)
so runs are comparable across machines and commits. Optimized kernels are
benchmarked next to their frozen pre-optimization twins from
:mod:`repro.perf.reference`, and the suite reports the resulting speedups
alongside raw medians. ``run_perf_suite`` powers both the ``perf-bench``
CLI subcommand and the CI perf-smoke gate.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import wait
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.elements import BoundaryType, LaneBoundary
from repro.geometry.index import GridIndex
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.perf import reference
from repro.perf.instrument import REGISTRY
from repro.perf.runner import BenchResult, run_bench
from repro.sensors.lidar import LidarScanner
from repro.serve import GetTile, MapService, SpatialQuery
from repro.storage import TileStore
from repro.storage.binary import decode_map, encode_map
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city

#: Kernels the CI gate checks against the checked-in baseline.
HEADLINE_KERNELS: Tuple[str, ...] = (
    "polyline.project_batch",
    "lidar.scan",
    "grid.query_box",
    "codec.decode_tile",
)

#: Pinned fixture seed — keep stable so baselines stay comparable.
_SEED = 7


def _fixture_polyline(rng: np.random.Generator) -> Polyline:
    s = np.linspace(0.0, 400.0, 200)
    pts = np.stack([s, 12.0 * np.sin(s / 40.0) + rng.normal(0.0, 0.3, s.size)],
                   axis=1)
    return Polyline(pts)


def _fixture_boundaries(city, pose: SE2):
    """Boundary segment groups near ``pose``, as the PF localizer caches them."""
    segs = {"paint": [], "edge": []}
    centre = np.array([pose.x, pose.y])
    for element in city.elements_in_radius(pose.x, pose.y, 30.0,
                                           kind="boundary"):
        assert isinstance(element, LaneBoundary)
        cls = ("edge" if element.boundary_type in (BoundaryType.ROAD_EDGE,
                                                   BoundaryType.CURB)
               else "paint")
        pts = element.line.points
        mid = (pts[:-1] + pts[1:]) / 2.0
        near = np.hypot(*(mid - centre).T) <= 30.0
        if near.any():
            segs[cls].append((pts[:-1][near], pts[1:][near]))
    return segs


def run_perf_suite(repetitions: int = 20, warmup: int = 3
                   ) -> Tuple[List[BenchResult], Dict[str, float],
                              Dict[str, Dict[str, float]]]:
    """Run every curated kernel; returns (results, speedups, counters)."""
    rng = np.random.default_rng(_SEED)
    city = generate_grid_city(rng, 3, 2, block_size=150.0)
    pose = SE2(150.0, 150.0, 0.3)

    results: List[BenchResult] = []
    speedups: Dict[str, float] = {}

    def bench(name: str, fn: Callable[[], object]) -> BenchResult:
        result = run_bench(name, fn, repetitions=repetitions, warmup=warmup)
        results.append(result)
        return result

    def bench_pair(name: str, fn: Callable[[], object],
                   twin: Callable[[], object], per: int) -> None:
        """Time ``fn`` and its frozen ``twin`` in alternation, so host
        drift lands on both, and report the median per-pair ratio. Each
        call does ``per`` operations; samples are per operation."""
        for _ in range(warmup):
            fn()
            twin()
        new, ref = BenchResult(name), BenchResult(f"{name}_reference")
        for _ in range(repetitions):
            for result, call in ((new, fn), (ref, twin)):
                start = time.perf_counter()
                call()
                result.samples_s.append(
                    (time.perf_counter() - start) / per)
        results.extend((new, ref))
        speedups[name] = statistics.median(
            r / max(n, 1e-12) for n, r in zip(new.samples_s, ref.samples_s))

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        # -- polyline projection: batched vs the scalar per-point loop ----
        line = _fixture_polyline(rng)
        points = np.stack([
            rng.uniform(0.0, 400.0, 1000),
            rng.uniform(-25.0, 25.0, 1000),
        ], axis=1)
        batch = bench("polyline.project_batch",
                      lambda: line.project_batch(points))
        scalar = bench("polyline.project_scalar",
                       lambda: reference.project_scalar(line, points))
        speedups["polyline.project_batch"] = (scalar.median_s
                                              / max(batch.median_s, 1e-12))

        # -- LiDAR scan at a fixed pose cell: cached vs re-cropping -------
        scanner = LidarScanner()
        scan = bench("lidar.scan",
                     lambda: scanner.scan(city, pose,
                                          np.random.default_rng(_SEED)))
        scan_ref = bench(
            "lidar.scan_reference",
            lambda: reference.scan_reference(scanner, city, pose,
                                             np.random.default_rng(_SEED)))
        speedups["lidar.scan"] = scan_ref.median_s / max(scan.median_s, 1e-12)

        # -- particle weighting: whole-cloud batch vs per-particle loop ---
        from repro.localization.lane_marking import _batch_signed_laterals

        boundaries = _fixture_boundaries(city, pose)
        measurements = [(1.7, "paint"), (-1.9, "paint"), (5.2, "edge")]
        states = np.stack([
            rng.normal(pose.x, 1.5, 250),
            rng.normal(pose.y, 1.5, 250),
            rng.normal(pose.theta, 0.05, 250),
        ], axis=1)
        sigma_offset = 0.12

        def weight_batched() -> np.ndarray:
            laterals = {
                cls: [_batch_signed_laterals(states, a_pts, b_pts)
                      for a_pts, b_pts in boundaries.get(cls, ())]
                for cls in ("paint", "edge")
            }
            total = np.zeros(states.shape[0])
            for m, cls in measurements:
                best = np.full(states.shape[0], np.inf)
                for lat, valid in laterals[cls]:
                    err = np.where(valid, np.abs(lat - m), np.inf)
                    np.minimum(best, err, out=best)
                scale = 2.0 if cls == "edge" else 1.0
                term = scale * (np.minimum(best, 3.0 * sigma_offset)
                                / sigma_offset)**2
                total += np.where(np.isfinite(best), term, 0.0)
            log_w = -0.5 * total
            log_w -= log_w.max()
            return np.exp(log_w)

        pf_batch = bench("pf.weight_batched", weight_batched)
        pf_ref = bench(
            "pf.weight_reference",
            lambda: reference.particle_weights_reference(
                states, measurements, boundaries, sigma_offset))
        speedups["pf.weight"] = pf_ref.median_s / max(pf_batch.median_s, 1e-12)

        # -- grid index: ticket-sorted vs repr-sorted queries -------------
        index: GridIndex = GridIndex(cell_size=50.0)
        for i in range(2000):
            x, y = rng.uniform(0.0, 1000.0, 2)
            w, h = rng.uniform(1.0, 40.0, 2)
            index.insert(("element", i), (x, y, x + w, y + h))
        query = (200.0, 200.0, 650.0, 650.0)
        grid = bench("grid.query_box", lambda: index.query_box(query))
        grid_ref = bench(
            "grid.query_box_repr",
            lambda: reference.query_box_repr_sorted(index, query))
        speedups["grid.query_box"] = (grid_ref.median_s
                                      / max(grid.median_s, 1e-12))

        # -- tile codec: index-cursor reader/writer vs the BytesIO twins --
        # Every 4th tile of macrobench's ``local_spatial_drive`` tile set
        # (6x6-block city, 100 m tiles). Decode runs on MapService's
        # GIL-sharing worker threads, so the number that predicts serving
        # is the two-thread one: the same tile list decoded by two
        # threads at once, wall per decode.
        drive = TileStore.build(
            generate_grid_city(np.random.default_rng(_SEED), 6, 6),
            tile_size=100.0)
        blobs = [drive.encoded_view(t) for t in drive.tiles()[::4]]
        shards = [decode_map(blob) for blob in blobs]

        def decode_all(decode) -> None:
            for blob in blobs:
                decode(blob)

        def decode_all_2thr(decode) -> None:
            pair = [threading.Thread(target=decode_all, args=(decode,))
                    for _ in range(2)]
            for thread in pair:
                thread.start()
            for thread in pair:
                thread.join()

        bench_pair("codec.decode_tile",
                   lambda: decode_all(decode_map),
                   lambda: decode_all(reference.decode_map_reference),
                   per=len(blobs))
        bench_pair("codec.decode_tile_2thr",
                   lambda: decode_all_2thr(decode_map),
                   lambda: decode_all_2thr(reference.decode_map_reference),
                   per=2 * len(blobs))
        bench_pair("codec.encode_tile",
                   lambda: [encode_map(m) for m in shards],
                   lambda: [reference.encode_map_reference(m)
                            for m in shards],
                   per=len(shards))

        # -- serving: GetTile / SpatialQuery under worker concurrency -----
        store = TileStore.build(city, tile_size=150.0)
        server = MapDistributionServer(city.copy())
        tiles = store.tiles()
        with MapService(server, store, n_workers=4) as service:
            def serve_tiles() -> None:
                futures = [service.submit(GetTile(tiles[i % len(tiles)]))
                           for i in range(32)]
                wait(futures)

            def serve_tiles_encoded() -> None:
                futures = [service.submit(
                    GetTile(tiles[i % len(tiles)], encoded=True))
                    for i in range(32)]
                wait(futures)

            def serve_spatial() -> None:
                futures = [service.submit(
                    SpatialQuery(150.0 + 10.0 * (i % 5), 150.0, 60.0))
                    for i in range(16)]
                wait(futures)

            bench("serve.get_tile", serve_tiles)
            bench("serve.get_tile_encoded", serve_tiles_encoded)
            bench("serve.spatial_query", serve_spatial)
        counters = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    return results, speedups, counters
