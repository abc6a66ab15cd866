"""The curated hot-path suite: every optimized kernel against its twin.

Each kernel is a closure over a deterministic fixture world (pinned
seed) and is timed with :func:`repro.perf.pairing.paired` against its
frozen pre-optimization twin from :mod:`repro.perf.reference` in the
same process, so the speedup S3 gates is a median per-pair ratio that
host drift moves on both sides at once.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.elements import BoundaryType, LaneBoundary
from repro.geometry.index import GridIndex
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.perf import reference
from repro.perf.instrument import REGISTRY
from repro.perf.pairing import Paired, paired
from repro.sensors.lidar import LidarScanner
from repro.storage import TileStore
from repro.storage.binary import decode_map, encode_map
from repro.world import generate_grid_city

#: Pinned fixture seed — keep stable so speedups stay comparable.
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
                   ) -> Tuple[Dict[str, Paired], Dict[str, Dict[str, float]]]:
    """Pair every curated kernel with its twin.

    Returns ``(pairs, counters)``: ``pairs[name]`` has the kernel as side
    ``a`` and the twin as side ``b``, so its ratios are speedups;
    ``counters`` is the instrument registry's snapshot over the run.
    """
    rng = np.random.default_rng(_SEED)
    city = generate_grid_city(rng, 3, 2, block_size=150.0)
    pose = SE2(150.0, 150.0, 0.3)
    pairs: Dict[str, Paired] = {}

    def pair(name: str, fn: Callable[[], object],
             twin: Callable[[], object]) -> None:
        pairs[name] = paired(fn, twin, repetitions, warmup)

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        # -- polyline projection: batched vs the scalar per-point loop ----
        line = _fixture_polyline(rng)
        points = np.stack([
            rng.uniform(0.0, 400.0, 1000),
            rng.uniform(-25.0, 25.0, 1000),
        ], axis=1)
        pair("polyline.project_batch",
             lambda: line.project_batch(points),
             lambda: reference.project_scalar(line, points))

        # -- LiDAR scan at a fixed pose cell: cached vs re-cropping -------
        scanner = LidarScanner()
        pair("lidar.scan",
             lambda: scanner.scan(city, pose, np.random.default_rng(_SEED)),
             lambda: reference.scan_reference(scanner, city, pose,
                                              np.random.default_rng(_SEED)))

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

        pair("pf.weight", weight_batched,
             lambda: reference.particle_weights_reference(
                 states, measurements, boundaries, sigma_offset))

        # -- grid index: ticket-sorted vs repr-sorted queries -------------
        index: GridIndex = GridIndex(cell_size=50.0)
        for i in range(2000):
            x, y = rng.uniform(0.0, 1000.0, 2)
            w, h = rng.uniform(1.0, 40.0, 2)
            index.insert(("element", i), (x, y, x + w, y + h))
        query = (200.0, 200.0, 650.0, 650.0)
        pair("grid.query_box", lambda: index.query_box(query),
             lambda: reference.query_box_repr_sorted(index, query))

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
            threads = [threading.Thread(target=decode_all, args=(decode,))
                    for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        pair("codec.decode_tile",
             lambda: decode_all(decode_map),
             lambda: decode_all(reference.decode_map_reference))
        pair("codec.decode_tile_2thr",
             lambda: decode_all_2thr(decode_map),
             lambda: decode_all_2thr(reference.decode_map_reference))
        pair("codec.encode_tile",
             lambda: [encode_map(m) for m in shards],
             lambda: [reference.encode_map_reference(m) for m in shards])

        counters = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    return pairs, counters
