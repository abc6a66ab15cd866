"""E10 — Li et al. [60] / Pannen et al. [44]: HD-map storage footprints.

Paper: conventional point-cloud HD maps ~10 MB/mile (200 GB for 20 000
miles); the compact vector map reaches ~100 KB/mile — a two-order-of-
magnitude reduction — while still supporting navigation. Shape: cloud in
the MB/mile regime, vector codec >= 100x smaller, decoded map still
routable.
"""

from conftest import once

from repro.eval import ResultTable
from repro.planning import LaneRouter
from repro.storage import decode_map, encode_map, storage_report
from repro.world import generate_grid_city


def _experiment(rng):
    city = generate_grid_city(rng, 5, 4, block_size=220.0)
    report = storage_report(city, rng)
    # Navigation still works on the decoded compact map.
    decoded = decode_map(encode_map(city, simplify_tolerance=0.05))
    router = LaneRouter(decoded)
    lanes = [l for l in decoded.lanes() if l.length > 60]
    route = router.route_astar(lanes[0].id, lanes[-1].id)
    return report, route


def test_e10_storage(benchmark, rng):
    report, route = once(benchmark, _experiment, rng)

    table = ResultTable("E10", "storage: point cloud vs compact vectors [60]")
    mb_mile = report.pointcloud_per_mile / 1e6
    table.add("point cloud (MB/mile)", "~10", f"{mb_mile:.1f}",
              ok=1.0 < mb_mile < 100.0)
    kb_mile = report.binary_simplified_per_mile / 1e3
    table.add("compact vector (KB/mile)", "~100", f"{kb_mile:.1f}",
              ok=kb_mile < 500.0)
    table.add("reduction factor", ">= 100x (2 orders)",
              f"{report.reduction_factor:.0f}x",
              ok=report.reduction_factor >= 100.0)
    table.add("GeoJSON (KB/mile)", "(between)",
              f"{report.geojson_per_mile / 1e3:.0f}",
              ok=report.binary_per_mile < report.geojson_per_mile)
    table.add("decoded map routable", "yes",
              f"route over {route.n_lanes} lanes", ok=route.n_lanes > 2)
    table.print()
    assert table.all_ok()
