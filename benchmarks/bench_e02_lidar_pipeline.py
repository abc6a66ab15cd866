"""E2 — Zhao et al. [32]: automated LiDAR road-structure mapping.

Paper: 1.83 m average absolute pose error over road scenes from hundreds
of metres to 10 km. Shape: metre-level boundary error that grows with
scene length (dead-reckoned registration drift dominates).
"""

from conftest import once

from repro.creation import LidarMappingPipeline
from repro.eval import ResultTable
from repro.world import drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=6000.0, sign_spacing=400.0,
                          pole_spacing=400.0)
    lane = next(iter(hw.lanes()))
    pipeline = LidarMappingPipeline(scan_stride_s=2.0)
    results = {}
    for length in (300.0, 1500.0, 5500.0):
        traj = drive_route(hw, lane.id, length, rng)
        # drive_route always finishes the 6 km lane; slice by duration.
        duration = length / 28.0
        traj = _truncate(traj, duration)
        results[length] = pipeline.run(hw, traj, rng)
    return results


def _truncate(traj, duration):
    from repro.world.traffic import Trajectory

    samples = [s for s in traj.samples if s.t <= traj.start_time + duration]
    return Trajectory(samples) if len(samples) >= 2 else traj


def test_e02_lidar_mapping(benchmark, rng):
    results = once(benchmark, _experiment, rng)

    table = ResultTable("E2", "LiDAR road-structure mapping [32]")
    errors = {length: r.boundary_error.mean for length, r in results.items()}
    mid = errors[1500.0]
    table.add("error @1.5 km (m)", "~1.83 avg", f"{mid:.2f}",
              ok=0.05 < mid < 4.0)
    table.add("error @0.3 km (m)", "(smaller)", f"{errors[300.0]:.2f}",
              ok=errors[300.0] < 2.0)
    table.add("error @5.5 km (m)", "(larger)", f"{errors[5500.0]:.2f}",
              ok=errors[5500.0] < 20.0)
    drifts = [results[k].trajectory_drift for k in sorted(results)]
    table.add("drift grows with scene", "yes",
              f"{drifts[0]:.1f} -> {drifts[-1]:.1f} m",
              ok=drifts[0] < drifts[-1])
    table.add("boundaries extracted", "both sides",
              "yes" if results[1500.0].left_boundary is not None
              and results[1500.0].right_boundary is not None else "no",
              ok=results[1500.0].left_boundary is not None)
    table.print()
    assert table.all_ok()
