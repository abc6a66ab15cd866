"""F1 — Figure 1 / Mátyus et al. [27]: aerial + ground lane extraction.

Paper: 0.57 m road-centre error vs 1.67 m for GPS+IMU, ~6 s/km inference.
Shape: fused aerial+ground beats the GPS+IMU baseline by ~2-3x and lands
sub-metre.
"""

from conftest import once

from repro.creation import AerialGroundMapper, render_aerial
from repro.creation.aerial import gps_imu_baseline
from repro.eval import ResultTable
from repro.world import drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=4000.0, sign_spacing=300.0)
    segment = next(iter(hw.segments()))
    truth_line = segment.reference_line
    lane = next(iter(hw.lanes()))
    trajectory = drive_route(hw, lane.id, 3900.0, rng)

    aerial, _ = render_aerial(hw, rng, resolution=0.5)
    prior = truth_line.simplify(5.0)
    result = AerialGroundMapper().run(hw, aerial, prior, truth_line,
                                      trajectory, rng)
    baseline = gps_imu_baseline(truth_line, trajectory, rng)
    return result, baseline


def test_fig1_aerial_ground_extraction(benchmark, rng):
    result, baseline = once(benchmark, _experiment, rng)

    table = ResultTable("F1", "aerial+ground road extraction [27]")
    table.add("fused error (m)", "0.57", f"{result.error.mean:.2f}",
              ok=result.error.mean < 1.0)
    table.add("GPS+IMU baseline (m)", "1.67", f"{baseline.mean:.2f}",
              ok=baseline.mean > 0.8)
    improvement = baseline.mean / max(result.error.mean, 1e-9)
    table.add("improvement factor", "~2.9x", f"{improvement:.1f}x",
              ok=improvement > 1.5)
    table.add("inference (s/km)", "6", f"{result.seconds_per_km:.2f}",
              ok=result.seconds_per_km < 60.0)
    table.print()
    assert table.all_ok()
