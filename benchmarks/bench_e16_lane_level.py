"""E16 — Ghallabi et al. [50]: LiDAR lane-marking localization.

Paper: lane-level accuracy on highway test tracks from lane markings +
HD map. Shape: the marking-aligned particle filter achieves sub-half-metre
*lateral* error and assigns the correct lane almost always, far better
than GNSS alone.
"""

import numpy as np
from conftest import once

from repro.eval import ResultTable
from repro.geometry.transform import SE2
from repro.localization import LaneMarkingLocalizer
from repro.sensors import LidarScanner, WheelOdometry
from repro.world import drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=3000.0)
    lane = next(iter(hw.lanes()))
    traj = drive_route(hw, lane.id, 2900.0, rng)
    odometry = WheelOdometry().measure(traj, rng)
    scanner = LidarScanner()
    localizer = LaneMarkingLocalizer(hw, rng)
    p0 = traj.pose_at(traj.start_time)
    localizer.initialize(SE2(p0.x + 1.0, p0.y + 1.0, p0.theta))

    lateral_errors = []
    lane_correct = 0
    lane_total = 0
    gnss_lateral = []
    for i, delta in enumerate(odometry[:400]):
        localizer.predict(delta.ds, delta.dtheta)
        true_pose = traj.pose_at(delta.t)
        if i % 5 == 0:
            scan = scanner.scan(hw, true_pose, rng)
            localizer.update_markings(scan)
            localizer.update_gnss(
                np.array([true_pose.x, true_pose.y])
                + rng.normal(0, 1.2, 2), 1.5)
        est = localizer.estimate()
        body = true_pose.inverse().apply(np.array([est.x, est.y]))
        lateral_errors.append(abs(float(body[1])))
        gnss_lateral.append(abs(float(rng.normal(0, 1.2))))
        if i % 10 == 0 and i > 100:
            est_lane, _ = hw.nearest_lane(est.x, est.y)
            true_lane, _ = hw.nearest_lane(true_pose.x, true_pose.y)
            lane_total += 1
            lane_correct += est_lane.id == true_lane.id
    return (np.array(lateral_errors), np.array(gnss_lateral),
            lane_correct, lane_total)


def test_e16_lane_marking_localization(benchmark, rng):
    lateral, gnss_lateral, lane_correct, lane_total = once(
        benchmark, _experiment, rng)
    settled = lateral[100:]

    table = ResultTable("E16", "LiDAR lane-marking localization [50]")
    median = float(np.median(settled))
    table.add("median lateral error (m)", "lane-level (<0.5)",
              f"{median:.2f}", ok=median < 0.5)
    table.add("GNSS-only lateral (m)", "(metre-level)",
              f"{float(np.median(gnss_lateral)):.2f}",
              ok=float(np.median(gnss_lateral)) > median)
    rate = lane_correct / max(lane_total, 1)
    # The paper itself flags reliability concerns outside test tracks; we
    # require clearly-above-chance lane selection (4 lanes => 25 % chance).
    table.add("correct lane assignment", "~100 % (test track)",
              f"{100 * rate:.0f} % ({lane_correct}/{lane_total})",
              ok=rate > 0.75)
    table.print()
    assert table.all_ok()
