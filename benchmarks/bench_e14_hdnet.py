"""E14 — HDNET [6]: map priors for object detection.

Paper: map priors consistently improve detection; the online map
prediction module recovers part of the benefit when no HD map exists.
Shape (AP over a drive with on-road obstacles + roadside clutter):
with-map > predicted-map >= no-map.
"""

import numpy as np
from conftest import once

from repro.eval import ResultTable, average_precision
from repro.perception import HdnetDetector
from repro.sensors import LidarScanner
from repro.sensors.lidar import Obstacle
from repro.world import drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=3000.0, pole_spacing=60.0,
                          sign_spacing=150.0)
    lane = next(iter(hw.lanes()))
    traj = drive_route(hw, lane.id, 2900.0, rng)
    scanner = LidarScanner(dropout=0.0)

    detectors = {
        "map": HdnetDetector(hw, mode="map"),
        "predicted": HdnetDetector(None, mode="predicted"),
        "none": HdnetDetector(None, mode="none"),
    }
    scores = {k: ([], []) for k in detectors}
    n_truth = 0
    t = traj.start_time
    frame_rng = np.random.default_rng(11)
    while t <= traj.end_time:
        pose = traj.pose_at(t)
        # One genuine vehicle ahead at a varying offset...
        ahead = pose.apply(np.array([float(frame_rng.uniform(8.0, 30.0)),
                                     float(frame_rng.uniform(-1.0, 1.0))]))
        on_road = Obstacle(position=ahead, radius=1.0, reflectivity=0.45)
        # ...plus vehicle-sized off-road clutter (parked trailers, bins):
        # not detection targets, and exactly what the geometric road prior
        # is for.
        side = 1.0 if frame_rng.uniform() < 0.5 else -1.0
        clutter_pos = pose.apply(np.array([
            float(frame_rng.uniform(8.0, 30.0)),
            side * float(frame_rng.uniform(10.0, 18.0)),
        ]))
        clutter = Obstacle(position=clutter_pos, radius=1.0,
                           reflectivity=0.45, on_road=False)
        n_truth += 1
        scan = scanner.scan(hw, pose, frame_rng,
                            obstacles=[on_road, clutter])
        for key, detector in detectors.items():
            for det in detector.detect(scan, pose):
                is_tp = float(np.hypot(*(det.position - ahead))) < 2.0
                scores[key][0].append(det.score)
                scores[key][1].append(is_tp)
        t += 2.0
    aps = {k: average_precision(s, l, n_positives=n_truth)
           for k, (s, l) in scores.items()}
    return aps


def test_e14_hdnet(benchmark, rng):
    aps = once(benchmark, _experiment, rng)

    table = ResultTable("E14", "HDNET map priors for detection [6]")
    table.add("AP with HD map", "(best)", f"{aps['map']:.3f}",
              ok=aps["map"] > aps["none"])
    table.add("AP with predicted prior", "(middle)", f"{aps['predicted']:.3f}",
              ok=aps["predicted"] >= aps["none"] - 0.02)
    table.add("AP without map", "(worst)", f"{aps['none']:.3f}", ok=None)
    table.add("map beats no-map", "consistently",
              f"+{aps['map'] - aps['none']:.3f}",
              ok=aps["map"] - aps["none"] > 0.05)
    table.print()
    assert table.all_ok()
