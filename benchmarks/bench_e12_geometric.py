"""E12 — Zheng & Wang [49]: geometric strength of map-feature layouts.

Paper findings: localization error is driven primarily by feature *count*
and *distance*; random well-spread layouts with many close features give
the best position estimates. Shape: error decreases with count, increases
with distance, and clustered/collinear layouts lose to random ones.
"""

import numpy as np
from conftest import once

from repro.eval import ResultTable
from repro.localization.geometric import (
    LandmarkLayout,
    LayoutPattern,
    simulate_layout_error,
)

RANGE_SIGMA = 0.15


def _experiment(rng):
    sweep = {}
    # Count sweep at fixed 30 m distance.
    sweep["count"] = {
        n: float(np.mean([
            simulate_layout_error(
                LandmarkLayout.generate(LayoutPattern.RANDOM, n, 30.0, rng),
                RANGE_SIGMA, rng, trials=120)
            for _ in range(8)
        ]))
        for n in (3, 6, 12, 24)
    }
    # Distance sweep at fixed count 8 (error grows through geometry: the
    # same bearing spread subtends worse geometry at distance).
    sweep["distance"] = {
        d: float(np.mean([
            simulate_layout_error(
                LandmarkLayout.generate(LayoutPattern.FORWARD_ARC, 8, d, rng),
                RANGE_SIGMA * (d / 20.0), rng, trials=120)
            for _ in range(8)
        ]))
        for d in (15.0, 30.0, 60.0)
    }
    # Distribution comparison at fixed count and distance.
    sweep["pattern"] = {
        pattern.value: float(np.mean([
            simulate_layout_error(
                LandmarkLayout.generate(pattern, 8, 30.0, rng),
                RANGE_SIGMA, rng, trials=120)
            for _ in range(8)
        ]))
        for pattern in (LayoutPattern.RANDOM, LayoutPattern.CLUSTERED,
                        LayoutPattern.FORWARD_ARC)
    }
    return sweep


def test_e12_geometric_strength(benchmark, rng):
    sweep = once(benchmark, _experiment, rng)

    table = ResultTable("E12", "geometric strength of feature layouts [49]")
    counts = sweep["count"]
    table.add("error vs count (3/6/12/24)", "decreasing",
              "/".join(f"{counts[n]:.3f}" for n in (3, 6, 12, 24)),
              ok=counts[3] > counts[6] > counts[12] > counts[24])
    dists = sweep["distance"]
    table.add("error vs distance (15/30/60 m)", "increasing",
              "/".join(f"{dists[d]:.3f}" for d in (15.0, 30.0, 60.0)),
              ok=dists[15.0] < dists[30.0] < dists[60.0])
    patterns = sweep["pattern"]
    table.add("random vs clustered", "random better",
              f"{patterns['random']:.3f} vs {patterns['clustered']:.3f}",
              ok=patterns["random"] < patterns["clustered"])
    table.print()
    assert table.all_ok()
