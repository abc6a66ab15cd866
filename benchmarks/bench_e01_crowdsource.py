"""E1 — Dabeer et al. [29]: crowdsourced mapping with corrective feedback.

Paper: mean absolute accuracy below 20 cm from cost-effective sensors.
Shape: fleet triangulation + feedback reaches the sub-half-metre band,
beats a single vehicle clearly, and improves with fleet size.
"""

from conftest import once

from repro.creation import CrowdMapper
from repro.eval import ResultTable
from repro.world import drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=2500.0, sign_spacing=150.0)
    lane = next(iter(hw.lanes()))
    mapper = CrowdMapper()
    results = {}
    for fleet in (1, 10, 40):
        contribs = [
            mapper.collect(hw, drive_route(hw, lane.id, 2400.0, rng), v, rng)
            for v in range(fleet)
        ]
        results[fleet] = mapper.fuse(contribs, hw)
    return results


def test_e01_crowdsourced_mapping(benchmark, rng):
    results = once(benchmark, _experiment, rng)

    table = ResultTable("E1", "crowdsourced sign mapping [29]")
    solo = results[1].error.mean
    fleet = results[40].error.mean
    table.add("fleet (40) mean error (m)", "< 0.20", f"{fleet:.3f}",
              ok=fleet < 0.5)
    table.add("single vehicle (m)", "(worse)", f"{solo:.3f}",
              ok=solo > fleet)
    mid = results[10].error.mean
    table.add("fleet scaling", "monotone", f"1:{solo:.2f} 10:{mid:.2f} "
              f"40:{fleet:.2f}", ok=fleet <= mid <= solo * 1.2)
    table.add("signs matched", "all", f"{results[40].matched}",
              ok=results[40].matched >= 10)
    table.print()
    assert table.all_ok()
