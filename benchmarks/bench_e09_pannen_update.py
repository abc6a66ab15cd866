"""E9 — Pannen et al. [44]: crowd-based map update, single vs multi
traversal.

Paper: 300 traversals over 7 construction sites; multi-traversal
classification reaches 98.7 % sensitivity / 81.2 % specificity, far above
single-traversal. Shape: multi-traversal sensitivity and specificity both
high and both >= the single-traversal numbers.
"""

from conftest import once

from repro.eval import ResultTable, sensitivity_specificity
from repro.update import CrowdUpdatePipeline
from repro.world import ChangeSpec, apply_changes, drive_route, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=6000.0, sign_spacing=150.0)
    scenario = apply_changes(
        hw, ChangeSpec(construction_sites=7, construction_signs_per_site=5,
                       remove_signs=4), rng)
    pipeline = CrowdUpdatePipeline(scenario.prior)
    lanes = list(scenario.reality.lanes())
    # ~40 traversals split across both directions (300 in the paper).
    for k in range(40):
        lane = lanes[0] if k % 2 == 0 else lanes[2]
        traj = drive_route(scenario.reality, lane.id, 5800.0, rng, dt=0.3)
        pipeline.ingest(pipeline.traverse(scenario.reality, traj, rng))

    changed_tiles = {pipeline.tiles.tile_of(*c.position)
                     for c in scenario.true_changes}
    counts = {"single": {"tp": 0, "fp": 0, "tn": 0, "fn": 0},
              "multi": {"tp": 0, "fp": 0, "tn": 0, "fn": 0}}
    for site in pipeline._site_scores:
        truth = site in changed_tiles
        for mode, multi in (("single", False), ("multi", True)):
            decision = pipeline.site_decision(site, multi_traversal=multi)
            if decision and truth:
                counts[mode]["tp"] += 1
            elif decision and not truth:
                counts[mode]["fp"] += 1
            elif not decision and truth:
                counts[mode]["fn"] += 1
            else:
                counts[mode]["tn"] += 1
    return counts, len(pipeline._site_scores)


def test_e09_crowd_update(benchmark, rng):
    counts, n_sites = once(benchmark, _experiment, rng)
    single = sensitivity_specificity(**counts["single"])
    multi = sensitivity_specificity(**counts["multi"])

    table = ResultTable("E9", "crowd map update, multi-traversal [44]")
    table.add("multi-traversal sensitivity", "98.7 %",
              f"{100 * multi['sensitivity']:.1f} %",
              ok=multi["sensitivity"] >= 0.75)
    table.add("multi-traversal specificity", "81.2 %",
              f"{100 * multi['specificity']:.1f} %",
              ok=multi["specificity"] >= 0.6)
    table.add("single-traversal sensitivity", "(lower)",
              f"{100 * single['sensitivity']:.1f} %",
              ok=multi["sensitivity"] >= single["sensitivity"])
    table.add("single-traversal specificity", "(lower)",
              f"{100 * single['specificity']:.1f} %",
              ok=multi["specificity"] >= single["specificity"] - 0.05)
    table.add("sites evaluated", "7 construction", str(n_sites), ok=None)
    table.print()
    assert table.all_ok()
