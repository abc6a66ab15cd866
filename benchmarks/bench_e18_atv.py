"""E18 — Tas et al. [10], [11]: ATV HD-map update in a smart factory.

Paper: visual SLAM + object detection finds new/missing safety signs by
comparing the virtual map against the valid HD map. Shape: driving the
aisles detects the injected sign changes with high precision and recall.
"""

import numpy as np
from conftest import once

from repro.atv import AtvSignUpdater, VisualSlam
from repro.eval import ResultTable
from repro.world import ChangeSpec, apply_changes, generate_factory_floor
from repro.world.traffic import drive_lane_sequence


def _experiment(rng):
    factory = generate_factory_floor(rng, aisles=5, aisle_length=80.0)
    scenario = apply_changes(factory,
                             ChangeSpec(add_signs=3, remove_signs=3), rng)
    aisle_lanes = [l for l in scenario.reality.lanes() if l.length > 40]

    updater = AtvSignUpdater(scenario.prior.copy())
    all_changes = []
    patch_ops = 0
    for lane in aisle_lanes:
        traj = drive_lane_sequence(scenario.reality, [lane.id], rng=rng,
                                   lateral_sigma=0.05)
        # Indoors, visual SLAM re-localizes continuously against the rich
        # factory structure: model it as anchors every ~20 m of aisle.
        stations = np.arange(0.0, lane.length + 1.0, 20.0)
        anchors = [lane.centerline.point_at(float(s)).copy()
                   for s in stations]
        report = updater.run(scenario, traj, VisualSlam(anchors), rng)
        all_changes.extend(report.detected_changes)
        patch_ops += len(report.patch)

    from repro.core.changes import ChangeType, match_changes

    # Aisles overlap in sensor range: the same change can be reported by
    # two runs. Deduplicate by type + position before scoring.
    deduped = []
    for change in all_changes:
        dup = any(c.change_type is change.change_type
                  and c.distance_to(change) < 3.0 for c in deduped)
        if not dup:
            deduped.append(change)

    truth = [c for c in scenario.true_changes
             if c.change_type in (ChangeType.ADDED, ChangeType.REMOVED)]
    counts = match_changes(deduped, truth, radius=3.0)
    return counts, len(truth), patch_ops


def test_e18_atv_sign_update(benchmark, rng):
    counts, n_truth, patch_ops = once(benchmark, _experiment, rng)
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 0.0

    table = ResultTable("E18", "ATV factory sign update [10], [11]")
    table.add("true sign changes", str(n_truth), f"{tp} found", ok=tp >= 1)
    table.add("recall", "high", f"{100 * recall:.0f} %", ok=recall >= 0.5)
    table.add("precision", "high", f"{100 * precision:.0f} %",
              ok=precision >= 0.6)
    table.add("patch operations emitted", "batched", str(patch_ops),
              ok=patch_ops >= tp)
    table.print()
    assert table.all_ok()
