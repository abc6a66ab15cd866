"""The map-maintenance loop: construction appears, the crowd notices,
SLAMCU verifies, and the map database is patched.

Reproduces the survey's Section II-B(2) flow end-to-end: FCD change
scoring over tiles (Pannen et al.), SLAMCU verification drives, and a
versioned patch applied to the map database.

Run:  python examples/map_maintenance.py
"""

import numpy as np

from repro import VersionedMap, generate_highway
from repro.core import ChangeType
from repro.update import CrowdUpdatePipeline, Slamcu
from repro.world import ChangeSpec, apply_changes, drive_route


def main() -> None:
    rng = np.random.default_rng(33)

    # The world: a highway whose map is initially perfect...
    hw = generate_highway(rng, length=5000.0, sign_spacing=200.0)
    # ...until a construction site appears and some signage changes.
    scenario = apply_changes(hw, ChangeSpec(
        construction_sites=1, construction_signs_per_site=5,
        add_signs=2, remove_signs=2), rng)
    print(f"{scenario.n_changes} real-world changes injected "
          f"(the map database doesn't know yet)")

    database = VersionedMap(scenario.prior.copy())

    # Stage 1 — the crowd: connected vehicles stream FCD; per-tile change
    # scores accumulate until verification jobs are created.
    pipeline = CrowdUpdatePipeline(database.map)
    lanes = list(scenario.reality.lanes())
    for k in range(8):
        lane = lanes[0] if k % 2 == 0 else lanes[2]
        traj = drive_route(scenario.reality, lane.id, 4800.0, rng, dt=0.3)
        pipeline.ingest(pipeline.traverse(scenario.reality, traj, rng))
    jobs = pipeline.create_jobs()
    print(f"after 8 crowd traversals: {len(jobs)} verification job(s) "
          f"created at tiles {[str(j) for j in jobs]}")

    # Stage 2 — verification: a SLAMCU-equipped vehicle drives the route
    # and resolves the actual changes.
    slamcu = Slamcu(database.map, new_feature_min_obs=3)
    trajectories = [
        drive_route(scenario.reality, lanes[0].id, 4800.0, rng),
        drive_route(scenario.reality, lanes[2].id, 4800.0, rng),
    ]
    report = slamcu.run(scenario, trajectories, rng)
    added = sum(c.change_type is ChangeType.ADDED
                for c in report.detected_changes)
    removed = sum(c.change_type is ChangeType.REMOVED
                  for c in report.detected_changes)
    print(f"SLAMCU verification: {added} additions, {removed} removals "
          f"detected (accuracy {100 * report.change_accuracy:.0f} %)")

    # Stage 3 — publication: one atomic, versioned patch.
    version = database.apply(report.patch)
    print(f"map database patched: now at version {version} "
          f"({len(report.patch)} operations)")

    # Residual differences by *position* (patched-in signs carry fresh ids,
    # so an id-based diff would double count them).
    residual = _positional_sign_mismatches(database.map, scenario.reality)
    print(f"residual sign mismatches vs reality: {residual} "
          f"(was {scenario.n_changes})")


def _positional_sign_mismatches(map_a, map_b, radius: float = 3.0) -> int:
    a = np.array([s.position for s in map_a.signs()])
    b = np.array([s.position for s in map_b.signs()])

    def unmatched(src, dst):
        count = 0
        for p in src:
            if dst.shape[0] == 0 or np.hypot(
                    dst[:, 0] - p[0], dst[:, 1] - p[1]).min() > radius:
                count += 1
        return count

    return unmatched(a, b) + unmatched(b, a)


if __name__ == "__main__":
    main()
