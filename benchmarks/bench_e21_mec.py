"""E21 — Qi et al. [47]: distributed crowd-sensing map update via RSU/MEC.

Paper: MEC servers at roadside units pre-process vehicle uploads against
their map tile and forward only extracted changes to the central node.
Shape: the central node receives orders of magnitude fewer bytes than the
raw-upload baseline while the same changes are found.
"""

from conftest import once

from repro.core import ChangeType
from repro.eval import ResultTable
from repro.update.mec import CentralAggregator, build_rsu_grid
from repro.world import ChangeSpec, apply_changes, generate_highway


def _experiment(rng):
    hw = generate_highway(rng, length=4000.0, sign_spacing=120.0)
    scenario = apply_changes(hw, ChangeSpec(add_signs=4, remove_signs=4), rng)
    prior = scenario.prior
    servers = build_rsu_grid(prior, tile_size=500.0)
    central = CentralAggregator()

    reality_signs = list(scenario.reality.signs())
    prior_signs = list(prior.signs())
    # 30 vehicles upload raw detections to whichever RSU covers them.
    for _ in range(30):
        for region, server in servers:
            x0, y0, x1, y1 = region.bounds
            visible = [s.id for s in prior_signs
                       if x0 <= s.position[0] < x1 and y0 <= s.position[1] < y1]
            detections = [
                s.position + rng.normal(0, 0.3, 2)
                for s in reality_signs
                if x0 <= s.position[0] < x1 and y0 <= s.position[1] < y1
                and rng.uniform() < 0.85
            ]
            server.ingest(detections, visible)
    for _, server in servers:
        central.receive(server.extract_changes())

    from repro.core.changes import match_changes

    truth = [c for c in scenario.true_changes
             if c.change_type in (ChangeType.ADDED, ChangeType.REMOVED)]
    counts = match_changes(central.changes, truth, radius=4.0)
    only_servers = [s for _, s in servers]
    return central, counts, len(truth), only_servers


def test_e21_mec_distributed_update(benchmark, rng):
    central, counts, n_truth, servers = once(benchmark, _experiment, rng)

    table = ResultTable("E21", "RSU/MEC distributed crowd-sensing [47]")
    raw = central.centralized_baseline_bytes(servers)
    table.add("raw uploads to central (KB)", "(baseline)",
              f"{raw / 1024:.0f}", ok=None)
    table.add("change records to central (KB)", "(tiny)",
              f"{central.bytes_received / 1024:.2f}",
              ok=central.bytes_received < raw / 10)
    table.add("compression factor", ">> 10x",
              f"{central.compression_factor(servers):.0f}x",
              ok=central.compression_factor(servers) > 10)
    recall = counts["tp"] / max(n_truth, 1)
    table.add("changes recovered centrally", f"{n_truth}",
              f"{counts['tp']} ({100 * recall:.0f} %)", ok=recall >= 0.6)
    table.print()
    assert table.all_ok()
