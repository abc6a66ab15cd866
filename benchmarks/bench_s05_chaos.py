"""S5 — Chaos: graceful degradation of the serve→ingest loop under
injected faults.

The maintenance loop the survey's crowd-sourced pipelines [41][42][44]
feed is only useful if it degrades instead of breaking: the source
paper's fleet-scale ecosystem assumes sensors drop and duplicate
uplinks, workers crash, the database hiccups, and request load spikes.
This bench runs the curated fault matrix (one seeded
:class:`~repro.chaos.faults.FaultPlan` per fault class: sensor, bus,
pipeline, publish, serve, geometry) through
:class:`~repro.chaos.ChaosHarness` and asserts the five degradation
invariants hold under every class — no lost acked observations, no
duplicate published patches, version monotonicity, bounded freshness
lag, zero constraint violations served — plus the harness's own honesty
check: with faults disabled, the chaos run's final map is byte-identical
to a plain pipeline run of the same seed. The geometry class is the
verify gate's trial: every injected malformed patch must land in
quarantine, never in the served map.
"""

from conftest import once

from repro.chaos import ChaosHarness, ChaosWorkload, FaultPlan
from repro.chaos.faults import curated_matrix
from repro.eval import ResultTable
from repro.world import generate_grid_city

#: Pinned world seed shared with S2: fleet routes cover every injected
#: ground-truth change on this road graph.
_SEED = 7


def _experiment(rng):
    import numpy as np

    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    workload = ChaosWorkload(seed=_SEED)
    reports = {}
    for fault_class, plan in curated_matrix(_SEED):
        if fault_class == "shard":
            # cluster-only points: nothing fires in the single-node
            # harness; bench_s06_cluster.py certifies this class.
            continue
        harness = ChaosHarness(city, plan, workload=workload)
        reports[fault_class] = harness.run(fault_class)

    parity = ChaosHarness(city, FaultPlan.none(_SEED), workload=workload)
    baseline = parity.run("parity")
    chaos_bytes = parity.final_map_bytes()
    plain_bytes = parity.run_plain()
    return reports, baseline, chaos_bytes, plain_bytes


def test_s05_chaos_matrix(benchmark, rng):
    reports, baseline, chaos_bytes, plain_bytes = \
        once(benchmark, _experiment, rng)

    table = ResultTable("S5", "fault injection + graceful degradation")
    for fault_class, report in reports.items():
        fired = sum(report.fired.values())
        table.add(f"{fault_class}: faults fired", "> 0", str(fired),
                  ok=fired > 0)
        violations = report.violations()
        total = len(report.invariants)
        table.add(f"{fault_class}: invariants certified", "5/5",
                  f"{total - len(violations)}/{total}"
                  + (f" ({violations[0].name})" if violations else ""),
                  ok=report.certify() and total == 5)

    # Degradation must be *observable*: the pipeline-class run crashes
    # workers and dead-letters poison, and both must surface in the
    # run's own stats rather than in harness bookkeeping.
    stats = reports["pipeline"].stats
    table.add("pipeline: worker restarts observed", "> 0",
              str(stats["batches"]["worker_restarts"]),
              ok=stats["batches"]["worker_restarts"] > 0)
    table.add("pipeline: poison dead-lettered", "> 0",
              str(stats["batches"]["dead_letters"]),
              ok=stats["batches"]["dead_letters"] > 0)

    serve = reports["serve"].serve_stats
    table.add("serve: request storm answered", "> 0 responses",
              str(serve["responses"]), ok=serve["responses"] > 0)

    # The verify gate must be *exercised*, not vacuously green: every
    # malformed patch the geometry class injected must be quarantined.
    verify = reports["geometry"].stats["verify"]
    injected = sum(reports["geometry"].fired.values())
    table.add("geometry: malformed patches quarantined", "== injected",
              f"{verify['quarantined']}/{injected}",
              ok=injected > 0 and verify["quarantined"] == injected)

    n_base = len(baseline.invariants)
    table.add("faults-disabled run certifies", "5/5",
              f"{n_base - len(baseline.violations())}/{n_base}",
              ok=baseline.certify() and n_base == 5)
    table.add("faults-disabled parity vs plain pipeline", "byte-identical",
              f"{len(chaos_bytes)} B vs {len(plain_bytes)} B "
              + ("(equal)" if chaos_bytes == plain_bytes else "(DIFFER)"),
              ok=chaos_bytes == plain_bytes)
    table.print()
    assert table.all_ok()
