"""repro.chaos — fault injection and invariant certification for the
serve→ingest loop.

Public API:

- :class:`FaultPlan` / :class:`FaultSpec` and the ``FAULT_CLASSES`` /
  fault-point name constants (:mod:`repro.chaos.faults`) — deterministic,
  seedable decisions about *what* fails *when*;
- :class:`ChaosHarness` / :class:`ChaosWorkload`
  (:mod:`repro.chaos.harness`) — drives the real pipeline + server +
  service under a plan through their public injection seams;
- :class:`ClusterChaosHarness` / :class:`ClusterWorkload`
  (:mod:`repro.chaos.cluster`) — the ``shard`` fault class: shard
  crashes, slow shards, and rebalances against the sharded
  :class:`~repro.cluster.router.ClusterRouter`, certifying the same
  five invariants from the router journal, merged snapshot, and
  per-shard change logs;
- :class:`ChaosReport` / :class:`InvariantResult` /
  :func:`check_invariants` (:mod:`repro.chaos.report`) — certifies the
  five degradation invariants (no lost acked observations, no duplicate
  published patches, version monotonicity, bounded freshness lag, zero
  constraint violations served) from the run's :mod:`repro.obs` event
  stream, metrics, change log, and a constraint scan of the served map.

``python -m repro.cli chaos-bench`` runs the curated fault matrix;
``docs/OPERATIONS.md`` maps the symptoms these faults produce to the
metrics/events that surface them and the knobs that mitigate them.
"""

from repro.chaos.cluster import (
    ClusterChaosHarness,
    ClusterWorkload,
    canonical_map_bytes,
)
from repro.chaos.faults import (
    ALL_FAULT_POINTS,
    BUS_LEASE_STORM,
    BUS_SLOW_CONSUMER,
    CLUSTER_REBALANCE,
    CLUSTER_SHARD_CRASH,
    CLUSTER_SLOW_SHARD,
    FAULT_CLASSES,
    GEOMETRY_BROKEN_BOUNDARY,
    GEOMETRY_DEGENERATE_LANE,
    GEOMETRY_ORPHAN_REGULATORY,
    PIPELINE_POISON,
    PIPELINE_WORKER_CRASH,
    PUBLISH_CONFLICT,
    PUBLISH_TRANSIENT,
    SENSOR_CLOCK_SKEW,
    SENSOR_CORRUPT,
    SENSOR_DELAY,
    SENSOR_DROP,
    SENSOR_DUPLICATE,
    SERVE_HOT_SHARD,
    SERVE_SPIKE,
    FaultPlan,
    FaultPoint,
    FaultSpec,
    curated_matrix,
)
from repro.chaos.harness import ChaosHarness, ChaosWorkload
from repro.chaos.report import (
    ChaosReport,
    InvariantResult,
    check_invariants,
    check_served_map_clean,
)

__all__ = [
    "ALL_FAULT_POINTS",
    "BUS_LEASE_STORM",
    "BUS_SLOW_CONSUMER",
    "CLUSTER_REBALANCE",
    "CLUSTER_SHARD_CRASH",
    "CLUSTER_SLOW_SHARD",
    "FAULT_CLASSES",
    "GEOMETRY_BROKEN_BOUNDARY",
    "GEOMETRY_DEGENERATE_LANE",
    "GEOMETRY_ORPHAN_REGULATORY",
    "PIPELINE_POISON",
    "PIPELINE_WORKER_CRASH",
    "PUBLISH_CONFLICT",
    "PUBLISH_TRANSIENT",
    "SENSOR_CLOCK_SKEW",
    "SENSOR_CORRUPT",
    "SENSOR_DELAY",
    "SENSOR_DROP",
    "SENSOR_DUPLICATE",
    "SERVE_HOT_SHARD",
    "SERVE_SPIKE",
    "ChaosHarness",
    "ChaosReport",
    "ChaosWorkload",
    "ClusterChaosHarness",
    "ClusterWorkload",
    "FaultPlan",
    "FaultPoint",
    "FaultSpec",
    "InvariantResult",
    "canonical_map_bytes",
    "check_invariants",
    "check_served_map_clean",
    "curated_matrix",
]
