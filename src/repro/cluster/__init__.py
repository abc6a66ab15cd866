"""``repro.cluster``: multi-process sharded serving with a routing tier.

The single-node stack tops out at one process's worth of workers; this
package splits the map by consistent-hashed tile ownership into N shard
processes — each a full ``MapDistributionServer`` + ``TileStore`` +
``MapService`` over its tile subset — fronted by a thin
:class:`ClusterRouter` that pins point requests to the owning shard,
scatter-gathers the rest, journals every acked write, and restarts or
fails over shards from that journal. See ``DESIGN.md`` ("Cluster") for
the ownership/failover walkthrough.
"""

from repro.cluster.client import (
    ClusterDelta,
    ClusterMapClient,
    read_throughput,
)
from repro.cluster.router import (
    ClusterRouter,
    LocalShard,
    ProcessShard,
    TelemetryHarvester,
    estimate_clock_offset,
)
from repro.cluster.rpc import (
    PipelinedConnection,
    RpcError,
    ShardDead,
    ShardTimeout,
)
from repro.cluster.shard import ShardBackend, ShardConfig, shard_main

__all__ = [
    "ClusterDelta",
    "ClusterMapClient",
    "ClusterRouter",
    "LocalShard",
    "PipelinedConnection",
    "ProcessShard",
    "RpcError",
    "ShardBackend",
    "ShardConfig",
    "ShardDead",
    "ShardTimeout",
    "TelemetryHarvester",
    "estimate_clock_offset",
    "read_throughput",
    "shard_main",
]
