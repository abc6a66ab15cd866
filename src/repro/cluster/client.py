"""Cluster-side incremental sync: version vectors over per-shard deltas.

A single :class:`~repro.update.distribution.MapDistributionServer` has
one scalar version, so a vehicle syncs with "everything since N". A
cluster has one independent version sequence *per shard*, so the cluster
client tracks a **version vector** ``{shard: synced version}`` and the
router answers with a :class:`ClusterDelta` — one atomic
:class:`~repro.update.distribution.SyncDelta` per shard, ownership-
filtered so every element appears in exactly one shard's delta.

Convergence under rebalance: a new shard's history replays the journal,
so its delta since 0 can repeat changes the client already applied via
the previous owner. Applying a delta is idempotent per element (add of a
present element is a replace; remove of an absent one is a no-op), so
repeated delivery converges on the same local map — the count of applied
changes may overshoot, the state never diverges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.changes import MapChange
from repro.core.hdmap import HDMap
from repro.errors import ClusterError
from repro.serve.api import GetTile
from repro.update.distribution import SyncDelta, apply_changes

if TYPE_CHECKING:  # circular at runtime: the core builds ClusterDelta
    from repro.cluster.router import ClusterRouter


@dataclass
class ClusterDelta:
    """One incremental-sync payload spanning every shard.

    ``version`` is the aggregate cluster version at capture;
    ``versions[i]`` is shard *i*'s version its ``deltas[i]`` was captured
    at. Each per-shard delta is atomic (captured under that shard's
    server lock); the vector makes the whole payload resumable.
    """

    version: int
    versions: Dict[int, int]
    deltas: Dict[int, SyncDelta]

    def changes(self) -> List[Tuple[int, MapChange]]:
        """All changes as ``(shard, change)``, ordered by shard index
        then per-shard log order (the merge order `apply` uses)."""
        out: List[Tuple[int, MapChange]] = []
        for index in sorted(self.deltas):
            out.extend((index, change)
                       for change in self.deltas[index].changes)
        return out

    def __len__(self) -> int:
        return sum(len(d.changes) for d in self.deltas.values())


@dataclass
class ClusterMapClient:
    """A vehicle's local map kept current against a sharded cluster.

    The cluster analogue of
    :class:`~repro.update.distribution.VehicleMapClient`: bootstrap is a
    merged snapshot plus the version vector it was captured at; ``sync``
    fetches and applies one :class:`ClusterDelta`.
    """

    router: "ClusterRouter"
    local: HDMap = None  # type: ignore[assignment]
    vector: Dict[int, int] = field(default_factory=dict)
    bytes_downloaded: int = 0

    CHANGE_RECORD_BYTES = 48

    def __post_init__(self) -> None:
        if self.local is None:
            self.bootstrap()

    def bootstrap(self) -> None:
        """Full merged download (what incremental sync avoids): a copy
        of the router's bootstrap image, counted at its encoded size."""
        image = self.router.bootstrap_image()
        self.bytes_downloaded += image.encoded_bytes
        self.local = image.checkout()
        self.vector = dict(image.vector)

    def sync(self) -> int:
        """Incremental update; returns the number of changes applied."""
        return self.apply_delta(self.router.changes_since(self.vector))

    def apply_delta(self, delta: ClusterDelta) -> int:
        """Apply one :class:`ClusterDelta`; returns changes applied.

        Per-shard deltas at or before the client's synced version for
        that shard are skipped, so out-of-order delivery can never roll
        a shard's slice backwards.
        """
        if self.local is None:
            raise ClusterError("client has no local map; bootstrap first")
        applied = 0
        for index in sorted(delta.deltas):
            shard_delta = delta.deltas[index]
            if shard_delta.version <= self.vector.get(index, -1):
                continue
            applied += apply_changes(self.local, shard_delta)
            self.vector[index] = shard_delta.version
        self.bytes_downloaded += applied * self.CHANGE_RECORD_BYTES
        return applied

    def is_consistent(self) -> bool:
        """Local matches the cluster's merged snapshot id-for-id."""
        merged = self.router.bootstrap_image().map
        local_ids = {e.id for e in self.local.elements()}
        return {e.id for e in merged.elements()} == local_ids


def read_throughput(router: "ClusterRouter", requests: int,
                    clients: int) -> Tuple[float, int, float]:
    """Closed-loop encoded-GetTile load against a live router; returns
    ``(req/s, errors, elapsed_s)``.

    Clients are pinned to one shard and walk *disjoint* subsets of its
    tiles, so two clients never issue the same tile concurrently — the
    router's single-flight coalescing cannot share responses and the
    number measures backend capacity, nothing else.
    """
    by_shard: Dict[int, list] = {}
    for tile in router.tiles():
        by_shard.setdefault(router.owner_of_tile(tile), []).append(tile)
    shard_tiles = [by_shard[s] for s in sorted(by_shard)]
    n_lists = len(shard_tiles)
    errors = [0] * clients
    share = [requests // clients] * clients
    for i in range(requests % clients):
        share[i] += 1

    def worker(me: int) -> None:
        tiles = shard_tiles[me % n_lists]
        rank = me // n_lists
        peers = len(range(me % n_lists, clients, n_lists))
        mine = tiles[rank % len(tiles)::peers] or \
            [tiles[rank % len(tiles)]]
        for k in range(share[me]):
            tile = mine[k % len(mine)]
            if not router.request(GetTile(tile=tile, encoded=True)).ok:
                errors[me] += 1

    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    return (requests / elapsed if elapsed > 0 else 0.0,
            sum(errors), elapsed)
