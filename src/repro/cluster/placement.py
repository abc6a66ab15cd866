"""Placement: where the cluster's data lives, and what a shard boots from.

Pure data, no I/O, held by :class:`~repro.cluster.protocol.RouterCore`:
tile ownership (:class:`Ownership`), each element's first home tile and
the one ownership rule over it (:meth:`Placement.home`), the base map's
tile partition, and the one replay rule (:meth:`Placement.config`) that
turns a shard's boot facts and the journal into its :class:`ShardConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.shard import ShardConfig
from repro.core.changes import ChangeType, MapChange
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import (TileId, TileScheme, consistent_hash_owner,
                              ownership_map)
from repro.core.versioning import (AddElement, MapPatch, RemoveElement,
                                   ReplaceElement)
from repro.storage.binary import encode_map

#: ``element_tile`` lookup default: ``None`` is a real home (non-spatial).
_UNKNOWN = object()

_CHANGE_FOR_OP = {
    AddElement: ChangeType.ADDED,
    RemoveElement: ChangeType.REMOVED,
    ReplaceElement: ChangeType.MODIFIED,
}


class Ownership:
    """Tile → shard for one shard count: rendezvous hashing, memoised
    over the base map's tiles. A tile outside them hashes on demand;
    ``None`` (a non-spatial element's home) lives on shard 0."""

    def __init__(self, tiles: Iterable[TileId], n_shards: int) -> None:
        self.n_shards = n_shards
        self.tiles = ownership_map(tiles, n_shards)

    def shard(self, tile: Optional[TileId]) -> int:
        if tile is None:
            return 0
        got = self.tiles.get(tile)
        if got is not None:
            return got
        return consistent_hash_owner(tile, self.n_shards)


@dataclass
class JournalEntry:
    """One acked sub-patch: the ops a shard actually applied."""

    shard: int  # the shard that acked it
    source: str
    confidence: float
    ops: List[Tuple[Optional[TileId], object]]  # (home tile, PatchOp)


def applied_ops(tile_ops, changes) -> List[Tuple]:
    """Which of ``tile_ops`` the shard applied: changes are logged in
    op order, so an in-order match on (element id, change type)."""
    out = []
    it = iter(changes)
    change: Optional[MapChange] = next(it, None)
    for tile, op in tile_ops:
        if change is None:
            break
        eid = op.element_id if isinstance(op, RemoveElement) \
            else op.element.id
        if (change.element_id == eid
                and change.change_type is _CHANGE_FOR_OP[type(op)]):
            out.append((tile, op))
            change = next(it, None)
    return out


class Placement:
    """The base map split by tile, current ownership, and element homes.
    ``shard_knobs`` are the :class:`ShardConfig` serving fields every
    shard boots with."""

    def __init__(self, hdmap: HDMap, blobs: Dict[TileId, bytes],
                 tile_size: float, n_shards: int, pack_path: Optional[str],
                 shard_knobs: Dict[str, Any]) -> None:
        self.name = hdmap.name
        self.pack_path = pack_path
        self.shard_knobs = shard_knobs
        self.scheme = TileScheme(tile_size)
        self.blobs = blobs
        self.partition = self.scheme.partition(hdmap)
        self.element_tile: Dict[ElementId, Optional[TileId]] = {}
        for tile, elements in self.partition.items():
            for element in elements:
                self.element_tile[element.id] = tile
        # Non-spatial elements have no tile: they live on shard 0.
        self.nonspatial = [e for e in hdmap.elements()
                           if e.id not in self.element_tile]
        for element in self.nonspatial:
            self.element_tile[element.id] = None
        self.all_tiles = sorted(set(blobs) | set(self.partition))
        self.ownership = Ownership(self.all_tiles, n_shards)

    def centre_tile(self, element) -> Optional[TileId]:
        try:
            min_x, min_y, max_x, max_y = element.bounds()
        except NotImplementedError:
            return None
        return self.scheme.tile_of((min_x + max_x) / 2.0,
                                   (min_y + max_y) / 2.0)

    def home(self, eid: ElementId, where: Callable[[], Optional[TileId]]
             ) -> Tuple[Optional[TileId], int]:
        """The ownership rule: ``(home tile, owning shard)`` of ``eid``.
        An element keeps its first home tile for good, so removes and
        replaces follow the add; an unseen id is homed at ``where()``."""
        tile = self.element_tile.get(eid, _UNKNOWN)
        if tile is _UNKNOWN:
            tile = where()
        return tile, self.ownership.shard(tile)

    def settle(self, applied) -> None:
        """Record the first home of every element ``applied`` added."""
        for tile, op in applied:
            if isinstance(op, (AddElement, ReplaceElement)):
                self.element_tile.setdefault(op.element.id, tile)

    def config(self, index: int, boot: Ownership, boot_seq: int,
               journal: List[JournalEntry]) -> ShardConfig:
        """The replay rule: shard ``index`` boots from the base subset of
        the tiles ``boot`` gave it, the first ``boot_seq`` journal
        entries filtered by ``boot``, then every entry it acked. A
        restart comes back at the exact version it had acked, even after
        a rebalance moved tiles away."""
        owned = [tile for tile in self.all_tiles
                 if boot.shard(tile) == index]
        base = HDMap(f"{self.name}-shard{index}")
        for tile in owned:
            for element in self.partition.get(tile, []):
                base.add(element)
        if index == 0:
            for element in self.nonspatial:
                base.add(element)
        owned_blob_tiles = [tile for tile in owned if tile in self.blobs]
        replay: List[MapPatch] = []
        for k, entry in enumerate(journal):
            if k < boot_seq:
                ops = [op for tile, op in entry.ops
                       if boot.shard(tile) == index]
            elif entry.shard == index:
                ops = [op for _, op in entry.ops]
            else:
                continue
            if ops:
                replay.append(MapPatch(ops=ops, source=entry.source,
                                       confidence=entry.confidence))
        packed = self.pack_path is not None
        return ShardConfig(
            index=index, tile_size=self.scheme.tile_size,
            base_map_bytes=encode_map(base),
            blobs={} if packed else {tile: self.blobs[tile]
                                     for tile in owned_blob_tiles},
            replay=replay, name=f"{self.name}-shard",
            pack_path=self.pack_path,
            owned_tiles=owned_blob_tiles if packed else [],
            **self.shard_knobs)
