"""Tile-based map streaming with an LRU working set.

The survey closes on the open problem of managing "enormous map data"
efficiently [73]: a vehicle cannot hold a country-scale HD map in memory.
``TileStore`` shards a map into compact-binary tiles; ``StreamingMap``
serves spatial queries out of a bounded LRU working set, loading and
evicting tiles as the query position moves — the access pattern a driving
vehicle produces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.elements import Lane, MapElement, PointLandmark
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId, TileScheme
from repro.errors import StorageError
from repro.storage.binary import decode_map, element_count, encode_map


@dataclass
class TileStoreStats:
    """Hit/load/eviction counters, safe to update from multiple threads.

    The plain integer fields stay readable directly; writers should go
    through the ``record_*`` methods, which serialize the read-modify-write
    under a lock (the serve layer updates one stats object from a worker
    pool).
    """

    loads: int = 0
    evictions: int = 0
    hits: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_load(self) -> None:
        with self._lock:
            self.loads += 1

    def record_eviction(self) -> None:
        with self._lock:
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.loads
        return self.hits / total if total else 0.0

    def __getstate__(self) -> Dict[str, int]:
        """Picklable counter state (the lock is dropped and recreated on
        load) so stats can cross a shard process boundary intact."""
        with self._lock:
            return {"loads": self.loads, "evictions": self.evictions,
                    "hits": self.hits}

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.loads = state["loads"]
        self.evictions = state["evictions"]
        self.hits = state["hits"]
        self._lock = threading.Lock()

    def as_dict(self) -> Dict[str, float]:
        """Point-in-time counter values for metrics export."""
        with self._lock:
            loads, evictions, hits = self.loads, self.evictions, self.hits
        total = hits + loads
        return {
            "loads": loads,
            "evictions": evictions,
            "hits": hits,
            "hit_rate": hits / total if total else 0.0,
        }


class TileStore:
    """Immutable sharded storage: one compact blob per non-empty tile.

    Two backends share the same interface: a plain in-memory dict of
    blobs (:meth:`build` / :meth:`from_blobs`), or a single mmap'd pack
    file (:meth:`from_pack`) whose tiles are served as zero-copy
    ``memoryview`` slices — see :mod:`repro.pack.format`.
    """

    def __init__(self, tile_size: float = 500.0) -> None:
        self.scheme = TileScheme(tile_size)
        self._blobs: Dict[TileId, bytes] = {}
        self._pack = None  # Optional[repro.pack.PackReader]
        self._visible: Optional[frozenset] = None  # pack-mode tile subset

    @staticmethod
    def build(hdmap: HDMap, tile_size: float = 500.0) -> "TileStore":
        """Shard ``hdmap`` into per-tile blobs.

        Elements spanning several tiles are replicated into each one they
        intersect (queries deduplicate by element id), so border elements
        are always found regardless of which tile a query lands in.
        """
        store = TileStore(tile_size)
        members: Dict[TileId, List[MapElement]] = {}
        for element in hdmap.elements():
            try:
                bounds = element.bounds()
            except NotImplementedError:
                continue  # regulatory elements are not spatial
            for tile in store.scheme.tiles_for_bounds(bounds):
                members.setdefault(tile, []).append(element)
        for tile, elements in members.items():
            shard = HDMap(f"{hdmap.name}@{tile}")
            for element in elements:
                shard.add(element)
            store._blobs[tile] = encode_map(shard)
        return store

    @staticmethod
    def from_blobs(blobs: Dict[TileId, bytes],
                   tile_size: float = 500.0) -> "TileStore":
        """A store over pre-encoded tile blobs (no re-partitioning).

        The cluster layer uses this to hand each shard process exactly
        its owned tiles' blobs — byte-identical to the slices of a
        full-map :meth:`build`, so ``GetTile`` payloads do not depend on
        which shard serves them.
        """
        store = TileStore(tile_size)
        store._blobs = dict(blobs)
        return store

    @staticmethod
    def from_pack(path: str, tile_size: Optional[float] = None,
                  tiles: Optional[List[TileId]] = None) -> "TileStore":
        """A store over an mmap'd pack file (see :class:`repro.pack.PackReader`).

        ``tile_size`` defaults to the size recorded in the pack header.
        ``tiles`` restricts the visible subset — the cluster layer hands
        each shard the same shared pack file plus its owned tile list, so
        shards never copy blobs across the fork boundary.
        """
        from repro.pack.format import PackReader

        reader = PackReader(path)
        if tile_size is None:
            tile_size = reader.tile_size
        if tile_size <= 0:
            reader.close()
            raise StorageError(
                f"pack {path!r} records no tile size; pass tile_size=")
        store = TileStore(tile_size)
        store._pack = reader
        if tiles is not None:
            store._visible = frozenset(tiles) & frozenset(reader.tiles())
        return store

    def to_pack(self, path: str) -> int:
        """Write this store's tiles into a pack file; returns tile count."""
        from repro.pack.format import PackWriter

        with PackWriter(path, tile_size=self.scheme.tile_size) as writer:
            for tile in self.tiles():
                blob = self._blobs[tile] if self._pack is None \
                    else bytes(self._pack.get(tile))
                writer.add(tile, blob, n_elements=element_count(blob))
            return writer.publish()

    @property
    def pack_backed(self) -> bool:
        """True when tiles live in an mmap'd pack file, not a dict."""
        return self._pack is not None

    @property
    def pack_reader(self):
        """The underlying :class:`repro.pack.PackReader`, or ``None``."""
        return self._pack

    def _pack_tiles(self) -> List[TileId]:
        if self._visible is None:
            return self._pack.tiles()
        return sorted(self._visible)

    def tiles(self) -> List[TileId]:
        if self._pack is not None:
            return self._pack_tiles()
        return sorted(self._blobs)

    def total_bytes(self) -> int:
        if self._pack is not None:
            return sum(self._pack.entry(t).length for t in self._pack_tiles())
        return sum(len(b) for b in self._blobs.values())

    def blob_bytes(self, tile: TileId) -> int:
        if self._pack is not None:
            entry = self._pack.entry(tile) if self._has_tile(tile) else None
            return entry.length if entry is not None else 0
        return len(self._blobs.get(tile, b""))

    def largest_tile(self) -> Optional[Tuple[TileId, int]]:
        """The heaviest shard — the serving hot spot to watch for."""
        tiles = self.tiles()
        if not tiles:
            return None
        tile = max(tiles, key=self.blob_bytes)
        return tile, self.blob_bytes(tile)

    def _has_tile(self, tile: TileId) -> bool:
        if self._visible is not None and tile not in self._visible:
            return False
        return self._pack.entry(tile) is not None

    def contains(self, tile: TileId) -> bool:
        """Whether ``tile`` has a blob, without decoding anything.

        O(1) either way (dict membership or pack index probe) — the
        serve layer uses this to short-circuit absent tiles before the
        cache materializes them.
        """
        if self._pack is not None:
            return self._has_tile(tile)
        return tile in self._blobs

    def encoded_view(self, tile: TileId
                     ) -> Optional[Union[bytes, memoryview]]:
        """The encoded payload of ``tile``: its stored blob, uncopied.

        This is *the* definition of an encoded tile payload for both
        backends — the ``bytes`` object a dict-backed store holds, or a
        ``memoryview`` slice of the mmap for a pack-backed one. ``None``
        for tiles the store lacks.
        """
        if self._pack is None:
            return self._blobs.get(tile)
        if not self._has_tile(tile):
            return None
        return self._pack.get(tile)

    def load_tile(self, tile: TileId) -> Optional[HDMap]:
        if self._pack is not None:
            if not self._has_tile(tile):
                return None
            return self._pack.load(tile)
        blob = self._blobs.get(tile)
        if blob is None:
            return None
        return decode_map(blob)


class StreamingMap:
    """A bounded-memory map view backed by a :class:`TileStore`.

    Queries hit only the tiles intersecting the query region; tiles are
    decoded on demand and evicted LRU once ``max_tiles`` are resident.
    """

    def __init__(self, store: TileStore, max_tiles: int = 9) -> None:
        if max_tiles < 1:
            raise StorageError("max_tiles must be >= 1")
        self.store = store
        self.max_tiles = max_tiles
        self._resident: "OrderedDict[TileId, Optional[HDMap]]" = OrderedDict()
        self.stats = TileStoreStats()

    # ------------------------------------------------------------------
    def _tile(self, tile: TileId) -> Optional[HDMap]:
        if tile in self._resident:
            self._resident.move_to_end(tile)
            self.stats.record_hit()
            return self._resident[tile]
        shard = self.store.load_tile(tile)
        self.stats.record_load()
        self._resident[tile] = shard
        while len(self._resident) > self.max_tiles:
            self._resident.popitem(last=False)
            self.stats.record_eviction()
        return shard

    def resident_tiles(self) -> List[TileId]:
        return list(self._resident)

    def resident_bytes(self) -> int:
        """Approximate working-set size: encoded size of resident tiles."""
        return sum(self.store.blob_bytes(t) for t in self._resident)

    # ------------------------------------------------------------------
    def elements_in_radius(self, x: float, y: float, radius: float
                           ) -> List[MapElement]:
        out: List[MapElement] = []
        seen = set()
        bounds = (x - radius, y - radius, x + radius, y + radius)
        for tile in self.store.scheme.tiles_for_bounds(bounds):
            shard = self._tile(tile)
            if shard is None:
                continue
            for element in shard.elements_in_radius(x, y, radius):
                if element.id not in seen:
                    seen.add(element.id)
                    out.append(element)
        return out

    def landmarks_in_radius(self, x: float, y: float, radius: float
                            ) -> List[PointLandmark]:
        out: List[PointLandmark] = []
        seen = set()
        bounds = (x - radius, y - radius, x + radius, y + radius)
        for tile in self.store.scheme.tiles_for_bounds(bounds):
            shard = self._tile(tile)
            if shard is None:
                continue
            for lm in shard.landmarks_in_radius(x, y, radius):
                if lm.id not in seen:
                    seen.add(lm.id)
                    out.append(lm)
        return out

    def nearest_lane(self, x: float, y: float,
                     search_radius: float = 100.0) -> Tuple[Lane, float]:
        best: Optional[Lane] = None
        best_d = float("inf")
        point = np.array([x, y])
        for element in self.elements_in_radius(x, y, search_radius):
            if isinstance(element, Lane):
                d = element.centerline.distance_to(point)
                if d < best_d:
                    best, best_d = element, d
        if best is None:
            raise StorageError(
                f"no lane within {search_radius} m of ({x:.0f}, {y:.0f})")
        return best, best_d
