"""One-lock LRU cache of decoded tiles for the serving layer.

This is ``StreamingMap._tile`` plus a lock: one ``OrderedDict`` in recency
order, bounded at ``n_shards * tiles_per_shard`` tiles, behind one plain
``threading.Lock``. A hit is a lookup and a ``move_to_end`` under the lock;
a miss runs the loader *outside* it, then installs the tile and evicts from
the cold end.

Workers are CPU-bound under the GIL, so splitting the lock buys no
concurrency; splitting the *capacity* by tile hash made the cache 4-way
set-associative and cost 11 points of hit rate on a drive just larger than
the cache (DESIGN.md "Serving layer").

Only *decoded* tiles live here. An encoded tile payload is the stored blob
(``TileStore.encoded_view``) and never passes through the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.errors import StorageError
from repro.obs.metrics import Counter
from repro.obs.trace import TRACER


class ShardedTileCache:
    """A bounded LRU of decoded tiles; the two size arguments multiply."""

    def __init__(self, loader: Callable[[TileId], Optional[HDMap]],
                 n_shards: int = 8, tiles_per_shard: int = 16) -> None:
        if n_shards < 1 or tiles_per_shard < 1:
            raise StorageError("n_shards and tiles_per_shard must be >= 1")
        self._loader = loader
        self.capacity = n_shards * tiles_per_shard
        self._lock = threading.Lock()
        self._tiles: "OrderedDict[TileId, Optional[HDMap]]" = OrderedDict()
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = Counter()

    def get(self, tile: TileId) -> Optional[HDMap]:
        """Cached decoded tile, loading through ``loader`` on a miss.

        Two threads missing the same tile may both invoke the loader; the
        second install is discarded. The loader runs outside the lock so a
        slow (remote) blob fetch never blocks hits on other tiles.
        """
        span = TRACER.span("serve.cache.get")
        if span.context is None:
            return self._get(tile)[0]
        with span:
            value, hit = self._get(tile)
            span.set("tile", str(tile))
            span.set("hit", hit)
            return value

    def _get(self, tile: TileId) -> Tuple[Optional[HDMap], bool]:
        """(tile, was-a-hit) — the untraced lookup behind :meth:`get`."""
        tiles = self._tiles
        with self._lock:
            if tile in tiles:
                tiles.move_to_end(tile)
                self.hits.add()
                return tiles[tile], True
        value = self._loader(tile)
        self.misses.add()
        with self._lock:
            if tile in tiles:
                return tiles[tile], False
            tiles[tile] = value
            if len(tiles) > self.capacity:
                tiles.popitem(last=False)
                self.evictions.add()
        return value, False

    def resident_tiles(self) -> List[TileId]:
        with self._lock:
            return sorted(self._tiles)

    @property
    def hit_rate(self) -> float:
        hits, misses = self.hits.value, self.misses.value
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits.value,
            "misses": self.misses.value,
            "evictions": self.evictions.value,
            "hit_rate": self.hit_rate,
            "resident": len(self._tiles),
        }
