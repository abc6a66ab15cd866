"""Sharded read-write-locked tile cache for the serving layer.

A single ``StreamingMap`` LRU is correct for one vehicle but serializes a
fleet: every query mutates one ``OrderedDict``. Here the tile plane is hashed
across independent shards; each shard takes a shared (read) lock on the hit
path and an exclusive (write) lock only to install or evict entries, so
concurrent readers of hot tiles never queue behind each other.

Recency is tracked with a per-tile logical timestamp written on the read
path. A CPython dict store of an int is atomic under the GIL, so hits can
refresh recency without upgrading to the write lock; eviction (under the
write lock) removes the least-recently-touched tile.

Only *decoded* tiles live here. An encoded tile payload is the stored blob
(``TileStore.encoded_view``) and never passes through the cache.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.errors import StorageError
from repro.obs.metrics import Counter
from repro.obs.trace import TRACER


class RWLock:
    """Many concurrent readers or one exclusive writer, writer-preferring.

    Writers that are waiting block new readers, so a stream of cache hits
    cannot starve an eviction or invalidation.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class _Shard:
    __slots__ = ("lock", "items", "recency")

    def __init__(self) -> None:
        self.lock = RWLock()
        self.items: Dict[TileId, Optional[HDMap]] = {}
        self.recency: Dict[TileId, int] = {}


class ShardedTileCache:
    """A bounded tile cache partitioned into independently locked shards."""

    def __init__(self, loader: Callable[[TileId], Optional[HDMap]],
                 n_shards: int = 8, tiles_per_shard: int = 16) -> None:
        if n_shards < 1 or tiles_per_shard < 1:
            raise StorageError("n_shards and tiles_per_shard must be >= 1")
        self._loader = loader
        self._shards = [_Shard() for _ in range(n_shards)]
        self.tiles_per_shard = tiles_per_shard
        self._clock = itertools.count(1)
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = Counter()

    def _shard_for(self, tile: TileId) -> _Shard:
        return self._shards[hash((tile.tx, tile.ty)) % len(self._shards)]

    def get(self, tile: TileId) -> Optional[HDMap]:
        """Cached decoded tile, loading through ``loader`` on a miss.

        Two threads missing the same tile may both invoke the loader; the
        second install is discarded. The loader runs outside every lock so a
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
        shard = self._shard_for(tile)
        with shard.lock.read():
            if tile in shard.items:
                shard.recency[tile] = next(self._clock)
                self.hits.add()
                return shard.items[tile], True
        value = self._loader(tile)
        self.misses.add()
        with shard.lock.write():
            if tile not in shard.items:
                shard.items[tile] = value
                shard.recency[tile] = next(self._clock)
                while len(shard.items) > self.tiles_per_shard:
                    victim = min(shard.recency, key=shard.recency.get)
                    del shard.items[victim]
                    del shard.recency[victim]
                    self.evictions.add()
            else:
                value = shard.items[tile]
        return value, False

    def invalidate(self, tiles: Optional[List[TileId]] = None) -> None:
        """Drop specific tiles (or everything when ``tiles`` is None)."""
        if tiles is None:
            for shard in self._shards:
                with shard.lock.write():
                    shard.items.clear()
                    shard.recency.clear()
            return
        for tile in tiles:
            shard = self._shard_for(tile)
            with shard.lock.write():
                shard.items.pop(tile, None)
                shard.recency.pop(tile, None)

    def resident_tiles(self) -> List[TileId]:
        out: List[TileId] = []
        for shard in self._shards:
            with shard.lock.read():
                out.extend(shard.items)
        return sorted(out)

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
            "resident": len(self.resident_tiles()),
        }
