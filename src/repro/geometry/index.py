"""Uniform-grid spatial index for map elements.

HD maps are queried constantly by position (nearest lane, elements within a
sensor radius), and the survey highlights efficient spatial data management
as an open need [73]. A uniform grid hash is the right tool for the
road-network densities involved: O(1) insertion and query cost proportional
to the local element count.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Callable, Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

from repro.errors import GeometryError
from repro.perf.instrument import timed

K = TypeVar("K", bound=Hashable)

Bounds = Tuple[float, float, float, float]

#: Most cells one key may cover. A real element spans a handful; bounds
#: decoded from corrupt bytes or sent in a hostile patch can span
#: billions, and enumerating them would exhaust memory long before it
#: finished (256 x 256 cells is a 25 km square on the map's 100 m grid).
MAX_CELLS_PER_KEY = 65_536


class GridIndex(Generic[K]):
    """A uniform grid hash mapping cells to element keys.

    Elements are inserted with an axis-aligned bounding box and retrieved by
    point, box, or radius queries. Candidate sets are exact supersets; exact
    geometric filtering is the caller's job (it owns the real geometry).
    """

    def __init__(self, cell_size: float = 50.0) -> None:
        if cell_size <= 0:
            raise GeometryError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], Set[K]] = defaultdict(set)
        self._bounds: Dict[K, Bounds] = {}
        # Monotonic insertion ticket per key: queries sort hits by it, which
        # is process-deterministic (sets iterate in randomized hash order)
        # without paying a repr() per hit on every query.
        self._order: Dict[K, int] = {}
        self._ticket = itertools.count()

    def __len__(self) -> int:
        return len(self._bounds)

    def __contains__(self, key: K) -> bool:
        return key in self._bounds

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)

    def _cells_for_bounds(self, bounds: Bounds) -> Iterable[Tuple[int, int]]:
        min_x, min_y, max_x, max_y = bounds
        c0 = self._cell_of(min_x, min_y)
        c1 = self._cell_of(max_x, max_y)
        for cx in range(c0[0], c1[0] + 1):
            for cy in range(c0[1], c1[1] + 1):
                yield (cx, cy)

    def insert(self, key: K, bounds: Bounds) -> None:
        """Insert (or re-insert) ``key`` covering ``bounds``.

        Inverted, non-finite, or absurdly large bounds (more than
        :data:`MAX_CELLS_PER_KEY` cells) raise :class:`GeometryError`
        and leave the index as it was.
        """
        min_x, min_y, max_x, max_y = bounds
        if not (min_x <= max_x and min_y <= max_y
                and math.isfinite(min_x) and math.isfinite(min_y)
                and math.isfinite(max_x) and math.isfinite(max_y)):
            raise GeometryError(f"invalid bounds {bounds}")
        cx0, cy0 = self._cell_of(min_x, min_y)
        cx1, cy1 = self._cell_of(max_x, max_y)
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > MAX_CELLS_PER_KEY:
            raise GeometryError(
                f"bounds {bounds} cover more than {MAX_CELLS_PER_KEY} cells")
        if key in self._bounds:
            self.remove(key)
        self._bounds[key] = bounds
        self._order[key] = next(self._ticket)
        cells = self._cells
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                cells[(cx, cy)].add(key)

    def remove(self, key: K) -> None:
        bounds = self._bounds.pop(key, None)
        self._order.pop(key, None)
        if bounds is None:
            return
        self._uncover(key, bounds)

    def _uncover(self, key: K, bounds: Bounds) -> None:
        for cell in self._cells_for_bounds(bounds):
            members = self._cells.get(cell)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._cells[cell]

    def reindexed(self, items: Iterable[Tuple[K, Bounds]]) -> "GridIndex[K]":
        """A new index equal to inserting ``items`` into an empty one, in
        order, built from a copy of this index's cells.

        ``items`` holds every key indexed here, once each. Tickets follow
        its order; only a key whose bounds differ from the ones indexed
        here pays an insert's cell walk.
        """
        out: GridIndex[K] = GridIndex(self.cell_size)
        out._cells.update((cell, set(members))
                          for cell, members in self._cells.items())
        bounds_of, order, indexed = out._bounds, out._order, self._bounds
        for ticket, (key, bounds) in enumerate(items):
            old = indexed.get(key)
            if old != bounds:
                if old is not None:
                    out._uncover(key, old)
                # insert() validates and covers; it also sets the key's
                # ticket, which the assignment below overrides.
                out.insert(key, bounds)
            bounds_of[key] = bounds
            order[key] = ticket
        out._ticket = itertools.count(len(order))
        return out

    @timed("grid.query_box")
    def query_box(self, bounds: Bounds) -> List[K]:
        """Keys whose bounds intersect the query box (insertion order)."""
        qx0, qy0, qx1, qy1 = bounds
        seen: Set[K] = set()
        hits: List[K] = []
        for cell in self._cells_for_bounds(bounds):
            for key in self._cells.get(cell, ()):
                if key in seen:
                    continue
                seen.add(key)
                bx0, by0, bx1, by1 = self._bounds[key]
                if bx0 <= qx1 and bx1 >= qx0 and by0 <= qy1 and by1 >= qy0:
                    hits.append(key)
        hits.sort(key=self._order.__getitem__)
        return hits

    def query_radius(self, x: float, y: float, radius: float) -> List[K]:
        """Keys whose bounds intersect a circle (conservative box prefilter)."""
        box = (x - radius, y - radius, x + radius, y + radius)
        return self.query_box(box)

    def nearest(self, x: float, y: float,
                distance_fn: Callable[[K], float],
                max_radius: float = 1e4) -> Tuple[K, float]:
        """Nearest key by a caller-supplied exact distance function.

        Expands the search ring until a hit is found, then runs exactly one
        verification query whose ring covers every candidate that could
        still beat the hit (clamped to ``max_radius``) — no further
        doublings once something has been found.
        """
        if not self._bounds:
            raise GeometryError("nearest() on an empty index")
        radius = self.cell_size
        best_key = None
        best_dist = float("inf")
        while radius <= max_radius:
            for key in self.query_radius(x, y, radius):
                d = distance_fn(key)
                if d < best_dist:
                    best_key, best_dist = key, d
            if best_key is not None:
                if best_dist <= radius:
                    return best_key, best_dist
                # Any key closer than best_dist has bounds intersecting the
                # best_dist circle; one clamped ring verifies the hit.
                for key in self.query_radius(x, y, min(best_dist, max_radius)):
                    d = distance_fn(key)
                    if d < best_dist:
                        best_key, best_dist = key, d
                return best_key, best_dist
            radius *= 2.0
        # Fall back to a full scan; max_radius was too small.
        for key in self._bounds:
            d = distance_fn(key)
            if d < best_dist:
                best_key, best_dist = key, d
        return best_key, best_dist

    def keys(self) -> Iterable[K]:
        return self._bounds.keys()
