"""Seed → inputs. Everything random about a run is decided here, before
any timing starts; the program under test only ever sees the tape.

Two kinds of randomness, kept apart on purpose:

- the **world** — the base map, the changed reality of ``ingest_sync``
  and the roads its fleet drove — is a fixture built from
  ``WORLD_SEED``. It is the database the traffic runs against, and it
  fixes how much work a pass is;
- the **traffic** — routes, request order, write positions, which
  reports are re-sent and how the fleet's streams interleave — comes
  from ``--seed``: the same seed gives the same tape.

A run on another seed is then another sample of the same workload, not
another workload; that is what lets ten seeds agree within a bound.
Each tape draws from its own ``numpy`` stream keyed by
``(seed, tag, client)`` so adding a workload never shifts another
workload's inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.elements import Lane, SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import TileId
from repro.core.versioning import MapPatch
from repro.ingest import FleetObservationSource, IngestPipeline, Observation
from repro.storage.tilestore import StreamingMap, TileStore
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city
from repro.world.scenario import ChangeSpec, Scenario, apply_changes

from harness import N_CLIENTS

#: tile sizes (m): the cluster serves 36 coarse tiles, the local
#: spatial service 196 fine ones so its 32-tile cache is too small
CLUSTER_TILE_SIZE = 250.0
LOCAL_TILE_SIZE = 100.0

#: every Nth SpatialQuery is checked against a plain StreamingMap answer
SPATIAL_CHECK_EVERY = 50

#: ids of signs the benchmark writes start here, far above anything the
#: generator allocates, so a write never collides with a base element
BENCH_SIGN_BASE = 10_000_000


def _rng(seed: int, tag: int, client: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, tag, client])


WORLD_SEED = 7


def make_map() -> HDMap:
    """The base map of every workload: a 6x6-block grid city
    (1 429 elements)."""
    return generate_grid_city(np.random.default_rng(WORLD_SEED), 6, 6)


def new_sign(num: int, xy: Tuple[float, float]) -> MapPatch:
    """A one-op patch adding one traffic sign (the unit write)."""
    sign = TrafficSign(id=ElementId("sign", num), position=np.array(xy),
                       sign_type=SignType.DIRECTION)
    return MapPatch(source="macrobench", confidence=0.9).add(sign)


def _uniform_xy(rng: np.random.Generator,
                bounds: Tuple[float, float, float, float]
                ) -> Tuple[float, float]:
    min_x, min_y, max_x, max_y = bounds
    return (float(rng.uniform(min_x, max_x)),
            float(rng.uniform(min_y, max_y)))


# ---------------------------------------------------------------------------
# cluster_tile_read
# ---------------------------------------------------------------------------

#: neighbourhood steps per client per pass (9 GetTile each)
TILE_READ_STEPS = 500


def tile_read_tape(seed: int, tiles: List[TileId]
                   ) -> List[List[List[TileId]]]:
    """Per client, a random walk over tile centres; each step is the
    3x3 neighbourhood a vehicle keeps resident. The walk stays on
    centres whose whole neighbourhood exists, so every step is exactly
    nine requests and none can miss."""
    have = set(tiles)

    def hood(t: TileId) -> List[TileId]:
        return [TileId(t.tx + dx, t.ty + dy)
                for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    centres = sorted(t for t in tiles if all(n in have for n in hood(t)))
    inner = set(centres)
    tapes = []
    for client in range(N_CLIENTS):
        rng = _rng(seed, 1, client)
        at = centres[int(rng.integers(0, len(centres)))]
        steps = []
        for _ in range(TILE_READ_STEPS):
            steps.append(hood(at))
            moves = [TileId(at.tx + dx, at.ty + dy)
                     for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                     if TileId(at.tx + dx, at.ty + dy) in inner]
            at = moves[int(rng.integers(0, len(moves)))]
        tapes.append(steps)
    return tapes


# ---------------------------------------------------------------------------
# local_spatial_drive
# ---------------------------------------------------------------------------

VEHICLES_PER_CLIENT = 3
SPATIAL_RADIUS_M = 80.0
QUERY_SPACING_M = 28.0         # ~2 s of driving at the city speed limit
MIN_STREET_LENGTH_M = 100.0    # shorter lanes are turn connectors


@dataclass
class SpatialOp:
    x: float
    y: float
    landmarks_only: bool
    #: ids a plain StreamingMap returns, on every Nth op; else None
    expected: Optional[FrozenSet[ElementId]] = None
    #: encoded size of the tiles the query has to look at
    tile_bytes: int = 0


def _reference_ids(ref: StreamingMap, op: SpatialOp, radius: float
                   ) -> FrozenSet[ElementId]:
    found = (ref.landmarks_in_radius(op.x, op.y, radius)
             if op.landmarks_only
             else ref.elements_in_radius(op.x, op.y, radius))
    return frozenset(e.id for e in found)


def _streets(hdmap: HDMap) -> List[Lane]:
    """One lane per street: of the lanes sharing a pair of end points
    (the two driving directions), the one with the smallest id."""
    by_ends = {}
    for lane in sorted(hdmap.lanes(), key=lambda lane: lane.id):
        if lane.length < MIN_STREET_LENGTH_M:
            continue
        points = lane.centerline.points
        ends = frozenset((round(float(p[0]) / 20.0), round(float(p[1]) / 20.0))
                         for p in (points[0], points[-1]))
        by_ends.setdefault(ends, lane)
    return list(by_ends.values())


def spatial_drive_tape(seed: int, hdmap: HDMap) -> List[List[SpatialOp]]:
    """Per client, three vehicles' positions interleaved round robin,
    alternating full and landmarks-only queries.

    Every street of the city is driven exactly once per pass, a query
    every 28 m; the seed decides which of the six vehicles drives which
    street, and when. The queries of a pass are thus the same set on
    every seed and only their interleaving — what the cache sees —
    differs. (With free random routes the misses per query differed by
    20 % between seeds: a few routes hugging the city edge, where half
    the tiles are empty, are a different workload.)"""
    streets = _streets(hdmap)
    store = TileStore.build(hdmap, LOCAL_TILE_SIZE)
    ref = StreamingMap(store, max_tiles=64)
    reach = SPATIAL_RADIUS_M
    rng = _rng(seed, 2)
    n_vehicles = N_CLIENTS * VEHICLES_PER_CLIENT
    drives: List[List[Tuple[float, float]]] = [[] for _ in range(n_vehicles)]
    for turn, pick in enumerate(rng.permutation(len(streets))):
        line = streets[int(pick)].centerline
        for k in range(int(line.length // QUERY_SPACING_M)):
            x, y = line.point_at(QUERY_SPACING_M * (k + 0.5))[:2]
            drives[turn % n_vehicles].append((float(x), float(y)))
    per_vehicle = min(len(drive) for drive in drives)
    tapes = []
    for client in range(N_CLIENTS):
        mine = drives[client * VEHICLES_PER_CLIENT:
                      (client + 1) * VEHICLES_PER_CLIENT]
        tape: List[SpatialOp] = []
        for k in range(per_vehicle):
            for v, drive in enumerate(mine):
                x, y = drive[k]
                op = SpatialOp(x, y, (k + v) % 2 == 0, tile_bytes=sum(
                    store.blob_bytes(tile)
                    for tile in store.scheme.tiles_for_bounds(
                        (x - reach, y - reach, x + reach, y + reach))))
                if len(tape) % SPATIAL_CHECK_EVERY == 0:
                    op.expected = _reference_ids(ref, op, SPATIAL_RADIUS_M)
                tape.append(op)
        tapes.append(tape)
    return tapes


# ---------------------------------------------------------------------------
# ingest_sync
# ---------------------------------------------------------------------------

INGEST_VEHICLES = 8
INGEST_ROUTES_PER_VEHICLE = 3
INGEST_ROUTE_LENGTH_M = 3000.0
INGEST_DUPLICATE_RATE = 0.05
INGEST_CHANGED_SIGNS = 12      # removed, and as many added


@dataclass
class IngestTape:
    scenario: Scenario
    observations: List[Observation]
    #: versions a single-worker reference pipeline publishes for the tape
    reference_versions: int
    #: elements in the reference map once every change is applied
    reference_elements: int

    def fresh(self) -> List[Observation]:
        """Copies for one epoch (the bus stamps what it is handed)."""
        return [dataclasses.replace(o) for o in self.observations]


def ingest_pipeline(server: MapDistributionServer, n_workers: int
                    ) -> IngestPipeline:
    """The pipeline configuration every ingest measurement uses."""
    return IngestPipeline(server, tile_size=CLUSTER_TILE_SIZE,
                          n_workers=n_workers, n_partitions=8,
                          capacity_per_partition=8192, verify=True,
                          stage_latency_s=0.0)


def ingest_tape(seed: int, hdmap: HDMap) -> IngestTape:
    """A fleet's observation burst over a world that lost 12 signs and
    gained 12. The world and the drives are fixtures; the seed decides
    how the eight vehicles' report streams interleave in the burst and
    which reports the at-least-once uplink sends twice. Built once: the
    synthetic sensor costs milliseconds per observation, which is the
    benchmark's cost and not the program's."""
    world = _rng(WORLD_SEED, 3)
    scenario = apply_changes(
        hdmap, ChangeSpec(remove_signs=INGEST_CHANGED_SIGNS,
                          add_signs=INGEST_CHANGED_SIGNS), world)
    source = FleetObservationSource(
        scenario, n_vehicles=INGEST_VEHICLES,
        routes_per_vehicle=INGEST_ROUTES_PER_VEHICLE,
        route_length_m=INGEST_ROUTE_LENGTH_M, seed=WORLD_SEED)
    streams = [source.observations_for_vehicle(idx)
               for idx in range(INGEST_VEHICLES)]
    rng = _rng(seed, 3)
    cursors = [0] * len(streams)
    observations: List[Observation] = []
    while True:
        live = [i for i, stream in enumerate(streams)
                if cursors[i] < len(stream)]
        if not live:
            break
        pick = live[int(rng.integers(0, len(live)))]
        obs = streams[pick][cursors[pick]]
        cursors[pick] += 1
        observations.append(obs)
        if rng.uniform() < INGEST_DUPLICATE_RATE:
            observations.append(dataclasses.replace(obs))
    tape = IngestTape(scenario, observations, 0, 0)
    server = MapDistributionServer(scenario.prior.copy())
    with ingest_pipeline(server, n_workers=1) as pipe:
        for obs in tape.fresh():
            pipe.submit(obs)
        if not pipe.drain(60.0):
            raise RuntimeError("reference ingest run did not drain")
    tape.reference_versions = server.version
    tape.reference_elements = len(server.element_ids())
    return tape


# ---------------------------------------------------------------------------
# cluster_mixed_rw
# ---------------------------------------------------------------------------

MIXED_CYCLE = {"get": 85, "query": 8, "write": 4, "sync": 3}
MIXED_CYCLES_PER_PASS = 20     # per client; 100 ops each
MIXED_RADIUS_M = 60.0


@dataclass
class MixedOp:
    kind: str                                   # get | query | write | sync
    tile: Optional[TileId] = None               # get
    xy: Optional[Tuple[float, float]] = None    # query, write
    expected: Optional[FrozenSet[ElementId]] = None


def mixed_tape(seed: int, hdmap: HDMap, tiles: List[TileId]
               ) -> List[List[MixedOp]]:
    """Per client, a fixed number of shuffled 100-op cycles: 85 tile
    reads, 8 scatter-gather queries, 4 writes, 3 syncs."""
    ref = StreamingMap(TileStore.build(hdmap, CLUSTER_TILE_SIZE),
                       max_tiles=64)
    kinds = [k for k, n in MIXED_CYCLE.items() for _ in range(n)]
    bounds = hdmap.bounds()
    tapes = []
    for client in range(N_CLIENTS):
        rng = _rng(seed, 4, client)
        tape: List[MixedOp] = []
        n_queries = 0
        for _ in range(MIXED_CYCLES_PER_PASS):
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "get":
                    tape.append(MixedOp(
                        kind, tile=tiles[int(rng.integers(0, len(tiles)))]))
                elif kind == "sync":
                    tape.append(MixedOp(kind))
                else:
                    op = MixedOp(kind, xy=_uniform_xy(rng, bounds))
                    if kind == "query":
                        if n_queries % SPATIAL_CHECK_EVERY == 0:
                            found = ref.elements_in_radius(
                                op.xy[0], op.xy[1], MIXED_RADIUS_M)
                            op.expected = frozenset(e.id for e in found)
                        n_queries += 1
                    tape.append(op)
        tapes.append(tape)
    return tapes


# ---------------------------------------------------------------------------
# cold_start_recovery
# ---------------------------------------------------------------------------

HISTORY_PATCHES = 3000
BOOTSTRAPS_PER_CLIENT = 2      # per pass
RECOVERIES_PER_PASS = 2        # one per shard


def history_tape(seed: int, hdmap: HDMap, n: int = HISTORY_PATCHES
                 ) -> List[Tuple[float, float]]:
    """Positions of the signs written as un-compacted history."""
    rng = _rng(seed, 5)
    bounds = hdmap.bounds()
    return [_uniform_xy(rng, bounds) for _ in range(n)]
