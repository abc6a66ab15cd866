"""ClusterRouter: consistent-hash sharding with failover and rebalance.

The router is the thin tier in front of N shard processes (see
:mod:`repro.cluster.shard`). It owns three pieces of authoritative
routing state and nothing else — the map data itself lives in shards:

- the **ownership map**: tile → shard via rendezvous hashing
  (:func:`repro.core.tiles.consistent_hash_owner`), plus a home-tile
  index ``element id → tile`` (an element keeps its first home tile for
  the cluster's lifetime, so removes and replaces route to the same
  shard that accepted the add);
- the **journal**: every *acked* sub-patch, recorded as the effective
  ops the shard actually applied. The journal is the durability story:
  a dead shard is restarted from its base subset plus a replay of
  exactly the journal ops it had applied (a rebalance-born shard: those
  of the tiles it booted owning, then its own acks), so an acked write
  survives any crash and the shard's version sequence never rewinds.
  It also resolves write ambiguity — a write that timed out may
  or may not have been applied, so the router restarts the shard from
  the journal (erasing the ambiguous effect) and resends exactly once;
- **leases**: a shard's ownership is reasserted on every successful
  call and re-verified with a ping once ``lease_s`` elapses quietly;
  a failed ping triggers the same restart-from-journal path.

Request routing: ``GetTile``/``IngestPatch`` pin to the owning shard
(multi-shard patches are split into per-shard sub-patches);
``SpatialQuery``/``Snapshot``/``ChangesSince`` scatter-gather with a
merge that deduplicates border elements by id and filters dynamic state
by *current* ownership — which is what makes rebalance safe: growing
N → N+1 starts the new shard from the journal and simply swaps the
ownership map, leaving old shards' moved-tile state in place but
unobservable.

The read path is concurrent end to end. Each shard connection is
pipelined (:class:`~repro.cluster.rpc.PipelinedConnection`): any number
of router threads keep calls in flight on the one socket, and the shard
answers out of order as its worker pool finishes. One read is one
candidate walk (:meth:`ClusterRouter._read`): a single pass under the
shard handle lock lists the live primary and live replicas — the
round-robin pick first for GetTile/SpatialQuery/ChangesSince, the
primary first for Snapshot — and captures the **version floor**; each
candidate is then called with no lock held. Every replica reply below
the shard version this router has already observed is discarded
(``cluster.read.replica_lag``) and the walk moves on, so neither replica
scaling nor failover ever weakens version monotonicity. If no candidate
answers, the primary is restarted from the journal and asked once more.
Scatter-gather ops issue every shard call at once and join; identical
concurrent GetTiles coalesce into a single flight
(``cluster.read.coalesced``). Bootstrap is served from one
:class:`BootstrapImage`, the merged map of the last Snapshot gather,
reused for as long as a ``ChangesSince`` probe finds every shard still
at the image's version (:meth:`ClusterRouter.bootstrap_image`).

Writes restart a dead primary first (replicas receive acked patches
synchronously, so a replica is always at-or-behind the journal and
catches up by restart-replay if it diverges).
"""

from __future__ import annotations

import multiprocessing
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.rpc import (
    PipelinedConnection,
    RpcError,
    ShardDead,
    ShardTimeout,
)
from repro.cluster.shard import ShardBackend, ShardConfig, shard_main
from repro.core.changes import ChangeType, MapChange
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import (
    TileId,
    TileScheme,
    consistent_hash_owner,
    ownership_map,
)
from repro.core.versioning import (
    AddElement,
    MapPatch,
    RemoveElement,
    ReplaceElement,
)
from repro.errors import ClusterError
from repro.obs.log import EVENT_LOG, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.trace import TRACER, attach_context
from repro.serve.api import (
    ChangesSince,
    GetTile,
    IngestPatch,
    Request,
    Response,
    Snapshot,
    SpatialQuery,
    Status,
)
from repro.serve.metrics import ServiceMetrics
from repro.storage.binary import encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import IngestResult, SyncDelta

_log = get_logger("cluster.router")

#: ``_element_tile`` lookup default: ``None`` is a real home (non-spatial).
_UNKNOWN = object()

_CHANGE_FOR_OP = {
    AddElement: ChangeType.ADDED,
    RemoveElement: ChangeType.REMOVED,
    ReplaceElement: ChangeType.MODIFIED,
}


# ---------------------------------------------------------------------------
# Transports: the same ShardBackend behind two wire-levels.
# ---------------------------------------------------------------------------

class LocalShard:
    """In-process transport: direct dispatch, no sockets, no fork.

    Used by unit tests and doc tooling where process isolation is not
    the point. Concurrent calls are naturally pipelined (each caller
    thread dispatches straight into the thread-safe backend), but
    ``slow``-injected delays block the caller (there is no receive loop
    to time out), so timeout-driven chaos runs on :class:`ProcessShard`.
    """

    def __init__(self, config: ShardConfig) -> None:
        self._backend = ShardBackend(config).start()
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead

    def call(self, op: str, payload: Any = None,
             timeout_s: Optional[float] = None,
             trace_ctx: Any = None) -> Any:
        if self._dead:
            raise ShardDead("shard was killed")
        if op == "telemetry":
            # Same-process spans/events already land in the router's
            # recorder/log; an empty batch keeps the harvester uniform.
            return {"spans": [], "events": [], "dropped": 0,
                    "clock": time.monotonic()}
        return self._backend.dispatch(op, payload, trace_ctx)

    @property
    def late_discards(self) -> int:
        return 0  # no reader thread, no late replies to discard

    @property
    def pending(self) -> int:
        return 0

    def kill(self) -> None:
        if not self._dead:
            self._dead = True
            self._backend.stop()

    def close(self) -> None:
        self.kill()


class ProcessShard:
    """Forked shard process behind a pipelined socketpair connection.

    Any number of router threads may have calls in flight on the one
    socket at once; the shard answers ``serve`` ops out of order as its
    worker pool finishes them (see :class:`PipelinedConnection`).
    """

    def __init__(self, config: ShardConfig) -> None:
        parent, child = socket.socketpair()
        self._proc = multiprocessing.get_context("fork").Process(
            target=shard_main, args=(config, child), daemon=True,
            name=f"{config.name}-{config.index}")
        self._proc.start()
        # Close our copy of the child end immediately: EOF detection on
        # shard death depends on the child end living only in the child.
        child.close()
        self._conn = PipelinedConnection(parent)
        # Guards the Process object: kill() closes it (releasing its
        # sentinel pipe) while other threads may be asking ``alive``.
        self._proc_lock = threading.Lock()

    @property
    def alive(self) -> bool:
        with self._proc_lock:
            try:
                return self._proc.is_alive()
            except ValueError:  # closed by kill()
                return False

    def call(self, op: str, payload: Any = None,
             timeout_s: Optional[float] = None,
             trace_ctx: Any = None) -> Any:
        return self._conn.call(op, payload, timeout_s,
                               trace_ctx=trace_ctx)

    @property
    def late_discards(self) -> int:
        """Replies the reader dropped because their caller timed out."""
        return self._conn.late_discards

    @property
    def pending(self) -> int:
        """Requests awaiting a reply in the reader's in-flight table."""
        return self._conn.inflight

    def kill(self) -> None:
        """Kill and join the child, then close its ``Process`` — which
        otherwise holds the sentinel pipe open until garbage collection."""
        try:
            with self._proc_lock:
                if self._proc.is_alive():
                    self._proc.kill()
                self._proc.join(timeout=5.0)
                self._proc.close()
        except ValueError:
            pass  # already closed, or still running past the timeout
        finally:
            self._conn.close()

    def close(self) -> None:
        if self.alive:
            try:
                self._conn.call("shutdown", timeout_s=2.0)
            except (ShardDead, ShardTimeout, RpcError):
                pass
            self._proc.join(timeout=2.0)
        self.kill()


# ---------------------------------------------------------------------------


@dataclass
class _JournalEntry:
    """One acked sub-patch: the ops a shard actually applied."""

    seq: int
    shard: int  # the shard that acked it
    source: str
    confidence: float
    ops: List[Tuple[Optional[TileId], object]]  # (home tile, PatchOp)


class _ShardHandle:
    """Per-shard routing state: transports, lock, lease, last version."""

    def __init__(self, index: int, owner: Dict[TileId, int],
                 boot_replay: List[MapPatch]) -> None:
        self.index = index
        # What the shard booted from: the ownership map that picked its
        # base subset, and the journal replay it started with. Every
        # restart reuses both (see ClusterRouter._config_for).
        self.owner = owner
        self.boot_replay = boot_replay
        # Serializes writes, restart/topology decisions, and lease pings
        # for this shard. Reads never hold it across a ``serve`` call —
        # the pipelined connection multiplexes any number of concurrent
        # calls — they take it to list candidates and to handle a
        # failed one.
        self.lock = threading.RLock()
        # Leaf lock for the last_version read-modify-write (reads finish
        # concurrently and must never let a smaller version overwrite a
        # larger one).
        self.vlock = threading.Lock()
        self.primary: Optional[Any] = None
        self.replicas: List[Any] = []
        self.lease_until = 0.0
        self.last_version = 0
        # Round-robin cursor: which live candidate a read tries first.
        self.rr = 0

    def live(self) -> List[Tuple[Any, Any]]:
        """``(slot, shard)`` of the live primary (slot ``"primary"``),
        then of each live replica (slot = its index). Hold ``lock``."""
        out: List[Tuple[Any, Any]] = []
        if self.primary is not None and self.primary.alive:
            out.append(("primary", self.primary))
        return out + [(slot, replica) for slot, replica
                      in enumerate(self.replicas) if replica.alive]


@dataclass(frozen=True)
class BootstrapImage:
    """One merged full map, built once and served to every bootstrap
    until a shard changes. Never mutated: callers get :meth:`checkout`
    copies."""

    map: HDMap
    vector: Dict[int, int]      # per-shard versions the map merges
    version: int                # cluster version it was stamped with
    owner: Dict[TileId, int]    # ownership map it was filtered under
    encoded_bytes: int          # len(encode_map(map)): one download

    def checkout(self) -> HDMap:
        """A private copy, same name and version."""
        return self.map.copy(name=self.map.name)


class _Flight:
    """One in-progress coalesced GetTile; followers wait on ``done``."""

    __slots__ = ("done", "response")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: Optional[Response] = None


#: Request kinds whose round-robin pick may go first. Snapshot keeps
#: the primary first (a replica serves it only on failover): it feeds
#: bootstrap/journal-parity checks where the authoritative copy is
#: worth the load imbalance.
_REPLICA_READ_KINDS = (GetTile, SpatialQuery, ChangesSince)


def estimate_clock_offset(call: Callable[..., float],
                          clock: Callable[[], float] = time.monotonic,
                          pings: int = 3) -> float:
    """Estimate a peer process's monotonic clock offset via RTT pings.

    ``call("clock")`` returns the peer's ``time.monotonic()``; bracketed
    by local send/receive stamps, the offset is ``peer_ts − midpoint``.
    The estimate from the smallest round trip wins — asymmetric
    scheduling delay is the whole error term, and the tightest bracket
    bounds it best. Rebasing a harvested span onto the local clock is
    then ``start_s − offset``.
    """
    best_rtt: Optional[float] = None
    best_offset = 0.0
    for _ in range(max(1, pings)):
        t0 = clock()
        peer_ts = float(call("clock"))
        t1 = clock()
        rtt = t1 - t0
        if best_rtt is None or rtt < best_rtt:
            best_rtt = rtt
            best_offset = peer_ts - (t0 + t1) / 2.0
    return best_offset


class TelemetryHarvester:
    """Pulls spans and events out of shard processes into the router.

    Each shard process records spans into its own ring (continuations of
    router-propagated contexts, span ids namespaced per process); this
    harvester drains those rings over the ``telemetry`` op in bounded
    batches, rebases shard-monotonic timestamps onto the router clock
    with a ping-based offset estimate, tags each span with its shard and
    role (primary / replica slot), and ingests the result into the
    router-process recorder — after which ``build_tree`` /
    ``format_trace`` / ``verify_spans`` see one coherent tree per trace.

    Runs as a daemon thread on a jittered interval (so N routers never
    synchronize their harvest bursts), plus a final drain on router
    ``close()``. Spans a shard overwrote before harvest are counted into
    ``cluster.telemetry.dropped`` — loss is visible, never silent.
    """

    #: spans (and events) drained per shard per sweep
    BATCH = 512
    #: each sleep is ``interval_s`` scaled by a uniform factor in
    #: ``1 ± JITTER``
    JITTER = 0.25

    def __init__(self, router: "ClusterRouter",
                 interval_s: float = 1.0) -> None:
        self._router = router
        self.interval_s = interval_s
        self._rng = random.Random(0)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "TelemetryHarvester":
        if self._thread is None:
            self.started = True
            self._thread = threading.Thread(
                target=self._loop, name="telemetry-harvester", daemon=True)
            self._thread.start()
        return self

    def stop(self, final_harvest: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_harvest:
            try:
                self.harvest_once()
            except Exception:
                pass

    def _next_interval(self) -> float:
        spread = self.JITTER * (2.0 * self._rng.random() - 1.0)
        return max(0.05, self.interval_s * (1.0 + spread))

    def _loop(self) -> None:
        while not self._stop.wait(self._next_interval()):
            try:
                self.harvest_once()
            except Exception:
                pass  # a dying shard mid-harvest is the router's problem

    # -- harvesting -----------------------------------------------------
    def harvest_once(self) -> Dict[str, int]:
        """One sweep over every live primary and replica."""
        router = self._router
        totals = {"spans": 0, "events": 0, "dropped": 0}
        for handle in router._handles:
            with handle.lock:
                targets = handle.live()
            for slot, shard in targets:
                role = slot if slot == "primary" else f"replica{slot}"
                try:
                    offset = estimate_clock_offset(
                        lambda op, _s=shard: _s.call(
                            op, timeout_s=router.call_timeout_s))
                    batch = shard.call(
                        "telemetry",
                        {"max_spans": self.BATCH,
                         "max_events": self.BATCH},
                        timeout_s=router.call_timeout_s)
                except (ShardDead, ShardTimeout, RpcError):
                    continue
                counts = self.merge(handle.index, role, batch, offset)
                for key in totals:
                    totals[key] += counts[key]
        router.telemetry_harvests.add()
        return totals

    def merge(self, index: int, role: str, batch: Dict[str, Any],
              offset_s: float) -> Dict[str, int]:
        """Rebase, tag, and ingest one shard's telemetry batch."""
        router = self._router
        spans = list(batch.get("spans") or [])
        for span in spans:
            span["start_s"] = float(span["start_s"]) - offset_s
            if span.get("end_s") is not None:
                span["end_s"] = float(span["end_s"]) - offset_s
            attrs = span.setdefault("attrs", {})
            attrs.setdefault("shard", index)
            attrs["role"] = role
        if spans:
            TRACER.recorder.ingest(spans)
            router.telemetry_spans.add(len(spans))
        events = list(batch.get("events") or [])
        for event in events:
            event.setdefault("shard", index)
            event["role"] = role
        if events:
            EVENT_LOG.ingest(events)
            router.telemetry_events.add(len(events))
        dropped = int(batch.get("dropped") or 0)
        if dropped:
            router.telemetry_dropped.add(dropped)
        return {"spans": len(spans), "events": len(events),
                "dropped": dropped}


class ClusterRouter:
    """Routes the five request types across consistent-hashed shards.

    Drop-in for :class:`~repro.serve.service.MapService.request` from a
    client's point of view: same request/response dataclasses, with
    ``Response.version`` rewritten to the *cluster* version (a monotone
    clamp over the sum of shard versions).
    """

    #: journal depth at which one ``journal_large`` warning is emitted
    JOURNAL_WARN_ENTRIES = 10_000

    def __init__(self, hdmap: HDMap, n_shards: int = 2,
                 tile_size: float = 500.0,
                 replicas: int = 0,
                 transport: str = "process",
                 n_workers: int = 2,
                 service_latency_s: float = 0.0,
                 storage_latency_s: float = 0.0,
                 call_timeout_s: float = 10.0,
                 lease_s: float = 2.0,
                 registry: Optional[MetricsRegistry] = None,
                 pack_path: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic,
                 telemetry_interval_s: Optional[float] = None) -> None:
        if n_shards < 1:
            raise ClusterError("n_shards must be >= 1")
        if replicas < 0:
            raise ClusterError("replicas must be >= 0")
        if transport not in ("process", "local"):
            raise ClusterError(f"unknown transport {transport!r}")
        self.n_shards = n_shards
        self.replicas = replicas
        self.transport = transport
        self.call_timeout_s = call_timeout_s
        self.lease_s = lease_s
        self._clock = clock
        self._name = hdmap.name
        self._shard_knobs = dict(
            n_workers=n_workers, service_latency_s=service_latency_s,
            storage_latency_s=storage_latency_s)

        self._scheme = TileScheme(tile_size)
        full_store = TileStore.build(hdmap, tile_size)
        self._store_blobs: Dict[TileId, bytes] = dict(full_store._blobs)
        # Pack-backed shards: write the full base map into one pack file
        # up front; each shard (and every restart/rebalance spawn) mmaps
        # that shared file instead of receiving its blobs through the
        # fork, so spawning cost stops scaling with base-map size.
        self._pack_path = pack_path
        if pack_path is not None:
            full_store.to_pack(pack_path)
        self._partition = self._scheme.partition(hdmap)
        self._element_tile: Dict[ElementId, Optional[TileId]] = {}
        for tile, elements in self._partition.items():
            for element in elements:
                self._element_tile[element.id] = tile
        # Regulatory (non-spatial) elements have no tile; by convention
        # they live on shard 0 and survive every rebalance there.
        self._nonspatial = [e for e in hdmap.elements()
                            if e.id not in self._element_tile]
        for element in self._nonspatial:
            self._element_tile[element.id] = None
        self._all_tiles = sorted(set(self._store_blobs)
                                 | set(self._partition))
        self._owner: Dict[TileId, int] = ownership_map(
            self._all_tiles, n_shards)

        self._journal: List[_JournalEntry] = []
        self._journal_lock = threading.Lock()   # leaf lock: append/copy
        #: journal growth guard: every restart replays the whole journal,
        #: so an unbounded journal silently turns restarts O(history). The
        #: gauge makes the depth scrapeable; crossing the threshold emits
        #: one ``journal_large`` warning event.
        self.journal_gauge = Gauge()
        self._journal_warned = False
        self._ingest_lock = threading.Lock()    # one writer at a time
        self._spawn_lock = threading.Lock()     # no concurrent forks
        self._version_lock = threading.Lock()
        self._version_floor = 0

        # cluster.* metrics: the standard per-kind latency/outcome
        # aggregate plus router-specific counters, and a collector for
        # merged per-shard histograms (fed by collect_shard_metrics()).
        self.metrics = ServiceMetrics()
        self.failovers = Counter()
        self.restarts = Counter()
        self.timeouts = Counter()
        self.rebalances = Counter()
        self.shards_gauge = Gauge()
        self.shards_gauge.set(n_shards)
        # Read-path concurrency instrumentation: replica_hits counts
        # reads a replica actually served, replica_lag counts reads a
        # replica answered below the version floor (retried on the
        # primary), read_coalesced counts GetTile callers that piggy-
        # backed on another caller's identical in-flight read.
        self.replica_hits = Counter()
        self.replica_lag = Counter()
        self.read_coalesced = Counter()
        self.rpc_inflight = Gauge()
        self._inflight = 0
        self._inflight_peak = 0
        self._inflight_lock = threading.Lock()
        # In-progress coalesced GetTiles keyed by (tile, encoded);
        # leaders insert, followers wait.
        self._flights: Dict[Tuple, _Flight] = {}
        self._flight_lock = threading.Lock()
        # The bootstrap image (one merged map, see bootstrap_image) and
        # the lock that makes its rebuilds single-flight.
        self._image: Optional[BootstrapImage] = None
        self._image_lock = threading.Lock()
        self.bootstrap_builds = Counter()
        self.bootstrap_hits = Counter()
        self._shard_latency: Dict[str, LatencyHistogram] = {}
        self._shard_outcomes: Dict[str, int] = {}
        # Telemetry plane: harvested span/event/drop accounting, plus
        # late-discard counts folded in from retired (restarted/killed)
        # connections so the collector's sum survives restarts.
        self.telemetry_spans = Counter()
        self.telemetry_events = Counter()
        self.telemetry_dropped = Counter()
        self.telemetry_harvests = Counter()
        self._late_discards_retired = Counter()
        self.telemetry = TelemetryHarvester(
            self, interval_s=telemetry_interval_s
            if telemetry_interval_s is not None else 1.0)
        if registry is not None:
            self.register_into(registry)

        self._handles: List[_ShardHandle] = [
            self._boot(index, self._owner, n_shards)
            for index in range(n_shards)]
        if telemetry_interval_s is not None:
            self.telemetry.start()

    # -- lifecycle ------------------------------------------------------
    def harvest_telemetry(self) -> Dict[str, int]:
        """Pull shard spans/events into the router recorder right now."""
        return self.telemetry.harvest_once()

    def close(self) -> None:
        # Final telemetry drain before the shard processes go away —
        # without it, the tail of every trace would die with the shards.
        self.telemetry.stop(
            final_harvest=self.telemetry.started or TRACER.enabled)
        for handle in self._handles:
            with handle.lock:
                for shard in [handle.primary] + handle.replicas:
                    if shard is None:
                        continue
                    try:
                        shard.close()
                    except Exception:
                        pass

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- topology -------------------------------------------------------
    def _owner_of(self, tile: Optional[TileId],
                  owner: Dict[TileId, int], n_shards: int) -> int:
        if tile is None:
            return 0
        got = owner.get(tile)
        if got is not None:
            return got
        return consistent_hash_owner(tile, n_shards)

    def owner_of_tile(self, tile: TileId) -> int:
        """Current owning shard of ``tile``."""
        return self._owner_of(tile, self._owner, self.n_shards)

    def tiles(self) -> List[TileId]:
        """Blob-backed tiles of the static base (the GetTile universe)."""
        return sorted(self._store_blobs)

    def _centre_tile(self, element) -> Optional[TileId]:
        try:
            min_x, min_y, max_x, max_y = element.bounds()
        except NotImplementedError:
            return None
        return self._scheme.tile_of((min_x + max_x) / 2.0,
                                    (min_y + max_y) / 2.0)

    def _home_tile(self, op) -> Optional[TileId]:
        """The tile that owns this op's element (first home wins)."""
        if isinstance(op, RemoveElement):
            eid = op.element_id
            element = None
        else:
            eid = op.element.id
            element = op.element
        if eid in self._element_tile:
            return self._element_tile[eid]
        if element is None:
            return None  # remove of an unknown id → shard 0 rejects it
        return self._centre_tile(element)

    def _config_for(self, handle: _ShardHandle) -> ShardConfig:
        """Boot config of ``handle``'s shard: the base subset of the tiles
        it booted owning, and its replay — the boot replay, then every
        sub-patch acked on it since. A restart therefore comes back at
        the exact version and change log the shard had acked, even after
        a rebalance moved some of its tiles away."""
        index = handle.index
        owned = {tile for tile, shard in handle.owner.items()
                 if shard == index}
        base = HDMap(f"{self._name}-shard{index}")
        for tile in sorted(owned):
            for element in self._partition.get(tile, []):
                base.add(element)
        if index == 0:
            for element in self._nonspatial:
                base.add(element)
        owned_blob_tiles = sorted(tile for tile in owned
                                  if tile in self._store_blobs)
        if self._pack_path is not None:
            blobs: Dict[TileId, bytes] = {}
        else:
            blobs = {tile: self._store_blobs[tile]
                     for tile in owned_blob_tiles}
        with self._journal_lock:
            acked = [entry for entry in self._journal
                     if entry.shard == index]
        replay = handle.boot_replay + [
            MapPatch(ops=[op for _, op in entry.ops], source=entry.source,
                     confidence=entry.confidence) for entry in acked]
        return ShardConfig(
            index=index, tile_size=self._scheme.tile_size,
            base_map_bytes=encode_map(base), blobs=blobs, replay=replay,
            name=f"{self._name}-shard",
            pack_path=self._pack_path,
            owned_tiles=owned_blob_tiles if self._pack_path is not None
            else [],
            **self._shard_knobs)

    def _replay_for(self, index: int, owner: Dict[TileId, int],
                    n_shards: int) -> List[MapPatch]:
        with self._journal_lock:
            entries = list(self._journal)
        out: List[MapPatch] = []
        for entry in entries:
            ops = [op for tile, op in entry.ops
                   if self._owner_of(tile, owner, n_shards) == index]
            if ops:
                out.append(MapPatch(ops=ops, source=entry.source,
                                    confidence=entry.confidence))
        return out

    # -- shard lifecycle ------------------------------------------------
    def _boot(self, index: int, owner: Dict[TileId, int],
              n_shards: int) -> _ShardHandle:
        """A new shard ``index`` (primary and replicas) under ``owner``:
        its base subset plus the journal ops of the tiles it owns."""
        handle = _ShardHandle(index, owner,
                              self._replay_for(index, owner, n_shards))
        config = self._config_for(handle)
        handle.primary = self._spawn(config)
        handle.lease_until = self._clock() + self.lease_s
        for _ in range(self.replicas):
            handle.replicas.append(self._spawn(config))
        return handle

    def _spawn(self, config: ShardConfig):
        # Serialized: a fork that raced another spawn would inherit the
        # other's not-yet-closed child socket end and break shard-death
        # EOF detection.
        with self._spawn_lock:
            if self.transport == "local":
                return LocalShard(config)
            return ProcessShard(config)

    def _retire_connection(self, shard: Any) -> None:
        """Fold a dying connection's late-discard count into the running
        total so ``cluster.rpc.late_discards`` survives the restart."""
        self._late_discards_retired.add(getattr(shard, "late_discards", 0))

    def _restart_primary_locked(self, handle: _ShardHandle) -> None:
        old = handle.primary
        if old is not None:
            self._retire_connection(old)
            try:
                old.kill()
            except Exception:
                pass
        config = self._config_for(handle)
        handle.primary = self._spawn(config)
        handle.lease_until = self._clock() + self.lease_s
        self.restarts.add()
        _log.warning("shard_restarted", shard=handle.index,
                     replayed=len(config.replay))

    def _restart_replica_locked(self, handle: _ShardHandle,
                                slot: int) -> None:
        self._retire_connection(handle.replicas[slot])
        try:
            handle.replicas[slot].kill()
        except Exception:
            pass
        config = self._config_for(handle)
        handle.replicas[slot] = self._spawn(config)
        self.restarts.add()
        _log.warning("replica_restarted", shard=handle.index, replica=slot)

    def _ensure_primary_locked(self, handle: _ShardHandle):
        if handle.primary is None or not handle.primary.alive:
            self._restart_primary_locked(handle)
        elif self._clock() >= handle.lease_until:
            # Lease expired quietly: reassert ownership with a ping
            # before trusting the shard with more traffic.
            try:
                handle.primary.call("ping", timeout_s=self.call_timeout_s)
                handle.lease_until = self._clock() + self.lease_s
            except (ShardDead, ShardTimeout):
                self._restart_primary_locked(handle)
        return handle.primary

    # -- rpc ------------------------------------------------------------
    def _call(self, shard, op: str, payload: Any = None,
              timeout_s: Optional[float] = None,
              attrs: Optional[Dict[str, object]] = None) -> Any:
        """All shard RPCs funnel through here so ``cluster.rpc.inflight``
        tracks router-wide concurrency regardless of transport — and so
        every shard call inside a sampled trace gets a ``cluster.rpc.<op>``
        span whose context rides the request envelope to the shard
        (``attrs`` carries the routing facts: shard index, replica slot
        or primary). A timed-out call is stamped ``timed_out`` — its
        reply, if it ever lands, is a late discard."""
        span = TRACER.span(f"cluster.rpc.{op}", **(attrs or {}))
        with self._inflight_lock:
            self._inflight += 1
            if self._inflight > self._inflight_peak:
                self._inflight_peak = self._inflight
            self.rpc_inflight.set(self._inflight)
        try:
            with span:
                try:
                    return shard.call(op, payload, timeout_s=timeout_s,
                                      trace_ctx=span.context)
                except ShardTimeout:
                    span.set("timed_out", True)
                    raise
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self.rpc_inflight.set(self._inflight)

    # -- versions -------------------------------------------------------
    def _note_version(self, handle: _ShardHandle,
                      version: Optional[int]) -> None:
        if version is None:
            return
        # vlock, not handle.lock: reads complete concurrently, and an
        # unlocked check-then-set would let a smaller version overwrite
        # a larger one.
        with handle.vlock:
            if version > handle.last_version:
                handle.last_version = version

    @property
    def version(self) -> int:
        """Monotone cluster version: clamped sum of shard versions.

        The clamp makes the sequence non-decreasing even when a crash-
        restart or rebalance changes how versions are distributed across
        shards.
        """
        total = sum(h.last_version for h in self._handles)
        with self._version_lock:
            if total > self._version_floor:
                self._version_floor = total
            return self._version_floor

    def version_vector(self) -> Dict[int, int]:
        """Last observed per-shard versions (for incremental sync)."""
        return {h.index: h.last_version for h in self._handles}

    # -- reads ----------------------------------------------------------
    def _read(self, index: int, request: Request) -> Response:
        """Route one read on shard ``index``; never raises.

        One pass under ``handle.lock`` lists the candidates — the live
        primary, then the live replicas, with the round-robin pick moved
        to the front for replica-eligible kinds — and captures the
        version floor. Every call then runs with no lock held. If no
        candidate answers, the primary is restarted from the journal and
        asked once more; failure there becomes an ERROR response.
        """
        handle = self._handles[index]
        with handle.lock:
            # Version floor: this router has already observed the shard
            # at last_version, so no replica may answer below it.
            floor = handle.last_version
            candidates = handle.live()
            primary_up = bool(candidates) and candidates[0][0] == "primary"
            if candidates and isinstance(request, _REPLICA_READ_KINDS):
                handle.rr += 1
                candidates.insert(
                    0, candidates.pop(handle.rr % len(candidates)))
            if candidates and candidates[0][0] == "primary":
                candidates[0] = ("primary",
                                 self._ensure_primary_locked(handle))
        failover = not primary_up
        for slot, shard in candidates:
            try:
                response = self._call(shard, "serve", request,
                                      timeout_s=self.call_timeout_s,
                                      attrs={"shard": index,
                                             "replica": slot})
            except (ShardDead, ShardTimeout) as exc:
                if isinstance(exc, ShardTimeout):
                    self.timeouts.add()
                # Kill-mid-pipeline fails every in-flight call on the
                # shard at once; the identity checks make sure only the
                # first caller kills or restarts, not a stampede of them.
                with handle.lock:
                    if slot == "primary":
                        failover = True
                        if handle.primary is shard:
                            try:
                                shard.kill()
                            except Exception:
                                pass
                    elif (isinstance(exc, ShardDead)
                          and handle.replicas[slot] is shard):
                        self._restart_replica_locked(handle, slot)
                continue
            if slot == "primary":
                handle.lease_until = self._clock() + self.lease_s
            elif response.version is not None and response.version < floor:
                self.replica_lag.add()
                continue
            else:
                if response.ok:
                    self.replica_hits.add()
                if failover:
                    self.failovers.add()
                    _log.warning("read_failover", shard=index,
                                 replica=slot, kind=request.kind)
            self._note_version(handle, response.version)
            return response
        with handle.lock:
            if handle.primary is None or not handle.primary.alive:
                self._restart_primary_locked(handle)
            shard = handle.primary
        try:
            response = self._call(shard, "serve", request,
                                  timeout_s=self.call_timeout_s,
                                  attrs={"shard": index,
                                         "replica": "primary",
                                         "failover": True})
        except (ShardDead, ShardTimeout) as exc:
            _log.error("shard_unavailable", shard=index,
                       kind=request.kind, error=str(exc))
            return Response(Status.ERROR,
                            error=f"shard {index} unavailable: {exc}")
        handle.lease_until = self._clock() + self.lease_s
        self._note_version(handle, response.version)
        return response

    def _get_tile(self, request: GetTile) -> Response:
        """Single-flight GetTile: identical concurrent requests collapse
        onto one shard read, and followers return the leader's response
        object — byte-identical by construction."""
        key = (request.tile, request.encoded)
        with self._flight_lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if not leader:
            # The follower's trace shows a wait, not an RPC: its span
            # carries ``coalesced=True`` instead of a shard call.
            with TRACER.span("cluster.read.wait", coalesced=True,
                             tile=str(request.tile)):
                flight.done.wait()
            if flight.response is not None:
                self.read_coalesced.add()
                return flight.response
            # Defensive: the leader died before publishing.
            return self._read(self.owner_of_tile(request.tile), request)
        try:
            flight.response = self._read(
                self.owner_of_tile(request.tile), request)
            return flight.response
        finally:
            with self._flight_lock:
                self._flights.pop(key, None)
            flight.done.set()

    def _scatter(self, indices: List[int],
                 fn: Callable[[int], Response]) -> Dict[int, Response]:
        """Run ``fn`` once per shard index, all at once (a single index
        runs inline), never raising: a failure becomes that shard's
        ERROR response."""
        def run_one(i: int) -> Response:
            try:
                return fn(i)
            except Exception as exc:  # defensive: fn should not raise
                return Response(Status.ERROR, error=str(exc))

        if len(indices) == 1:
            return {indices[0]: run_one(indices[0])}

        # Fresh threads start with an empty contextvar; re-attach the
        # caller's trace so every scattered shard call parents under it.
        ctx = TRACER.current()
        results: Dict[int, Response] = {}

        def run(i: int) -> None:
            with attach_context(ctx):
                results[i] = run_one(i)

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in indices]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def _gather(self, indices: List[int],
                request: Request) -> List[Tuple[int, Response]]:
        """Scatter one request to several shards and join."""
        responses = self._scatter(indices,
                                  lambda i: self._read(i, request))
        return [(i, responses[i]) for i in sorted(responses)]

    # -- writes ---------------------------------------------------------
    def _match_applied(self, tile_ops, changes) -> List[Tuple]:
        """Which of ``tile_ops`` the shard applied, from its change log.

        Changes are recorded in op application order, so the applied ops
        are an order-preserving subsequence match on (element id, change
        type).
        """
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

    def _write_shard(self, index: int, sub: MapPatch,
                     tile_ops) -> Tuple[IngestResult, List[Tuple]]:
        """Apply one sub-patch on its owning shard, exactly once.

        A timeout/death mid-write is ambiguous; the restart-from-journal
        erases any uncommitted effect, making the single retry safe.
        """
        handle = self._handles[index]
        with handle.lock:
            last_exc: Optional[Exception] = None
            for _attempt in range(2):
                try:
                    shard = self._ensure_primary_locked(handle)
                    response = self._call(
                        shard, "serve", IngestPatch(patch=sub),
                        timeout_s=self.call_timeout_s,
                        attrs={"shard": index, "replica": "primary",
                               "write": True})
                    if response.status is not Status.OK:
                        raise ClusterError(
                            f"shard {index} refused write: "
                            f"{response.error}")
                    result: IngestResult = response.payload
                    applied = list(tile_ops)
                    if result.accepted and result.dropped_ops:
                        log = self._call(shard, "changelog",
                                         timeout_s=self.call_timeout_s)
                        applied = self._match_applied(
                            tile_ops, [c for v, c in log
                                       if v == result.version])
                    handle.lease_until = self._clock() + self.lease_s
                    self._note_version(handle, result.version)
                    return result, applied
                except (ShardDead, ShardTimeout) as exc:
                    last_exc = exc
                    if isinstance(exc, ShardTimeout):
                        self.timeouts.add()
                    _log.warning("write_retry_after_restart", shard=index,
                                 error=str(exc))
                    self._restart_primary_locked(handle)
            raise ClusterError(
                f"shard {index} failed twice on write: {last_exc}")

    def _replicate_locked(self, handle: _ShardHandle,
                          patch: MapPatch) -> None:
        for slot, replica in enumerate(handle.replicas):
            try:
                self._call(replica, "apply", patch,
                           timeout_s=self.call_timeout_s,
                           attrs={"shard": handle.index, "replica": slot})
            except (ShardDead, ShardTimeout, RpcError):
                # Restart from the journal (which already holds this
                # patch): the replica comes back caught-up.
                self._restart_replica_locked(handle, slot)

    def _ingest(self, request: IngestPatch, t0: float) -> Response:
        patch = request.patch
        if not patch.ops:
            return Response(Status.OK,
                            IngestResult(False, None, 0, "empty patch"))
        with self._ingest_lock:
            owner, n_shards = self._owner, self.n_shards
            groups: Dict[int, List[Tuple[Optional[TileId], object]]] = {}
            order: List[int] = []
            for op in patch.ops:
                tile = self._home_tile(op)
                index = self._owner_of(tile, owner, n_shards)
                if index not in groups:
                    order.append(index)
                groups.setdefault(index, []).append((tile, op))
            results: List[IngestResult] = []
            for index in order:
                tile_ops = groups[index]
                sub = MapPatch(ops=[op for _, op in tile_ops],
                               source=patch.source,
                               confidence=patch.confidence)
                result, applied = self._write_shard(index, sub, tile_ops)
                if result.accepted and applied:
                    with self._journal_lock:
                        entry = _JournalEntry(
                            seq=len(self._journal), shard=index,
                            source=patch.source,
                            confidence=patch.confidence, ops=applied)
                        self._journal.append(entry)
                        depth = len(self._journal)
                    self.journal_gauge.set(depth)
                    if (depth >= self.JOURNAL_WARN_ENTRIES
                            and not self._journal_warned):
                        self._journal_warned = True
                        _log.warning(
                            "journal_large", entries=depth,
                            threshold=self.JOURNAL_WARN_ENTRIES)
                    handle = self._handles[index]
                    with handle.lock:
                        self._replicate_locked(
                            handle,
                            MapPatch(ops=[op for _, op in applied],
                                     source=patch.source,
                                     confidence=patch.confidence))
                    for tile, op in applied:
                        if isinstance(op, (AddElement, ReplaceElement)):
                            self._element_tile.setdefault(op.element.id,
                                                          tile)
                results.append(result)
        if len(results) == 1:
            merged = results[0]
        else:
            accepted = [r for r in results if r.accepted]
            merged = IngestResult(
                accepted=bool(accepted), version=None,
                dropped_ops=sum(r.dropped_ops for r in results),
                reason="; ".join(r.reason for r in results if r.reason))
        if merged.accepted:
            self.metrics.record_freshness(self._clock() - t0)
        return Response(Status.OK, merged)

    # -- scatter-gather merges ------------------------------------------
    def _spatial(self, request: SpatialQuery) -> Response:
        x, y, radius = request.x, request.y, request.radius
        bounds = (x - radius, y - radius, x + radius, y + radius)
        owner, n_shards = self._owner, self.n_shards
        targets = sorted({self._owner_of(t, owner, n_shards)
                          for t in self._scheme.tiles_for_bounds(bounds)})
        merged: List[object] = []
        seen = set()
        for index, response in self._gather(targets, request):
            if not response.ok:
                return response
            # Border elements are replicated into every tile they
            # intersect, so adjacent shards return identical copies:
            # dedup by id, shard order for determinism.
            for element in response.payload:
                if element.id not in seen:
                    seen.add(element.id)
                    merged.append(element)
        return Response(Status.OK, merged)

    def bootstrap(self) -> Tuple[HDMap, Dict[int, int]]:
        """A private copy of the merged full map plus the per-shard
        version vector it was captured at (the cluster client's bootstrap
        payload), served from the bootstrap image."""
        image = self.bootstrap_image()
        return image.checkout(), dict(image.vector)

    def bootstrap_image(self) -> BootstrapImage:
        """The current bootstrap image, rebuilt first if it is stale.

        A hit costs one ``ChangesSince`` probe per shard; any stale
        probe, probe error or ownership change rebuilds. Rebuilds are
        single-flight: a caller that waited on another's rebuild probes
        that image instead of building its own.
        """
        seen = self._image
        if seen is not None and self._image_current(seen):
            self.bootstrap_hits.add()
            return seen
        with self._image_lock:
            image = self._image
            if (image is not seen and image is not None
                    and self._image_current(image)):
                self.bootstrap_hits.add()
                return image
            image = self._image = self._build_image()
            self.bootstrap_builds.add()
            return image

    def _image_current(self, image: BootstrapImage) -> bool:
        """Whether every shard still answers at the image's version with
        no changes, under the ownership and cluster version it was
        stamped with. The shards' answers decide, through the same read
        path and version floor a Snapshot takes; a restarted shard
        replays to the version it had acked, so a restart is a hit."""
        if image.owner is not self._owner:
            return False
        vector = image.vector
        responses = self._scatter(
            sorted(vector),
            lambda i: self._read(i, ChangesSince(since_version=vector[i])))
        for index, response in responses.items():
            if not response.ok:
                return False
            delta: SyncDelta = response.payload
            if delta.version != vector[index] or delta.changes:
                return False
        return image.version == self.version

    def _build_image(self) -> BootstrapImage:
        """Gather every shard's Snapshot and merge it under current
        ownership into a new image."""
        owner, n_shards = self._owner, self.n_shards
        indices = list(range(n_shards))
        merged = HDMap(f"{self._name}@cluster")
        vector: Dict[int, int] = {}
        for index, response in self._gather(indices, Snapshot()):
            if not response.ok:
                raise ClusterError(
                    f"snapshot failed on shard {index}: {response.error}")
            snap: HDMap = response.payload
            vector[index] = snap.version
            self._note_version(self._handles[index], snap.version)
            for element in snap.elements():
                # Dynamic state is centre-partitioned and therefore
                # disjoint — except after a rebalance, when the old
                # owner still holds stale copies of moved elements.
                # Current ownership decides which copy is authoritative.
                home = self._element_tile.get(element.id, _UNKNOWN)
                if home is _UNKNOWN:  # bounds only for an unknown id
                    home = self._centre_tile(element)
                if self._owner_of(home, owner, n_shards) == index:
                    merged.add(element)
        merged.version = self.version
        return BootstrapImage(map=merged, vector=vector,
                              version=merged.version, owner=owner,
                              encoded_bytes=len(encode_map(merged)))

    def _collect_deltas(self, since: Dict[int, int]) -> "ClusterDelta":
        from repro.cluster.client import ClusterDelta

        owner, n_shards = self._owner, self.n_shards
        deltas: Dict[int, SyncDelta] = {}
        versions: Dict[int, int] = {}
        # Every shard's ChangesSince goes out at once; the merge below
        # runs in shard order.
        responses = self._scatter(
            list(range(n_shards)),
            lambda i: self._read(
                i, ChangesSince(since_version=since.get(i, 0))))
        for index in sorted(responses):
            response = responses[index]
            if not response.ok:
                raise ClusterError(
                    f"changes_since failed on shard {index}: "
                    f"{response.error}")
            delta: SyncDelta = response.payload
            self._note_version(self._handles[index], delta.version)
            changes = []
            elements = {}
            for change in delta.changes:
                home = self._element_tile.get(change.element_id)
                if (home is None
                        and change.element_id not in self._element_tile):
                    home = self._scheme.tile_of(*change.position)
                if self._owner_of(home, owner, n_shards) != index:
                    continue  # stale copy of a rebalanced-away element
                changes.append(change)
                if change.element_id in delta.elements:
                    elements[change.element_id] = \
                        delta.elements[change.element_id]
            deltas[index] = SyncDelta(delta.version, changes, elements)
            versions[index] = delta.version
        return ClusterDelta(version=self.version, versions=versions,
                            deltas=deltas)

    def changes_since(self, since: Dict[int, int]) -> "ClusterDelta":
        """Incremental sync against a per-shard version vector."""
        return self._collect_deltas(dict(since))

    # -- the front door -------------------------------------------------
    def request(self, request: Request) -> Response:
        """Route one request; returns a :class:`Response` whose
        ``version`` is the cluster version."""
        t0 = self._clock()
        # Root of the cross-process tree (client → router): inside an
        # already-active trace this is a child span; otherwise the
        # sampling decision for the whole request is made here.
        kind = request.kind
        if TRACER.current() is not None:
            span = TRACER.span(f"cluster.request.{kind}")
        else:
            span = TRACER.start_trace(f"cluster.request.{kind}")
        with span:
            try:
                if isinstance(request, GetTile):
                    response = self._get_tile(request)
                elif isinstance(request, SpatialQuery):
                    response = self._spatial(request)
                elif isinstance(request, IngestPatch):
                    response = self._ingest(request, t0)
                elif isinstance(request, Snapshot):
                    response = Response(Status.OK, self.bootstrap()[0])
                elif isinstance(request, ChangesSince):
                    response = Response(Status.OK, self._collect_deltas(
                        dict.fromkeys(range(self.n_shards),
                                      request.since_version)))
                else:
                    raise ClusterError(
                        f"unknown request type {type(request).__name__}")
            except Exception as exc:
                response = Response(Status.ERROR,
                                    error=f"{type(exc).__name__}: {exc}")
            latency = self._clock() - t0
            out = Response(
                status=response.status, payload=response.payload,
                version=self.version if response.ok else response.version,
                latency_s=latency, error=response.error)
            if span.context is not None:
                span.set("status", out.status.value)
                span.set("version", out.version)
        self.metrics.record(request.kind, out.status.value, latency)
        return out

    # -- rebalance ------------------------------------------------------
    def rebalance(self, n_shards: int) -> int:
        """Grow the cluster to ``n_shards``; returns tiles moved.

        New shards boot from their owned base subset plus a journal
        replay, then the ownership map is swapped. Old shards are not
        restarted — their stale moved-tile state stays in place but is
        filtered out of every merge by current ownership. Writes are
        stopped for the duration (the ingest lock); reads keep flowing.
        """
        if n_shards < self.n_shards:
            raise ClusterError("rebalance cannot shrink the cluster")
        if n_shards == self.n_shards:
            return 0
        with self._ingest_lock:
            old_owner = self._owner
            new_owner = ownership_map(self._all_tiles, n_shards)
            moved = sum(1 for tile in self._all_tiles
                        if old_owner[tile] != new_owner[tile])
            for index in range(self.n_shards, n_shards):
                self._handles.append(self._boot(index, new_owner, n_shards))
            self._owner = new_owner
            self.n_shards = n_shards
            self.shards_gauge.set(n_shards)
            self.rebalances.add()
            _log.info("rebalance_completed", shards=n_shards,
                      tiles_moved=moved,
                      total_tiles=len(self._all_tiles))
        return moved

    # -- chaos seams ----------------------------------------------------
    def kill_shard(self, index: int) -> None:
        """Injected crash: kill the primary *without* taking its lock —
        exactly like a real crash mid-request. The next touch fails over
        / restarts."""
        handle = self._handles[index]
        primary = handle.primary
        if primary is not None:
            try:
                primary.kill()
            except Exception:
                pass
        _log.warning("shard_killed", shard=index, injected=True)

    def slow_shard(self, index: int, delay_s: float,
                   count: int = 1) -> None:
        """Injected slowness: the shard's next ``count`` dispatches
        sleep ``delay_s`` before answering."""
        handle = self._handles[index]
        with handle.lock:
            try:
                handle.primary.call(
                    "slow", {"delay_s": delay_s, "count": count},
                    timeout_s=self.call_timeout_s)
            except (ShardDead, ShardTimeout, RpcError):
                pass
        _log.warning("shard_slowed", shard=index, delay_s=delay_s,
                     count=count, injected=True)

    # -- observability --------------------------------------------------
    def collect_shard_metrics(self) -> Dict[int, Dict[str, object]]:
        """Poll every shard's metrics (primary, or a live replica when
        the primary is down); fold latency histograms into the
        ``cluster.shard.latency.<kind>`` merge and sum outcome
        counters. Returns the raw per-shard snapshots."""
        merged: Dict[str, LatencyHistogram] = {}
        outcomes: Dict[str, int] = {}
        per_shard: Dict[int, Dict[str, object]] = {}
        for handle in self._handles:
            with handle.lock:
                shipped = None
                for _, shard in handle.live():
                    try:
                        shipped = shard.call(
                            "metrics", timeout_s=self.call_timeout_s)
                        break
                    except (ShardDead, ShardTimeout, RpcError):
                        continue
                if shipped is None:
                    continue
            per_shard[handle.index] = shipped["snapshot"]
            for kind, hist in shipped["latency"].items():
                if kind in merged:
                    merged[kind].merge(hist)
                else:
                    merged[kind] = hist
            for key, value in shipped["outcomes"].items():
                outcomes[key] = outcomes.get(key, 0) + value
        self._shard_latency = merged
        self._shard_outcomes = outcomes
        return per_shard

    def shard_changelog(self, index: int) -> List[Tuple[int, MapChange]]:
        """One shard's full ``(version, change)`` log (chaos invariant
        checks read these)."""
        handle = self._handles[index]
        with handle.lock:
            shard = self._ensure_primary_locked(handle)
            return shard.call("changelog", timeout_s=self.call_timeout_s)

    def journal_entries(self) -> List[_JournalEntry]:
        with self._journal_lock:
            return list(self._journal)

    def late_discards_total(self) -> int:
        """Late replies dropped across all connections, ever — live
        counts plus the totals retired with restarted connections."""
        total = self._late_discards_retired.value
        for handle in self._handles:
            for shard in [handle.primary] + list(handle.replicas):
                total += getattr(shard, "late_discards", 0)
        return total

    def rpc_pending_total(self) -> int:
        """Requests sitting in reader-thread in-flight tables right now."""
        return sum(getattr(shard, "pending", 0)
                   for handle in self._handles
                   for shard in [handle.primary] + list(handle.replicas))

    def register_into(self, registry: MetricsRegistry,
                      prefix: str = "cluster") -> None:
        """Register router metrics under canonical ``cluster.*`` names:

        - ``cluster.latency.<kind>`` / ``cluster.requests.<kind>.<status>``
          / ``cluster.rejected|shed|errors`` / ``cluster.freshness``
          (the standard serving aggregate, router-side);
        - ``cluster.failovers`` / ``cluster.restarts`` /
          ``cluster.timeouts`` / ``cluster.rebalances`` /
          ``cluster.shards`` / ``cluster.journal.entries``;
        - ``cluster.rpc.inflight`` (router-wide concurrent shard calls)
          / ``cluster.read.replica_hits`` / ``cluster.read.replica_lag``
          / ``cluster.read.coalesced`` — the pipelined read path;
        - ``cluster.rpc.late_discards`` (replies dropped because their
          caller timed out, summed across connections and restarts) /
          ``cluster.rpc.pending`` (reader-thread in-flight tables);
        - ``cluster.telemetry.spans`` / ``cluster.telemetry.events`` /
          ``cluster.telemetry.dropped`` / ``cluster.telemetry.harvests``
          — the cross-process trace harvest;
        - ``cluster.router.bootstrap_builds`` /
          ``cluster.router.bootstrap_hits`` — bootstraps that rebuilt the
          bootstrap image vs. were served from it;
        - ``cluster.shard.latency.<kind>`` — per-shard histograms merged
          by :meth:`collect_shard_metrics`, and
          ``cluster.shard.requests.<kind>.<status>`` summed across
          shards.
        """
        self.metrics.register_into(registry, prefix=prefix)
        registry.register(f"{prefix}.failovers", self.failovers)
        registry.register(f"{prefix}.restarts", self.restarts)
        registry.register(f"{prefix}.timeouts", self.timeouts)
        registry.register(f"{prefix}.rebalances", self.rebalances)
        registry.register(f"{prefix}.shards", self.shards_gauge)
        registry.register(f"{prefix}.journal.entries", self.journal_gauge)
        registry.register(f"{prefix}.rpc.inflight", self.rpc_inflight)
        registry.register(f"{prefix}.read.replica_hits",
                          self.replica_hits)
        registry.register(f"{prefix}.read.replica_lag", self.replica_lag)
        registry.register(f"{prefix}.read.coalesced", self.read_coalesced)
        registry.register(f"{prefix}.telemetry.spans",
                          self.telemetry_spans)
        registry.register(f"{prefix}.telemetry.events",
                          self.telemetry_events)
        registry.register(f"{prefix}.telemetry.dropped",
                          self.telemetry_dropped)
        registry.register(f"{prefix}.telemetry.harvests",
                          self.telemetry_harvests)
        registry.register(f"{prefix}.router.bootstrap_builds",
                          self.bootstrap_builds)
        registry.register(f"{prefix}.router.bootstrap_hits",
                          self.bootstrap_hits)

        def collect() -> Dict[str, object]:
            out: Dict[str, object] = {
                f"{prefix}.rpc.late_discards": self.late_discards_total(),
                f"{prefix}.rpc.pending": self.rpc_pending_total(),
            }
            for kind, hist in self._shard_latency.items():
                out[f"{prefix}.shard.latency.{kind}"] = hist
            for key, value in self._shard_outcomes.items():
                out[f"{prefix}.shard.requests.{key}"] = value
            return out

        registry.register_collector(collect)

    def stats(self) -> Dict[str, object]:
        return {
            "shards": self.n_shards,
            "replicas": self.replicas,
            "transport": self.transport,
            "version": self.version,
            "version_vector": self.version_vector(),
            "journal_entries": len(self.journal_entries()),
            "tiles": len(self._all_tiles),
            "failovers": self.failovers.value,
            "restarts": self.restarts.value,
            "timeouts": self.timeouts.value,
            "rebalances": self.rebalances.value,
            "replica_hits": self.replica_hits.value,
            "replica_lag": self.replica_lag.value,
            "coalesced": self.read_coalesced.value,
            "inflight_peak": self._inflight_peak,
            "late_discards": self.late_discards_total(),
            "telemetry_spans": self.telemetry_spans.value,
            "telemetry_dropped": self.telemetry_dropped.value,
            "bootstrap_builds": self.bootstrap_builds.value,
            "bootstrap_hits": self.bootstrap_hits.value,
        }
