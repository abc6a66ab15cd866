"""RouterCore: every routing decision of the cluster, with no I/O.

The core owns all routing state — placement (ownership, element homes,
the replay rule: :mod:`repro.cluster.placement`), the journal, each
slot's spawn generation, liveness and lease, each shard's last observed
version (the replica floor), the bootstrap image — and no thread,
socket, process, clock or lock. It takes events (an operation starts; a
``Send`` returned or raised; a primary died) and returns effects
(:class:`Send`, :class:`Restart`, and the flow runtime's ``Respond``
and ``Discard``); :class:`~repro.cluster.router.ClusterRouter`
is the shell that runs them. DESIGN.md "Cluster" tabulates both.

Each operation is a generator flow (:mod:`repro.cluster.flows`) that
yields a :class:`Send` and is resumed with its outcome, so the protocol
reads top to bottom. Scatter reads fan out as child flows, writes and
rebalances queue on one gate, identical GetTiles share one read, and
image rebuilds are single-flight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.client import ClusterDelta
from repro.cluster.flows import All, Flow, FlowRunner, Gate
from repro.cluster.placement import (JournalEntry, Ownership, Placement,
                                     applied_ops)
from repro.cluster.rpc import RpcError, ShardDead, ShardTimeout
from repro.cluster.shard import ShardConfig
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.core.versioning import MapPatch, RemoveElement
from repro.errors import ClusterError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.serve.api import (ChangesSince, GetTile, IngestPatch, Request,
                             Response, Snapshot, SpatialQuery, Status)
from repro.storage.binary import encode_map
from repro.update.distribution import IngestResult, SyncDelta

_log = get_logger("cluster.router")

PRIMARY = "primary"

#: Request kinds whose round-robin pick may go first. Snapshot keeps the
#: primary first: it feeds bootstrap, where the authoritative copy wins.
_REPLICA_READ_KINDS = (GetTile, SpatialQuery, ChangesSince)


class Send(NamedTuple):
    """Call ``call`` on ``(index, slot)`` as spawned at ``gen`` (a slot
    respawned since answers :class:`ShardDead`); feed the outcome back
    on ``seq``. ``attrs`` are the routing facts for its span."""

    seq: int
    op: Any
    index: int
    slot: Any
    gen: int
    call: str
    payload: Any
    attrs: Dict[str, object]


class Restart(NamedTuple):
    """Replace ``(index, slot)`` with spawn ``gen`` of ``config``, before
    any later effect runs."""

    index: int
    slot: Any
    gen: int
    config: ShardConfig


class _Shard:
    """One shard index: what it booted from (the ownership that picked
    its base subset, and the journal length then — every restart reuses
    both), and per slot ("primary", then replica numbers) the spawn
    generation and whether it is believed alive."""

    def __init__(self, index: int, boot: Ownership, boot_seq: int,
                 replicas: int) -> None:
        self.index = index
        self.boot = boot
        self.boot_seq = boot_seq
        self.slots: List[Any] = [PRIMARY] + list(range(replicas))
        self.gen: Dict[Any, int] = {}
        self.alive: Dict[Any, bool] = {}
        self.lease_until = 0.0
        self.last_version = 0
        self.rr = 0  # round-robin cursor: which live candidate goes first

    def live(self) -> List[Any]:
        return [slot for slot in self.slots if self.alive[slot]]


@dataclass(frozen=True)
class BootstrapImage:
    """One merged full map, built once and served to every bootstrap
    until a shard changes. Never mutated: callers get :meth:`checkout`
    copies."""

    map: HDMap
    vector: Dict[int, int]      # per-shard versions the map merges
    version: int                # cluster version it was stamped with
    owner: Ownership            # ownership it was filtered under
    encoded_bytes: int          # len(encode_map(map)): one download

    def checkout(self) -> HDMap:
        """A private copy, same name and version."""
        return self.map.copy(name=self.map.name)


class RouterCore(FlowRunner):
    """The cluster protocol as a state machine; see :class:`Placement`
    for the first arguments. ``registry`` gets the core's instruments."""

    #: journal depth at which one ``journal_large`` warning is emitted
    JOURNAL_WARN_ENTRIES = 10_000

    def __init__(self, hdmap: HDMap, blobs: Dict[TileId, bytes],
                 tile_size: float, n_shards: int, replicas: int,
                 lease_s: float, pack_path: Optional[str],
                 shard_knobs: Dict[str, Any],
                 registry: MetricsRegistry) -> None:
        if n_shards < 1:
            raise ClusterError("n_shards must be >= 1")
        if replicas < 0:
            raise ClusterError("replicas must be >= 0")
        super().__init__()
        self.replicas = replicas
        self.lease_s = lease_s
        self.now = 0.0
        self.place = Placement(hdmap, blobs, tile_size, n_shards, pack_path,
                               shard_knobs)
        self._shards: List[_Shard] = []
        self.journal: List[JournalEntry] = []
        # Every restart replays the whole journal: its depth is a gauge,
        # and crossing the threshold logs one ``journal_large`` warning.
        self._journal_warned = False
        self._version_floor = 0
        self._image: Optional[BootstrapImage] = None
        self._image_gate = Gate()
        self._write_gate = Gate()  # one write (or rebalance) at a time
        # (tile, encoded) of each GetTile in flight -> its followers
        self._flights: Dict[Tuple, Gate] = {}
        self._seqs = itertools.count()
        self._spawns = itertools.count()

        counter, gauge = registry.counter, registry.gauge
        self.failovers = counter("cluster.failovers")
        self.restarts = counter("cluster.restarts")
        self.timeouts = counter("cluster.timeouts")
        self.rebalances = counter("cluster.rebalances")
        self.shards_gauge = gauge("cluster.shards")
        self.journal_gauge = gauge("cluster.journal.entries")
        self.replica_hits = counter("cluster.read.replica_hits")
        self.replica_lag = counter("cluster.read.replica_lag")
        self.read_coalesced = counter("cluster.read.coalesced")
        self.bootstrap_builds = counter("cluster.router.bootstrap_builds")
        self.bootstrap_hits = counter("cluster.router.bootstrap_hits")

    # -- events ---------------------------------------------------------
    def boot(self, now: float) -> List[Any]:
        """The first event: one :class:`Restart` per initial slot."""
        self.now = now
        self._grow(self.place.ownership)
        return self._drain()

    def start(self, op: Any, flow: Flow, now: float) -> List[Any]:
        """Operation ``op`` starts: ``flow`` is one of :meth:`serve`,
        :meth:`bootstrap_image`, :meth:`changes_since`,
        :meth:`rebalance`, :meth:`changelog`, :meth:`metrics` or
        :meth:`call`."""
        self.now = now
        return self._start(op, flow)

    def reply(self, seq: int, value: Any, error: Optional[BaseException],
              now: float) -> List[Any]:
        """Send ``seq`` returned ``value``, or raised ``error``. A reply
        from a slot respawned since the send counts as lost: the
        successor booted without whatever the call did."""
        self.now = now
        _, send = self._waiting.get(seq, (None, None))
        if (error is None and send is not None
                and self._shards[send.index].gen[send.slot] != send.gen):
            error = ShardDead("slot respawned since the send")
        return self._resume(seq, value, error)

    def dead(self, index: int) -> None:
        """Shard ``index``'s primary died outside any call."""
        self._shards[index].alive[PRIMARY] = False

    # -- queries --------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.place.ownership.n_shards

    def live(self) -> List[Tuple[int, Any]]:
        """``(index, slot)`` of each slot believed alive."""
        return [(shard.index, slot) for shard in self._shards
                for slot in shard.live()]

    def version(self) -> int:
        """Monotone cluster version: the sum of shard versions, clamped
        so a restart or rebalance never makes it go down."""
        total = sum(shard.last_version for shard in self._shards)
        if total > self._version_floor:
            self._version_floor = total
        return self._version_floor

    def version_vector(self) -> Dict[int, int]:
        return {shard.index: shard.last_version for shard in self._shards}

    # -- flows ----------------------------------------------------------
    def failure(self, error: BaseException) -> Response:
        return Response(Status.ERROR, error=str(error))

    def _send(self, shard: _Shard, slot: Any, call: str,
              payload: Any = None, **attrs: object) -> Send:
        attrs["shard"] = shard.index
        attrs["replica"] = slot
        return Send(next(self._seqs), self._task.op, shard.index, slot,
                    shard.gen[slot], call, payload, attrs)

    # -- shard lifecycle ------------------------------------------------
    def _config(self, shard: _Shard) -> ShardConfig:
        return self.place.config(shard.index, shard.boot, shard.boot_seq,
                                 self.journal)

    def _grow(self, ownership: Ownership) -> None:
        """Boot the shards ``ownership`` adds (slots share a config)."""
        for index in range(len(self._shards), ownership.n_shards):
            shard = _Shard(index, ownership, len(self.journal),
                           self.replicas)
            config = self._config(shard)
            for slot in shard.slots:
                self._spawn(shard, slot, config)
            self._shards.append(shard)
        self.shards_gauge.set(ownership.n_shards)

    def _spawn(self, shard: _Shard, slot: Any, config: ShardConfig) -> None:
        shard.gen[slot] = gen = next(self._spawns)
        shard.alive[slot] = True
        if slot == PRIMARY:
            shard.lease_until = self.now + self.lease_s
        self._out.append(Restart(shard.index, slot, gen, config))

    def _restart(self, shard: _Shard, slot: Any) -> None:
        config = self._config(shard)
        self._spawn(shard, slot, config)
        self.restarts.add()
        if slot == PRIMARY:
            _log.warning("shard_restarted", shard=shard.index,
                         replayed=len(config.replay))
        else:
            _log.warning("replica_restarted", shard=shard.index,
                         replica=slot)

    def _ensure_primary(self, shard: _Shard) -> Flow:
        """Restart a dead primary; ping one whose lease expired quietly
        (restart if the ping fails)."""
        if not shard.alive[PRIMARY]:
            self._restart(shard, PRIMARY)
        elif self.now >= shard.lease_until:
            send = self._send(shard, PRIMARY, "ping")
            try:
                yield send
                shard.lease_until = self.now + self.lease_s
            except (ShardDead, ShardTimeout):
                if shard.gen[PRIMARY] == send.gen:
                    self._restart(shard, PRIMARY)

    def _note_version(self, shard: _Shard, version: Optional[int]) -> None:
        if version is not None and version > shard.last_version:
            shard.last_version = version

    # -- reads ----------------------------------------------------------
    def _read(self, index: int, request: Request) -> Flow:
        """One read on shard ``index``, walking the live candidates; no
        replica may answer below the version floor. Never raises."""
        shard = self._shards[index]
        floor = shard.last_version  # already observed: nothing below it
        candidates = shard.live()
        primary_up = bool(candidates) and candidates[0] == PRIMARY
        if candidates and isinstance(request, _REPLICA_READ_KINDS):
            shard.rr += 1
            candidates.insert(0, candidates.pop(shard.rr % len(candidates)))
        if candidates and candidates[0] == PRIMARY:
            yield from self._ensure_primary(shard)
        failover = not primary_up
        for slot in candidates:
            send = self._send(shard, slot, "serve", request)
            try:
                response = yield send
            except (ShardDead, ShardTimeout) as exc:
                if isinstance(exc, ShardTimeout):
                    self.timeouts.add()
                # A kill fails every call in flight on the shard: only the
                # first failure of a spawn marks it dead or restarts it.
                if slot == PRIMARY:
                    failover = True
                    if shard.gen[PRIMARY] == send.gen:
                        shard.alive[PRIMARY] = False  # respawned on next use
                elif (isinstance(exc, ShardDead)
                      and shard.gen[slot] == send.gen):
                    self._restart(shard, slot)
                continue
            if slot == PRIMARY:
                shard.lease_until = self.now + self.lease_s
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
            self._note_version(shard, response.version)
            return response
        if not shard.alive[PRIMARY]:
            self._restart(shard, PRIMARY)
        try:
            response = yield self._send(shard, PRIMARY, "serve", request,
                                        failover=True)
        except (ShardDead, ShardTimeout) as exc:
            _log.error("shard_unavailable", shard=index,
                       kind=request.kind, error=str(exc))
            return Response(Status.ERROR,
                            error=f"shard {index} unavailable: {exc}")
        shard.lease_until = self.now + self.lease_s
        self._note_version(shard, response.version)
        return response

    def _gather(self, indices: List[int],
                make: Callable[[int], Request]) -> Flow:
        """Read ``make(i)`` on every shard ``i`` at once."""
        responses = yield All([self._read(i, make(i)) for i in indices])
        return list(zip(indices, responses))

    def serve(self, request: Request) -> Flow:
        """Answers a :class:`Response` to ``request``, stamped with the
        cluster version; never raises."""
        try:
            if isinstance(request, GetTile):
                response = yield from self._get_tile(request)
            elif isinstance(request, SpatialQuery):
                response = yield from self._spatial(request)
            elif isinstance(request, IngestPatch):
                response = yield from self._ingest(request.patch)
            elif isinstance(request, Snapshot):
                image = yield from self.bootstrap_image()
                response = Response(Status.OK, image.checkout())
            elif isinstance(request, ChangesSince):
                delta = yield from self.changes_since(dict.fromkeys(
                    range(self.n_shards), request.since_version))
                response = Response(Status.OK, delta)
            else:
                raise ClusterError(
                    f"unknown request type {type(request).__name__}")
        except Exception as exc:
            response = Response(Status.ERROR,
                                error=f"{type(exc).__name__}: {exc}")
        return self._stamped(response)

    def _stamped(self, response: Response) -> Response:
        """``response`` with the cluster version, if it succeeded."""
        return Response(
            status=response.status, payload=response.payload,
            version=self.version() if response.ok else response.version,
            error=response.error)

    def _get_tile(self, request: GetTile) -> Flow:
        """Identical concurrent GetTiles share one read: followers wait
        for the leader's response, byte-identical."""
        key = (request.tile, request.encoded)
        flight = self._flights.get(key)
        if flight is not None:
            self.read_coalesced.add()
            yield flight  # handed over once the leader has its response
            return flight.response
        flight = self._flights[key] = Gate()
        flight.response = Response(Status.ERROR, error="read failed")
        try:
            flight.response = yield from self._read(
                self.place.ownership.shard(request.tile), request)
        finally:
            del self._flights[key]
            self._wake_all(flight)
        return flight.response

    def _spatial(self, request: SpatialQuery) -> Flow:
        x, y, radius = request.x, request.y, request.radius
        bounds = (x - radius, y - radius, x + radius, y + radius)
        targets = sorted({self.place.ownership.shard(tile) for tile
                          in self.place.scheme.tiles_for_bounds(bounds)})
        merged: List[object] = []
        seen = set()
        for _, response in (yield from self._gather(
                targets, lambda _: request)):
            if not response.ok:
                return response
            # Border elements come back from every shard they touch.
            for element in response.payload:
                if element.id not in seen:
                    seen.add(element.id)
                    merged.append(element)
        return Response(Status.OK, merged)

    def call(self, index: int, slot: Any, call: str,
             payload: Any = None) -> Flow:
        """Answers one ``call`` on slot ``(index, slot)``, or raises what
        it raised: the telemetry drain and the injected slow fault."""
        return (yield self._send(self._shards[index], slot, call, payload))

    def changelog(self, index: int) -> Flow:
        """Answers shard ``index``'s ``(version, change)`` log."""
        shard = self._shards[index]
        yield from self._ensure_primary(shard)
        return (yield self._send(shard, PRIMARY, "changelog"))

    def metrics(self) -> Flow:
        """Answers ``{index: shipped metrics}`` from the first live slot
        of each shard that answers, the primary first."""
        out: Dict[int, Any] = {}
        for index, slot in self.live():
            if index not in out:
                try:
                    out[index] = yield self._send(self._shards[index], slot,
                                                  "metrics")
                except (ShardDead, ShardTimeout, RpcError):
                    pass
        return out

    # -- writes ---------------------------------------------------------
    def _ingest(self, patch: MapPatch) -> Flow:
        """One write at a time: split by owner; per sub-patch, apply,
        journal the ops actually applied, replicate."""
        if not patch.ops:
            return Response(Status.OK,
                            IngestResult(False, None, 0, "empty patch"))
        yield from self._acquire(self._write_gate)
        try:
            place = self.place
            groups: Dict[int, List[Tuple[Optional[TileId], object]]] = {}
            for op in patch.ops:
                if isinstance(op, RemoveElement):
                    # an unknown id goes to shard 0, which rejects it
                    tile, index = place.home(op.element_id, lambda: None)
                else:
                    element = op.element
                    tile, index = place.home(
                        element.id, lambda: place.centre_tile(element))
                groups.setdefault(index, []).append((tile, op))
            results: List[IngestResult] = []
            for index, tile_ops in groups.items():
                sub = MapPatch(ops=[op for _, op in tile_ops],
                               source=patch.source,
                               confidence=patch.confidence)
                result, applied = yield from self._write(index, sub,
                                                         tile_ops)
                if result.accepted and applied:
                    self._journal_ack(index, patch, applied)
                    yield from self._replicate(
                        self._shards[index],
                        MapPatch(ops=[op for _, op in applied],
                                 source=patch.source,
                                 confidence=patch.confidence))
                    place.settle(applied)
                results.append(result)
        finally:
            self._release(self._write_gate)
        if len(results) == 1:
            merged = results[0]
        else:
            accepted = [r for r in results if r.accepted]
            merged = IngestResult(
                accepted=bool(accepted), version=None,
                dropped_ops=sum(r.dropped_ops for r in results),
                reason="; ".join(r.reason for r in results if r.reason))
        return Response(Status.OK, merged)

    def _write(self, index: int, sub: MapPatch, tile_ops) -> Flow:
        """Apply one sub-patch on its primary exactly once; returns
        ``(result, applied tile ops)``. A timeout or death mid-write is
        ambiguous, so the primary restarts from the journal (erasing any
        unacked effect) before the one resend."""
        shard = self._shards[index]
        last_exc: Optional[BaseException] = None
        for _attempt in range(2):
            try:
                yield from self._ensure_primary(shard)
                send = self._send(shard, PRIMARY, "serve",
                                  IngestPatch(patch=sub), write=True)
                response = yield send
                if response.status is not Status.OK:
                    raise ClusterError(f"shard {index} refused write: "
                                       f"{response.error}")
                result: IngestResult = response.payload
                applied = list(tile_ops)
                if result.accepted and result.dropped_ops:
                    log = yield self._send(shard, PRIMARY, "changelog")
                    applied = applied_ops(
                        tile_ops, [c for v, c in log if v == result.version])
                shard.lease_until = self.now + self.lease_s
                self._note_version(shard, result.version)
                return result, applied
            except (ShardDead, ShardTimeout) as exc:
                last_exc = exc
                if isinstance(exc, ShardTimeout):
                    self.timeouts.add()
                _log.warning("write_retry_after_restart", shard=index,
                             error=str(exc))
                if shard.gen[PRIMARY] == send.gen:
                    self._restart(shard, PRIMARY)
        raise ClusterError(f"shard {index} failed twice on write: {last_exc}")

    def _journal_ack(self, index: int, patch: MapPatch, applied) -> None:
        self.journal.append(JournalEntry(
            shard=index, source=patch.source, confidence=patch.confidence,
            ops=applied))
        depth = len(self.journal)
        self.journal_gauge.set(depth)
        if depth >= self.JOURNAL_WARN_ENTRIES and not self._journal_warned:
            self._journal_warned = True
            _log.warning("journal_large", entries=depth,
                         threshold=self.JOURNAL_WARN_ENTRIES)

    def _replicate(self, shard: _Shard, patch: MapPatch) -> Flow:
        """Apply an acked patch on every replica at once: all sends name
        the current spawns, so a replica respawned meanwhile (from the
        journal, which holds the patch) never gets it twice."""
        yield All([self._apply(shard, slot, patch)
                    for slot in shard.slots[1:]])

    def _apply(self, shard: _Shard, slot: int, patch: MapPatch) -> Flow:
        send = self._send(shard, slot, "apply", patch)
        try:
            yield send
        except (ShardDead, ShardTimeout, RpcError):
            # Restart from the journal, which holds this patch already.
            if shard.gen[slot] == send.gen:
                self._restart(shard, slot)

    # -- rebalance ------------------------------------------------------
    def rebalance(self, n_shards: int) -> Flow:
        """Grows the cluster; answers the number of tiles moved. Boots
        the new shards, then swaps ownership. Old shards keep their
        moved-tile state, which every merge filters out by current
        ownership. Writes wait; reads keep flowing."""
        yield from self._acquire(self._write_gate)
        try:
            if n_shards < self.n_shards:
                raise ClusterError("rebalance cannot shrink the cluster")
            if n_shards == self.n_shards:
                return 0
            tiles, old = self.place.all_tiles, self.place.ownership
            new = Ownership(tiles, n_shards)
            moved = sum(1 for tile in tiles
                        if old.tiles[tile] != new.tiles[tile])
            self._grow(new)
            self.place.ownership = new
            self.rebalances.add()
            _log.info("rebalance_completed", shards=n_shards,
                      tiles_moved=moved, total_tiles=len(tiles))
        finally:
            self._release(self._write_gate)
        return moved

    # -- bootstrap image and incremental sync ---------------------------
    def bootstrap_image(self) -> Flow:
        """Answers the current :class:`BootstrapImage`, rebuilt if a
        probe finds it stale. Rebuilds are single-flight: a flow that
        waited on another's rebuild probes that image instead of
        building its own."""
        seen = self._image
        if seen is not None and (yield from self._image_current(seen)):
            self.bootstrap_hits.add()
            return seen
        yield from self._acquire(self._image_gate)
        try:
            image = self._image
            if (image is not seen and image is not None
                    and (yield from self._image_current(image))):
                self.bootstrap_hits.add()
                return image
            image = self._image = yield from self._build_image()
            self.bootstrap_builds.add()
            return image
        finally:
            self._release(self._image_gate)

    def _image_current(self, image: BootstrapImage) -> Flow:
        """Whether every shard still answers at the image's version with
        no changes, under the ownership and cluster version it was
        stamped with (a restarted shard replays to it: a hit)."""
        if image.owner is not self.place.ownership:
            return False
        vector = image.vector
        for index, response in (yield from self._gather(
                sorted(vector),
                lambda i: ChangesSince(since_version=vector[i]))):
            if not response.ok:
                return False
            delta: SyncDelta = response.payload
            if delta.version != vector[index] or delta.changes:
                return False
        return image.version == self.version()

    def _build_image(self) -> Flow:
        """Merge every shard's Snapshot under current ownership."""
        place, owner = self.place, self.place.ownership
        merged = HDMap(f"{place.name}@cluster")
        vector: Dict[int, int] = {}
        for index, response in (yield from self._gather(
                list(range(owner.n_shards)), lambda _: Snapshot())):
            if not response.ok:
                raise ClusterError(
                    f"snapshot failed on shard {index}: {response.error}")
            snap: HDMap = response.payload
            vector[index] = snap.version
            self._note_version(self._shards[index], snap.version)
            for element in snap.elements():
                # After a rebalance the old owner still holds stale
                # copies of moved elements: current ownership decides.
                if place.home(element.id,
                              lambda: place.centre_tile(element))[1] == index:
                    merged.add(element)
        merged.version = self.version()
        return BootstrapImage(map=merged, vector=vector,
                              version=merged.version, owner=owner,
                              encoded_bytes=len(encode_map(merged)))

    def changes_since(self, since: Dict[int, int]) -> Flow:
        """Answers a :class:`ClusterDelta` since a version vector."""
        place = self.place
        deltas: Dict[int, SyncDelta] = {}
        versions: Dict[int, int] = {}
        for index, response in (yield from self._gather(
                list(range(self.n_shards)),
                lambda i: ChangesSince(since_version=since.get(i, 0)))):
            if not response.ok:
                raise ClusterError(f"changes_since failed on shard "
                                   f"{index}: {response.error}")
            delta: SyncDelta = response.payload
            self._note_version(self._shards[index], delta.version)
            changes = []
            elements = {}
            for change in delta.changes:
                if place.home(change.element_id, lambda: place.scheme.tile_of(
                        *change.position))[1] != index:
                    continue  # stale copy of a rebalanced-away element
                changes.append(change)
                if change.element_id in delta.elements:
                    elements[change.element_id] = \
                        delta.elements[change.element_id]
            deltas[index] = SyncDelta(delta.version, changes, elements)
            versions[index] = delta.version
        return ClusterDelta(version=self.version(), versions=versions,
                            deltas=deltas)
