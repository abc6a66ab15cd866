"""ClusterRouter: the shell that runs :class:`RouterCore`'s effects.

Every routing decision is made by the I/O-free
:class:`~repro.cluster.protocol.RouterCore`. The shell owns what the
core may not touch: the transports (one per live primary and replica,
tagged with the core's spawn generation), deadlines and the clock, and
observability (a ``cluster.rpc.<op>`` span and the in-flight gauge
around every call, per-kind latency, connection counters, telemetry).
It starts no thread: a transport's completion callback feeds the reply
to the core under one lock, and each operation's caller thread issues
its own sends, with the lock released, and enforces their deadlines.
Only :meth:`ClusterRouter.kill_shard` reaches a transport directly.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.flows import Discard
from repro.cluster.placement import JournalEntry
from repro.cluster.protocol import (PRIMARY, BootstrapImage, Restart,
                                    RouterCore, Send)
from repro.cluster.rpc import RpcError, ShardDead, ShardTimeout
from repro.cluster.shard import ShardConfig
from repro.cluster.telemetry import TelemetryHarvester
from repro.cluster.transport import LocalShard, ProcessShard
from repro.core.changes import MapChange
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.errors import ClusterError
from repro.obs.log import get_logger
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.trace import TRACER
from repro.serve.api import GetTile, IngestPatch, Request, Response
from repro.serve.metrics import ServiceMetrics
from repro.storage.tilestore import TileStore

_log = get_logger("cluster.router")


class _Op:
    """One caller's operation: its wake-up, the sends it has yet to
    issue, those in flight (``seq -> (deadline, send, span)``) and its
    answer. ``wake`` is held while the caller has nothing to do: routing
    to the operation releases it, and the caller waits by acquiring it
    (a one-shot signal, cheaper than a condition on the shell's lock)."""

    __slots__ = ("wake", "outbox", "calls", "done", "value", "error")

    def __init__(self) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        self.outbox: List[Send] = []
        self.calls: Dict[int, Tuple[float, Send, Any]] = {}
        self.done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None


class ClusterRouter:
    """Routes the five request types across consistent-hashed shards.

    Drop-in for :class:`~repro.serve.service.MapService.request` from a
    client's point of view: same request/response dataclasses, with
    ``Response.version`` rewritten to the *cluster* version (a monotone
    clamp over the sum of shard versions).
    """

    def __init__(self, hdmap: HDMap, n_shards: int = 2,
                 tile_size: float = 500.0,
                 replicas: int = 0,
                 transport: str = "process",
                 n_workers: int = 2,
                 service_latency_s: float = 0.0,
                 storage_latency_s: float = 0.0,
                 call_timeout_s: float = 10.0,
                 lease_s: float = 2.0,
                 pack_path: Optional[str] = None,
                 clock: Callable[[], float] = time.monotonic,
                 telemetry_interval_s: Optional[float] = None) -> None:
        if transport not in ("process", "local"):
            raise ClusterError(f"unknown transport {transport!r}")
        self.replicas = replicas
        self.transport = transport
        self.call_timeout_s = call_timeout_s
        self._clock = clock

        # cluster.* metrics: per-kind latency/outcomes, the core's routing
        # instruments, the shell's transport ones, and export-time values
        # (see _collect_metrics).
        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry, "cluster")
        full_store = TileStore.build(hdmap, tile_size)
        self._core = core = RouterCore(
            hdmap, dict(full_store._blobs), tile_size, n_shards, replicas,
            lease_s, pack_path,
            dict(n_workers=n_workers, service_latency_s=service_latency_s,
                 storage_latency_s=storage_latency_s),
            self.registry)
        # Pack-backed shards: write the full base map into one pack file
        # up front; each shard (and every restart/rebalance spawn) mmaps
        # that shared file instead of receiving its blobs through the
        # fork, so spawning cost stops scaling with base-map size.
        if pack_path is not None:
            full_store.to_pack(pack_path)
        self.failovers = core.failovers
        self.restarts = core.restarts
        self.replica_hits = core.replica_hits
        self.replica_lag = core.replica_lag
        self.read_coalesced = core.read_coalesced
        self.bootstrap_builds = core.bootstrap_builds
        self.bootstrap_hits = core.bootstrap_hits
        self.journal_gauge = core.journal_gauge
        counter = self.registry.counter
        self.rpc_inflight = self.registry.gauge("cluster.rpc.inflight")
        self._inflight = 0        # sends in flight, over every operation
        self._inflight_peak = 0
        self._late_discards = 0   # replies that landed past their deadline
        self._shard_latency: Dict[str, LatencyHistogram] = {}
        self._shard_outcomes: Dict[str, int] = {}
        # Telemetry plane: harvested span/event/drop accounting.
        self.telemetry_spans = counter("cluster.telemetry.spans")
        self.telemetry_events = counter("cluster.telemetry.events")
        self.telemetry_dropped = counter("cluster.telemetry.dropped")
        self.telemetry_harvests = counter("cluster.telemetry.harvests")
        self.registry.register_collector(self._collect_metrics)
        self.telemetry = TelemetryHarvester(
            self, interval_s=telemetry_interval_s
            if telemetry_interval_s is not None else 1.0)

        # Guards the core, ``_links`` ((index, slot) -> (spawn gen,
        # transport)), ``_dying``, every operation's outbox and sends in
        # flight, and the in-flight and late-discard counts. An
        # operation waits for its own wake-up with the lock released.
        self._cond = threading.Lock()
        self._links: Dict[Tuple[int, Any], Tuple[int, Any]] = {}
        self._dying: List[Any] = []
        with self._cond:
            self._route(core.boot(clock()))
        if telemetry_interval_s is not None:
            self.telemetry.start()

    # -- running the core -----------------------------------------------
    def _run(self, flow, tile: Optional[TileId] = None) -> Any:
        """Start ``flow`` as one core operation and drive it from this
        thread until the core responds; returns (or raises) the answer.
        A GetTile of ``tile`` that starts with nothing to send shares
        another caller's read: its trace shows a ``cluster.read.wait``
        span with ``coalesced=True`` instead of an RPC."""
        op = _Op()
        with self._cond:
            self._route(self._core.start(op, flow, self._clock()))
            coalesced = not (op.outbox or op.done or tile is None)
        if coalesced:
            with TRACER.span("cluster.read.wait", coalesced=True,
                             tile=str(tile)):
                with self._cond:
                    self._await(op)
        while True:
            with self._cond:
                self._await(op)
                sends, op.outbox = op.outbox, []
                issue = [self._register(send) for send in sends]
            self._reap()
            for shard, send, span in filter(None, issue):
                shard.call_async(send.call, send.payload, span.context,
                                 partial(self._complete, send))
            if op.done and not issue:
                break
        if op.error is not None:
            raise op.error
        return op.value

    def _await(self, op: _Op) -> None:
        """Wait until ``op`` has sends to issue or its answer, feeding
        the core a :class:`ShardTimeout` for each send whose deadline
        passes first. Hold ``_cond`` (released while waiting)."""
        while not (op.outbox or op.done):
            left = -1.0  # no send in flight: wait for a gate's release
            if op.calls:
                deadline, send, span = min(op.calls.values())
                left = deadline - time.monotonic()
                if left <= 0:
                    error = ShardTimeout(f"no reply to {send.call!r} "
                                         f"within {self.call_timeout_s}s")
                    span.set("timed_out", True)
                    self._settle(send, None, error)
                    continue
            self._cond.release()
            try:
                op.wake.acquire(True, left)
            finally:
                self._cond.acquire()

    def _register(self, send: Send) -> Optional[Tuple[Any, Send, Any]]:
        """Put ``send`` in flight: ``(transport, send, span)``, or None if
        its slot was respawned since (answered ShardDead). Hold ``_cond``."""
        gen, shard = self._links[(send.index, send.slot)]
        if gen != send.gen:
            self._settle(send, None,
                         ShardDead("shard was respawned since the send"))
            return None
        span = TRACER.span(f"cluster.rpc.{send.call}", **send.attrs)
        send.op.calls[send.seq] = (time.monotonic() + self.call_timeout_s,
                                   send, span)
        self._inflight += 1
        self._inflight_peak = max(self._inflight_peak, self._inflight)
        self.rpc_inflight.set(self._inflight)
        return shard, send, span

    def _settle(self, send: Send, value: Any,
                error: Optional[BaseException]) -> None:
        """Feed ``send``'s outcome to the core, closing its span if it
        was still in flight. A reply that lands after its deadline passed
        comes back as a ``Discard``: a late discard. Hold ``_cond``."""
        call = send.op.calls.pop(send.seq, None)
        if call is not None:
            self._inflight -= 1
            self.rpc_inflight.set(self._inflight)
            call[2].__exit__(type(error) if error else None, error, None)
        effects = self._core.reply(send.seq, value, error, self._clock())
        if call is None and not isinstance(error, ShardDead):
            self._late_discards += sum(type(e) is Discard for e in effects)
        self._route(effects)

    def _complete(self, send: Send, value: Any,
                  error: Optional[BaseException]) -> None:
        """A transport's completion of ``send``: the reply event. Runs
        on whichever thread completed the call, which never sends."""
        with self._cond:
            self._settle(send, value, error)

    def _route(self, effects: List[Any]) -> None:
        """Apply ``effects``: a restart spawns now; a send goes into its
        operation's outbox and an answer to its operation, each waking
        it. Hold ``_cond``."""
        for effect in effects:
            kind = type(effect)
            if kind is Restart:
                key = (effect.index, effect.slot)
                old = self._links.get(key)
                if old is not None:
                    self._dying.append(old[1])
                self._links[key] = (effect.gen, self._spawn(effect.config))
                continue
            if kind is Discard:  # a reply nothing awaits
                continue
            op = effect.op
            if kind is Send:
                op.outbox.append(effect)
            else:
                op.value, op.error, op.done = effect.value, effect.error, True
            if op.wake.locked():
                op.wake.release()

    def _reap(self) -> None:
        """Kill the transports the last steps replaced — with the lock
        released, since killing joins a process."""
        if not self._dying:
            return
        with self._cond:
            dying, self._dying = self._dying, []
        for shard in dying:
            try:
                shard.kill()
            except Exception:
                pass

    def _spawn(self, config: ShardConfig):
        # Runs under ``_cond``, so forks never race: a fork that raced
        # another spawn would inherit the other's not-yet-closed child
        # socket end and break shard-death EOF detection.
        if self.transport == "local":
            return LocalShard(config)
        return ProcessShard(config)

    # -- lifecycle ------------------------------------------------------
    def harvest_telemetry(self) -> Dict[str, int]:
        """Pull shard spans/events into the router recorder right now."""
        return self.telemetry.harvest_once()

    def close(self) -> None:
        # Final telemetry drain before the shard processes go away —
        # without it, the tail of every trace would die with the shards.
        self.telemetry.stop(
            final_harvest=self.telemetry.started or TRACER.enabled)
        self._reap()
        with self._cond:
            shards = [shard for _, shard in self._links.values()]
        for shard in shards:
            try:
                shard.close()
            except Exception:
                pass

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- topology -------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._core.n_shards

    def owner_of_tile(self, tile: TileId) -> int:
        """Current owning shard of ``tile``."""
        return self._core.place.ownership.shard(tile)

    def tiles(self) -> List[TileId]:
        """Blob-backed tiles of the static base (the GetTile universe)."""
        return sorted(self._core.place.blobs)

    # -- versions -------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone cluster version (see :meth:`RouterCore.version`)."""
        with self._cond:
            return self._core.version()

    def version_vector(self) -> Dict[int, int]:
        """Last observed per-shard versions (for incremental sync)."""
        with self._cond:
            return self._core.version_vector()

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
            out: Response = self._run(
                self._core.serve(request),
                request.tile if isinstance(request, GetTile) else None)
            latency = self._clock() - t0
            out.latency_s = latency
            if span.context is not None:
                span.set("status", out.status.value)
                span.set("version", out.version)
        if (isinstance(request, IngestPatch) and out.ok
                and out.payload.accepted):
            self.metrics.record_freshness(latency)
        self.metrics.record(kind, out.status.value, latency)
        return out

    def bootstrap(self) -> Tuple[HDMap, Dict[int, int]]:
        """A private copy of the merged full map plus the per-shard
        version vector it was captured at (the cluster client's bootstrap
        payload), served from the bootstrap image."""
        image = self.bootstrap_image()
        return image.checkout(), dict(image.vector)

    def bootstrap_image(self) -> BootstrapImage:
        """The current bootstrap image, rebuilt first if it is stale."""
        return self._run(self._core.bootstrap_image())

    def changes_since(self, since: Dict[int, int]):
        """Incremental sync against a per-shard version vector; returns a
        :class:`~repro.cluster.client.ClusterDelta`."""
        return self._run(self._core.changes_since(since))

    def rebalance(self, n_shards: int) -> int:
        """Grow the cluster to ``n_shards``; returns tiles moved. Writes
        wait for it; reads keep flowing."""
        return self._run(self._core.rebalance(n_shards))

    # -- chaos seams ----------------------------------------------------
    def kill_shard(self, index: int) -> None:
        """Injected crash: kill the primary outside any routing step —
        like a real crash mid-request. The next touch fails over or
        restarts."""
        with self._cond:
            self._core.dead(index)
            _, shard = self._links[(index, PRIMARY)]
        try:
            shard.kill()
        except Exception:
            pass
        _log.warning("shard_killed", shard=index, injected=True)

    def slow_shard(self, index: int, delay_s: float,
                   count: int = 1) -> None:
        """Injected slowness: the shard's next ``count`` dispatches
        sleep ``delay_s`` before answering."""
        try:
            self._call(index, PRIMARY, "slow",
                       {"delay_s": delay_s, "count": count})
        except (ShardDead, ShardTimeout, RpcError):
            pass
        _log.warning("shard_slowed", shard=index, delay_s=delay_s,
                     count=count, injected=True)

    def _call(self, index: int, slot: Any, call: str,
              payload: Any = None) -> Any:
        """One ``call`` on a named slot, as an operation of its own."""
        return self._run(self._core.call(index, slot, call, payload))

    # -- observability --------------------------------------------------
    def collect_shard_metrics(self) -> Dict[int, Dict[str, object]]:
        """Poll every shard's metrics (see :meth:`RouterCore.metrics`);
        fold latency histograms into the
        ``cluster.shard.latency.<kind>`` merge and sum outcome
        counters. Returns the raw per-shard snapshots."""
        merged: Dict[str, LatencyHistogram] = {}
        outcomes: Dict[str, int] = {}
        per_shard: Dict[int, Dict[str, object]] = {}
        for index, shipped in self._run(self._core.metrics()).items():
            per_shard[index] = shipped["snapshot"]
            for kind, hist in shipped["latency"].items():
                if kind in merged:
                    merged[kind].merge(hist)
                else:
                    merged[kind] = hist
            for key, value in shipped["snapshot"]["outcomes"].items():
                outcomes[key] = outcomes.get(key, 0) + value
        self._shard_latency = merged
        self._shard_outcomes = outcomes
        return per_shard

    def shard_changelog(self, index: int) -> List[Tuple[int, MapChange]]:
        """One shard's full ``(version, change)`` log (chaos invariant
        checks read these)."""
        return self._run(self._core.changelog(index))

    def journal_entries(self) -> List[JournalEntry]:
        with self._cond:
            return list(self._core.journal)

    def _collect_metrics(self) -> Dict[str, object]:
        """Export-time ``cluster.rpc.late_discards`` / ``.pending`` and
        the ``cluster.shard.latency.<kind>`` /
        ``cluster.shard.requests.<kind>.<status>`` merge of the last
        :meth:`collect_shard_metrics`."""
        out: Dict[str, object] = {
            "cluster.rpc.late_discards": self._late_discards,
            "cluster.rpc.pending": self._inflight,
        }
        for kind, hist in self._shard_latency.items():
            out[f"cluster.shard.latency.{kind}"] = hist
        for key, value in self._shard_outcomes.items():
            out[f"cluster.shard.requests.{key}"] = value
        return out

    def stats(self) -> Dict[str, object]:
        """Topology facts plus every scalar ``cluster.*`` metric outside
        the per-kind families, keyed by its name past ``cluster.`` and a
        ``read.``/``router.``/``rpc.`` section, dots as underscores
        (``cluster.read.coalesced`` -> ``coalesced``,
        ``cluster.journal.entries`` -> ``journal_entries``)."""
        with self._cond:
            out: Dict[str, object] = {
                "replicas": self.replicas,
                "transport": self.transport,
                "version": self._core.version(),
                "version_vector": self._core.version_vector(),
                "tiles": len(self._core.place.all_tiles),
                "inflight_peak": self._inflight_peak,
            }
        for name, value in self.registry.snapshot().items():
            key = name[len("cluster."):]
            if isinstance(value, dict) or key.startswith(
                    ("requests.", "shard.")):
                continue
            for section in ("read.", "router.", "rpc."):
                if key.startswith(section):
                    key = key[len(section):]
            out[key.replace(".", "_")] = value
        return out
