"""Shard process: a full MapService over one shard's tile subset.

A shard is an ordinary single-node serving stack —
:class:`~repro.update.distribution.MapDistributionServer` (authoritative
dynamic state) + :class:`~repro.storage.tilestore.TileStore` (static tile
blobs) + :class:`~repro.serve.service.MapService` (worker pool, cache,
admission) — scoped to the tiles rendezvous hashing assigned it. The
router hands each shard a fully picklable :class:`ShardConfig` at boot:

- ``base_map_bytes``: the encoded disjoint subset of the base map whose
  elements' centre tiles this shard owns (the authoritative dynamic
  partition — every element has exactly one home shard);
- ``blobs``: the shard's owned tiles' blobs, sliced from a *full-map*
  ``TileStore.build``, so border elements are replicated exactly as on a
  single node and ``GetTile`` payloads are byte-identical regardless of
  which shard serves them;
- ``replay``: the journal suffix of accepted sub-patches this shard must
  re-apply. Replay runs through the same ingest path (same conflict
  policy, same order), so a restarted shard reconstructs the exact
  dynamic state — versions, change log, and all — that the dead primary
  had acknowledged. That replay is the whole failover story: acked
  writes live in the router's journal, so no shard death can lose them.

The same backend runs in two transports: in-process (``LocalShard`` in
the router module — unit tests, doc tooling) and as a forked child
(:func:`shard_main`) speaking the length-prefixed RPC of
:mod:`repro.cluster.rpc` over a socketpair.

The ops, all sent by the router: ``serve`` (one
:class:`~repro.serve.api.Request` through the worker pool — the only
op answered out of order), ``apply`` (replica write), ``changelog``,
``metrics``, ``telemetry`` and ``clock`` (the trace harvest), ``ping``
(lease renewal), ``slow`` (the injected slow fault), and ``shutdown``
(handled by the connection loop itself).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.tiles import TileId
from repro.core.versioning import MapPatch
from repro.obs.log import EVENT_LOG, get_logger
from repro.obs.trace import TRACER, SpanRecorder
from repro.serve.api import Request
from repro.serve.service import MapService
from repro.storage.binary import decode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import ConflictPolicy, MapDistributionServer

_log = get_logger("cluster.shard")


@dataclass
class ShardConfig:
    """Everything a shard process needs to boot, in picklable form."""

    index: int
    tile_size: float
    base_map_bytes: bytes
    blobs: Dict[TileId, bytes] = field(default_factory=dict)
    replay: List[MapPatch] = field(default_factory=list)
    n_workers: int = 2
    service_latency_s: float = 0.0
    storage_latency_s: float = 0.0
    name: str = "shard"
    #: pack-backed mode: instead of shipping ``blobs`` through the fork,
    #: every shard mmaps the same shared pack file and sees only its
    #: ``owned_tiles`` subset — the config stays a few hundred bytes no
    #: matter how big the base map is.
    pack_path: Optional[str] = None
    owned_tiles: List[TileId] = field(default_factory=list)


class ShardBackend:
    """The shard-side dispatch table over a private serving stack."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        base = decode_map(config.base_map_bytes)
        self.server = MapDistributionServer(base)
        if config.pack_path is not None:
            store = TileStore.from_pack(config.pack_path, config.tile_size,
                                        tiles=config.owned_tiles)
        else:
            store = TileStore.from_blobs(config.blobs, config.tile_size)
        self.service = MapService(
            self.server, store,
            n_workers=config.n_workers,
            service_latency_s=config.service_latency_s,
            storage_latency_s=config.storage_latency_s)
        for patch in config.replay:
            # The journal stores *effective* patches — the ops the dead
            # primary actually applied after conflict resolution — so
            # replay applies them verbatim (LAST_WRITER_WINS never drops)
            # and reconstructs the exact acked state: one version per
            # entry, same elements, same change log shape.
            self.server.ingest(patch, policy=ConflictPolicy.LAST_WRITER_WINS)
        # Injected slowness (the cluster.slow_shard fault): the next
        # ``count`` dispatches sleep ``delay_s`` before answering.
        self._slow_lock = threading.Lock()
        self._slow_delay_s = 0.0
        self._slow_count = 0
        # Telemetry drop accounting: ``dropped`` on the recorder is
        # cumulative; each telemetry drain reports only the delta since
        # the previous one.
        self._telemetry_dropped_seen = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ShardBackend":
        self.service.start()
        return self

    def stop(self) -> None:
        self.service.stop()
        reader = self.service.store.pack_reader
        if reader is not None:
            reader.close()  # defers while served views are still alive

    # -- dispatch -------------------------------------------------------
    def _maybe_slow(self) -> float:
        """Apply an armed slow fault; returns the delay slept (0 = none)."""
        with self._slow_lock:
            if self._slow_count <= 0:
                return 0.0
            self._slow_count -= 1
            delay = self._slow_delay_s
        time.sleep(delay)
        return delay

    def _serve_span(self, trace_ctx, op: str, delayed: float):
        """Resume the router's propagated trace as a ``shard.serve`` span.

        The span parents everything the worker pool records for the
        request (``MapService.submit`` captures the active context), and
        a fired slow fault is stamped onto it — plus a trace-correlated
        ``fault_injected`` event — so a poisoned trace is identifiable
        from the merged tree alone.
        """
        span = TRACER.continue_from(trace_ctx, "shard.serve",
                                    shard=self.config.index, op=op)
        if span.context is not None and delayed:
            span.set("fault", "cluster.slow_shard")
            span.set("fault_delay_s", delayed)
        return span

    def dispatch_async(self, op: str, payload: Any, trace_ctx: Any = None):
        """Pipelined dispatch: ``serve`` ops return a ``Future`` resolved
        by the worker pool, so the connection loop keeps reading while
        slow handlers run — requests overlap inside one shard and
        replies go out as each finishes. Every other op (rare, cheap, or
        intentionally order-sensitive) returns ``None`` and takes the
        synchronous path in the loop thread.
        """
        if op != "serve":
            return None
        # An armed slow fault sleeps *here*, in the connection loop —
        # stalling the whole stream like a wedged shard, which is what
        # the timeout -> failover chaos path expects to observe.
        delayed = self._maybe_slow()
        assert isinstance(payload, Request)
        span = self._serve_span(trace_ctx, op, delayed)
        # Enter (activating the context so submit() parents under this
        # span), submit, then detach without ending: the span covers the
        # whole shard-side handling and is closed by the future callback
        # — registered first, so it runs before the reply is sent.
        span.__enter__()
        try:
            if delayed:
                _log.warning("fault_injected", fault="cluster.slow_shard",
                             shard=self.config.index, delay_s=delayed)
            future = self.service.submit(payload)
        except BaseException:
            span.__exit__(None, None, None)
            raise
        finally:
            span.detach()
        if span.context is not None:
            def _close_span(fut, span=span):
                resp = None if fut.exception() is not None else fut.result()
                if resp is not None:
                    span.set("status", resp.status.value)
                span.__exit__(None, None, None)
            future.add_done_callback(_close_span)
        return future

    def dispatch(self, op: str, payload: Any, trace_ctx: Any = None) -> Any:
        """Synchronous dispatch of any op (``serve`` waits on the
        :meth:`dispatch_async` future)."""
        if op == "serve":
            return self.dispatch_async(op, payload, trace_ctx).result(30.0)
        self._maybe_slow()
        if op == "apply":
            # Replica write path: apply an effective (post-conflict-
            # resolution) patch verbatim, exactly as journal replay does,
            # so replicas track the primary version-for-version.
            assert isinstance(payload, MapPatch)
            return self.server.ingest(
                payload, policy=ConflictPolicy.LAST_WRITER_WINS)
        if op == "ping":
            return "pong"
        if op == "clock":
            # Clock-offset ping: the harvester reads this process's
            # monotonic clock, brackets it with its own send/receive
            # stamps, and estimates the offset as shard_ts − midpoint.
            return time.monotonic()
        if op == "telemetry":
            return self.telemetry(payload if isinstance(payload, dict)
                                  else {})
        if op == "changelog":
            return self.changelog()
        if op == "metrics":
            metrics = self.service.metrics
            return {
                "snapshot": metrics.snapshot(),
                "latency": metrics.latency_histograms(),
                "outcomes": metrics.outcome_counts(),
            }
        if op == "slow":
            with self._slow_lock:
                self._slow_delay_s = float(payload["delay_s"])
                self._slow_count = int(payload["count"])
            return None
        raise ValueError(f"unknown shard op {op!r}")

    def telemetry(self, limits: Dict[str, Any]) -> Dict[str, Any]:
        """Drain this process's span ring and event tail, bounded.

        The harvest op: returns up to ``max_spans`` span dicts and
        ``max_events`` event dicts (oldest first, removed from the local
        rings), the span-drop delta since the previous drain, and this
        process's monotonic clock so the router can sanity-check its
        offset estimate. In the local transport the router intercepts
        this op — in-process spans land directly in its recorder.
        """
        recorder = TRACER.recorder
        spans = recorder.drain(int(limits.get("max_spans", 512)))
        events = EVENT_LOG.drain(int(limits.get("max_events", 512)))
        dropped = recorder.dropped - self._telemetry_dropped_seen
        self._telemetry_dropped_seen = recorder.dropped
        return {
            "shard": self.config.index,
            "spans": spans,
            "events": events,
            "dropped": dropped,
            "clock": time.monotonic(),
        }

    def changelog(self) -> List[Tuple[int, object]]:
        """The shard's full ``(version, MapChange)`` log, atomically."""
        with self.server._lock:
            return list(self.server.db.log.entries)


def _post_fork_sanitize(index: Optional[int] = None) -> None:
    """Make inherited global state safe and quiet in a forked child.

    Fork can snapshot locks mid-acquisition by a router thread; every
    lock the child might touch through module globals is replaced with a
    fresh one. The inherited event ring is cleared so the shard ships
    only its *own* events when the router polls them, and the inherited
    JSONL sinks are dropped so the child never appends to the router's
    files.

    Tracing is rebuilt for the telemetry plane: a fresh recorder (no
    router spans, no sink), span ids namespaced ``s<index>-<pid>-`` so
    merged rings never collide, and ``sample_rate=0`` — a shard never
    *starts* traces, it only continues contexts the router propagated
    (``continue_from`` ignores the sampler).
    """
    EVENT_LOG._lock = threading.Lock()
    EVENT_LOG._events.clear()
    EVENT_LOG.jsonl_path = None
    for counter in EVENT_LOG.counts_by_level.values():
        counter._lock = threading.Lock()
    TRACER.recorder = SpanRecorder(capacity=TRACER.recorder.capacity)
    if index is not None:
        TRACER.id_prefix = f"s{index}-{os.getpid():x}-"
    TRACER.enabled = True
    TRACER.set_sample_rate(0.0)


def shard_main(config: ShardConfig, sock) -> None:
    """Child-process entrypoint: boot the backend and serve the socket."""
    from repro.cluster.rpc import serve_connection

    _post_fork_sanitize(config.index)
    backend = ShardBackend(config).start()
    try:
        serve_connection(sock, backend.dispatch, backend.dispatch_async)
    finally:
        backend.stop()
        try:
            sock.close()
        except OSError:
            pass
