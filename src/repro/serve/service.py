"""`MapService`: the concurrent front door of the HD-map database.

One service instance fronts a :class:`~repro.update.distribution.MapDistributionServer`
(the authoritative, versioned map) and a :class:`~repro.storage.tilestore.TileStore`
(the static tiled base map) for a whole fleet:

- requests enter through :meth:`MapService.submit`, which applies admission
  control (bounded queue; REJECTED on overflow) and returns a future;
- a pool of worker threads drains the queue, shedding stale low-priority
  requests (SHED) and dispatching the rest;
- tile reads and spatial queries are answered from a
  :class:`~repro.serve.cache.ShardedTileCache` — one LRU of
  ``cache_shards * tiles_per_shard`` decoded tiles behind one lock — so a
  hot tile is decoded once and a miss decodes outside the lock;
- ingests and incremental syncs go to the distribution server, whose lock
  gives single-copy consistency (see ``repro.update.distribution``).

Locking discipline: the tile cache and the distribution server have
independent locks and no handler holds both at once, so the service cannot
deadlock. Tile requests serve the *static* base map; dynamic map changes
flow exclusively through ``IngestPatch``/``ChangesSince`` versions —
exactly the split a production map stack makes between base-map blobs on a
CDN and a live change feed.

``storage_latency_s`` and ``service_latency_s`` model remote-blob fetch
and per-request network/serialization cost. They sleep with the GIL
released, which is what lets a multi-worker pool overlap work in the
benchmarks the same way an I/O-bound server does in production.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import List, Optional, Set

from repro.core.hdmap import HDMap
from repro.core.tiles import TileId
from repro.errors import HDMapError
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import TRACER
from repro.serve.admission import AdmissionController
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
from repro.serve.cache import ShardedTileCache
from repro.serve.metrics import ServiceMetrics
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer


_log = get_logger("serve.service")


class _WorkItem:
    __slots__ = ("request", "future", "submitted_at", "trace_ctx")

    def __init__(self, request: Request, future: "Future[Response]",
                 submitted_at: float, trace_ctx=None) -> None:
        self.request = request
        self.future = future
        self.submitted_at = submitted_at
        # TraceContext captured at submit; the worker thread continues
        # the caller's trace from it (or opens a sampled root span).
        self.trace_ctx = trace_ctx


class MapService:
    """Thread-safe map serving: worker pool + cache + admission control."""

    def __init__(self, server: MapDistributionServer, store: TileStore,
                 n_workers: int = 4,
                 cache_shards: int = 8, tiles_per_shard: int = 16,
                 max_queue: int = 256,
                 storage_latency_s: float = 0.0,
                 service_latency_s: float = 0.0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.server = server
        self.store = store
        self.n_workers = n_workers
        self.storage_latency_s = storage_latency_s
        self.service_latency_s = service_latency_s
        self.cache = ShardedTileCache(self._fetch_tile, cache_shards,
                                      tiles_per_shard)
        self.metrics = ServiceMetrics()
        self.metrics.attach_cache(self.cache)
        #: tiles a SpatialQuery actually visited (present in the store);
        #: absent covered tiles are short-circuited before the cache.
        self.spatial_tiles_scanned = Counter()
        if registry is not None:
            self.metrics.register_into(registry)
            registry.register("serve.spatial.tiles_scanned",
                              self.spatial_tiles_scanned)
            if store.pack_backed:
                store.pack_reader.register_into(registry)
        self.queue = AdmissionController(max_queue, on_shed=self._shed_item)
        self._threads: List[threading.Thread] = []
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "MapService":
        if self._started:
            return self
        self._started = True
        for i in range(self.n_workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"map-serve-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        """Drain the queue, answer everything in flight, and join workers."""
        if not self._started:
            return
        self.queue.close()
        for t in self._threads:
            t.join()
        self._threads.clear()
        self._started = False

    def __enter__(self) -> "MapService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission -----------------------------------------------------
    def submit(self, request: Request) -> "Future[Response]":
        """Queue a request; the future resolves to its :class:`Response`.

        Rejection (queue full / service stopped) resolves the future
        immediately — callers never block on admission.
        """
        future: "Future[Response]" = Future()
        item = _WorkItem(request, future, time.monotonic(),
                         trace_ctx=TRACER.propagate())
        if not self.queue.offer(item, request.priority):
            self.metrics.record(request.kind, Status.REJECTED.value, 0.0)
            _log.warning("request_rejected", kind=request.kind,
                         queue_depth=self.queue.depth())
            future.set_result(Response(Status.REJECTED,
                                       error="admission queue full"))
        return future

    def request(self, request: Request,
                timeout: Optional[float] = None) -> Response:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(timeout)

    # -- worker side ----------------------------------------------------
    def _shed_item(self, item: _WorkItem) -> None:
        latency = time.monotonic() - item.submitted_at
        self.metrics.record(item.request.kind, Status.SHED.value, latency)
        _log.warning("request_shed", kind=item.request.kind,
                     queued_age_s=round(latency, 6))
        item.future.set_result(Response(
            Status.SHED, latency_s=latency,
            error="stale low-priority request shed under load"))

    def _worker_loop(self) -> None:
        while True:
            item = self.queue.take()
            if item is None:
                return
            self._serve(item)

    def _serve(self, item: _WorkItem) -> None:
        kind = item.request.kind
        span = TRACER.continue_from(item.trace_ctx, f"serve.request.{kind}")
        with span:
            if span.context is not None:
                span.set("queue_wait_s",
                         round(time.monotonic() - item.submitted_at, 6))
            if self.service_latency_s > 0:
                time.sleep(self.service_latency_s)
            try:
                payload, version = self._dispatch(item.request)
                latency = time.monotonic() - item.submitted_at
                response = Response(Status.OK, payload, version, latency)
            except HDMapError as exc:
                latency = time.monotonic() - item.submitted_at
                response = Response(Status.ERROR, latency_s=latency,
                                    error=str(exc))
                _log.warning("request_failed", kind=kind, error=str(exc))
            except Exception as exc:  # keep the worker alive on handler bugs
                latency = time.monotonic() - item.submitted_at
                response = Response(Status.ERROR, latency_s=latency,
                                    error=f"{type(exc).__name__}: {exc}")
                _log.error("request_handler_error", kind=kind,
                           error=f"{type(exc).__name__}: {exc}")
            if span.context is not None:
                span.set("status", response.status.value)
                span.set("version", response.version)
        self.metrics.record(kind, response.status.value,
                            response.latency_s)
        item.future.set_result(response)

    # -- handlers -------------------------------------------------------
    def _fetch_tile(self, tile: TileId) -> Optional[HDMap]:
        if self.storage_latency_s > 0:
            time.sleep(self.storage_latency_s)
        return self.store.load_tile(tile)

    def _dispatch(self, request: Request):
        """(payload, served version)."""
        if isinstance(request, GetTile):
            version = self.server.version
            if request.encoded:
                # The payload is the stored blob itself (a zero-copy mmap
                # slice for pack-backed stores): tiles are the static base
                # map, byte-stable across versions, so there is nothing to
                # encode, memoize or invalidate.
                return self.store.encoded_view(request.tile), version
            return self.cache.get(request.tile), version
        if isinstance(request, SpatialQuery):
            return self._spatial(request), self.server.version
        if isinstance(request, ChangesSince):
            delta = self.server.delta_since(request.since_version)
            return delta, delta.version
        if isinstance(request, IngestPatch):
            result = self.server.ingest(request.patch)
            version = result.version if result.version is not None \
                else self.server.version
            return result, version
        if isinstance(request, Snapshot):
            snapshot = self.server.snapshot()
            return snapshot, snapshot.version
        raise HDMapError(f"unknown request type {type(request).__name__}")

    def _spatial(self, request: SpatialQuery) -> list:
        x, y, radius = request.x, request.y, request.radius
        bounds = (x - radius, y - radius, x + radius, y + radius)
        out: list = []
        seen: Set[object] = set()
        for tile in self.store.scheme.tiles_for_bounds(bounds):
            # Short-circuit tiles absent from the store: a radius query
            # over sparse geography would otherwise fault every covered
            # tile into the cache just to learn it holds nothing.
            if not self.store.contains(tile):
                continue
            self.spatial_tiles_scanned.add()
            shard = self.cache.get(tile)
            if shard is None:
                continue
            found = (shard.landmarks_in_radius(x, y, radius)
                     if request.landmarks_only
                     else shard.elements_in_radius(x, y, radius))
            for element in found:
                if element.id not in seen:
                    seen.add(element.id)
                    out.append(element)
        return out
