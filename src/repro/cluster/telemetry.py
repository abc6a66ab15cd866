"""Cluster telemetry plane: shard spans and events into the router.

:class:`TelemetryHarvester` drains each live shard process's span ring
and event tail over the ``telemetry`` op, rebasing timestamps with
:func:`estimate_clock_offset`; see DESIGN.md "Cluster telemetry plane".
"""

from __future__ import annotations

import random
import threading
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.cluster.rpc import RpcError, ShardDead, ShardTimeout
from repro.obs.log import EVENT_LOG
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # the router owns its harvester
    from repro.cluster.router import ClusterRouter


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
        with router._cond:
            slots = router._core.live()
        for index, slot in slots:
            role = slot if slot == "primary" else f"replica{slot}"
            call = partial(router._call, index, slot)
            try:
                offset = estimate_clock_offset(call)
                batch = call("telemetry", {"max_spans": self.BATCH,
                                           "max_events": self.BATCH})
            except (ShardDead, ShardTimeout, RpcError):
                continue
            counts = self.merge(index, role, batch, offset)
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

