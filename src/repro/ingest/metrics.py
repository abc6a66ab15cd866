"""End-to-end observability of the ingestion pipeline.

:class:`IngestMetrics` creates every ``ingest.*`` instrument on the
pipeline's :class:`~repro.obs.metrics.MetricsRegistry` and adds the two
surfaces the maintenance loop needs: per-stage latency histograms (where
in validate -> associate -> fuse -> classify -> emit does time go), kept
*per worker* and merged with :meth:`LatencyHistogram.merge` at export
time into ``ingest.stage.<stage>``, and the *map-freshness lag* — the
wall time from an observation entering the bus to the moment its
confirmed patch is visible to ``ChangesSince`` on the serving layer.
Freshness is the metric the whole subsystem exists to drive down.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.core.validation import ALL_CONSTRAINTS
from repro.obs.metrics import (
    FRESHNESS_BOUNDS,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)

#: Stage latencies are short (in-process work): 10 us .. 1 s, then +inf.
STAGE_BOUNDS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0)

#: Summary keys (:meth:`IngestMetrics.as_dict`) that differ from the
#: registry names; the bus's producer-side counters fold into the
#: consumer-side sections.
_SUMMARY_KEYS = {
    "stage": "stage_latency",
    "verify.constraint": "verify.by_constraint",
    "bus.published": "observations.published",
    "bus.deduplicated": "observations.deduplicated",
    "bus.shed_oldest": "observations.shed",
    "bus.redelivered": "batches.redelivered",
    "bus.acked_batches": "batches.acked",
}


class IngestMetrics:
    """Counters, gauges, and histograms for one pipeline instance."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        counter = registry.counter
        # consumer-side (producer-side counts live on the ObservationBus)
        self.observations_processed = counter(
            "ingest.observations.processed")
        self.batches_processed = counter("ingest.batches.processed")
        self.batch_retries = counter("ingest.batches.retries")
        self.dead_letters = counter("ingest.batches.dead_letters")
        self.worker_restarts = counter("ingest.batches.worker_restarts")
        # publish-side
        self.patches_published = counter("ingest.patches.published")
        self.patches_duplicate = counter(
            "ingest.patches.duplicate_suppressed")
        self.patches_conflicted = counter("ingest.patches.conflicted")
        self.publish_retries = counter("ingest.patches.publish_retries")
        self.publish_failures = counter("ingest.patches.publish_failures")
        # verify gate (see repro.ingest.verify) — the per-constraint
        # counters are pre-seeded from the canonical catalog so every
        # ``ingest.verify.constraint.<name>`` series exists from boot,
        # violations or not (dashboards and check_docs rely on this).
        self.verify_checked = counter("ingest.verify.checked")
        self.verify_passed = counter("ingest.verify.passed")
        self.verify_quarantined = counter("ingest.verify.quarantined")
        self.verify_violations = counter("ingest.verify.violations")
        self.verify_constraint = {
            name: counter(f"ingest.verify.constraint.{name}")
            for name in ALL_CONSTRAINTS}
        self.quarantine_depth = registry.gauge(
            "ingest.verify.quarantine_depth")
        # per-stage circuit breakers (see repro.ingest.breaker)
        self.breaker_opens = counter("ingest.breaker.opens")
        self.breaker_fast_failures = counter("ingest.breaker.fast_failures")
        self.freshness = registry.histogram("ingest.freshness",
                                            FRESHNESS_BOUNDS)
        self.in_flight = registry.gauge("ingest.in_flight")
        # (stage, worker) -> histogram, merged per stage on export
        self._lock = threading.Lock()
        self._stage_latency: Dict[Tuple[str, int], LatencyHistogram] = {}
        registry.register_collector(lambda: {
            f"ingest.stage.{stage}": self.merged_stage_histogram(stage)
            for stage in self.stage_names()})

    def stage_histogram(self, stage: str, worker: int) -> LatencyHistogram:
        """The per-worker histogram of one stage (lazily created)."""
        key = (stage, worker)
        with self._lock:
            hist = self._stage_latency.get(key)
            if hist is None:
                hist = self._stage_latency[key] = \
                    LatencyHistogram(STAGE_BOUNDS)
            return hist

    def record_stage(self, stage: str, seconds: float, worker: int) -> None:
        self.stage_histogram(stage, worker).record(seconds)

    def stage_names(self) -> List[str]:
        with self._lock:
            return sorted({stage for stage, _ in self._stage_latency})

    def merged_stage_histogram(self, stage: str) -> LatencyHistogram:
        """All workers' histograms of ``stage`` folded into one
        (:meth:`LatencyHistogram.merge` — bounds are uniform here by
        construction)."""
        with self._lock:
            parts = [hist for (name, _), hist in self._stage_latency.items()
                     if name == stage]
        merged = LatencyHistogram(STAGE_BOUNDS)
        for part in parts:
            merged.merge(part)
        return merged

    def record_freshness(self, lag_s: float) -> None:
        self.freshness.record(lag_s)

    def depth_gauge(self, partition: int) -> Gauge:
        return self.registry.gauge(f"ingest.queue_depth.{partition}")

    def as_dict(self) -> Dict[str, object]:
        """The registry's ``ingest.*`` snapshot as one summary:
        ``stage_latency`` (merged across workers), ``freshness``,
        ``queue_depth``, ``in_flight`` and the ``observations`` /
        ``batches`` / ``patches`` / ``verify`` / ``breaker`` sections."""
        return {"stage_latency": {}, "queue_depth": {},
                **self.registry.nested("ingest", _SUMMARY_KEYS)}
