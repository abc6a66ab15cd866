"""End-to-end observability of the ingestion pipeline.

Reuses the shared thread-safe :class:`~repro.obs.metrics.Counter` /
:class:`~repro.obs.metrics.Gauge` /
:class:`~repro.obs.metrics.LatencyHistogram` primitives from
:mod:`repro.obs.metrics` and adds the two surfaces the maintenance loop
needs:
per-stage latency histograms (where in validate -> associate -> fuse ->
classify -> emit does time go), kept *per worker* and aggregated with
:meth:`LatencyHistogram.merge` at export time, and the *map-freshness
lag* — the wall time from an observation entering the bus to the moment
its confirmed patch is visible to ``ChangesSince`` on the serving
layer. Freshness is the metric the whole subsystem exists to drive
down. The whole aggregate registers into a
:class:`~repro.obs.metrics.MetricsRegistry` under canonical
``ingest.*`` names via :meth:`IngestMetrics.register_into`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.core.validation import ALL_CONSTRAINTS
from repro.obs.metrics import (
    FRESHNESS_BOUNDS,
    Counter,
    Gauge,
    HotCounter,
    LatencyHistogram,
    MetricsRegistry,
)

#: Stage latencies are short (in-process work): 10 us .. 1 s, then +inf.
STAGE_BOUNDS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0)


class IngestMetrics:
    """Counters, gauges, and histograms for one pipeline instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (stage, worker) -> histogram
        self._stage_latency: Dict[Tuple[str, int], LatencyHistogram] = {}
        self.freshness = LatencyHistogram(FRESHNESS_BOUNDS)
        # consumer-side (producer-side counts live on the ObservationBus
        # and are merged into the export by IngestPipeline.stats())
        self.observations_processed = Counter()
        self.batches_processed = Counter()
        self.batch_retries = Counter()
        self.dead_letters = Counter()
        self.worker_restarts = Counter()
        # publish-side
        self.patches_published = Counter()
        self.patches_duplicate = Counter()
        self.patches_conflicted = Counter()
        self.publish_retries = Counter()
        self.publish_failures = Counter()
        # verify gate (see repro.ingest.verify) — the per-constraint
        # counters are pre-seeded from the canonical catalog so every
        # ``ingest.verify.constraint.<name>`` series exists from boot,
        # violations or not (dashboards and check_docs rely on this).
        # checked and passed are bumped on every clean publish — the
        # gate's hot path — so they are lock-free (see HotCounter and
        # verify_mark_clean()).
        self.verify_checked = HotCounter()
        self.verify_passed = HotCounter()
        self._verify_checked_next = self.verify_checked._count.__next__
        self._verify_passed_next = self.verify_passed._count.__next__
        self.verify_quarantined = Counter()
        self.verify_violations = Counter()
        self.verify_constraint: Dict[str, Counter] = {
            name: Counter() for name in ALL_CONSTRAINTS
        }
        self.quarantine_depth = Gauge()
        # per-stage circuit breakers (see repro.ingest.breaker)
        self.breaker_opens = Counter()
        self.breaker_fast_failures = Counter()
        # gauges, keyed by partition index
        self.queue_depth: Dict[int, Gauge] = {}
        self.in_flight = Gauge()

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

    def verify_mark_clean(self) -> None:
        """Count one clean verify decision (checked + passed).

        Publish hot path: two pre-bound lock-free increments (see
        :class:`~repro.obs.metrics.HotCounter`), no lock, no attribute
        chains.
        """
        self._verify_checked_next()
        self._verify_passed_next()

    def depth_gauge(self, partition: int) -> Gauge:
        with self._lock:
            gauge = self.queue_depth.get(partition)
            if gauge is None:
                gauge = self.queue_depth[partition] = Gauge()
            return gauge

    def as_dict(self) -> Dict[str, object]:
        """Consistent point-in-time export for dashboards/CLI output.

        ``stage_latency`` aggregates every worker's series per stage via
        :meth:`merged_stage_histogram`.
        """
        with self._lock:
            depths = {p: g.value for p, g in sorted(self.queue_depth.items())}
        return {
            "stage_latency": {s: self.merged_stage_histogram(s).snapshot()
                              for s in self.stage_names()},
            "freshness": self.freshness.snapshot(),
            "queue_depth": depths,
            "in_flight": self.in_flight.value,
            "observations": {
                "processed": self.observations_processed.value,
            },
            "batches": {
                "processed": self.batches_processed.value,
                "retries": self.batch_retries.value,
                "dead_letters": self.dead_letters.value,
                "worker_restarts": self.worker_restarts.value,
            },
            "patches": {
                "published": self.patches_published.value,
                "duplicate_suppressed": self.patches_duplicate.value,
                "conflicted": self.patches_conflicted.value,
                "publish_retries": self.publish_retries.value,
                "publish_failures": self.publish_failures.value,
            },
            "verify": {
                "checked": self.verify_checked.value,
                "passed": self.verify_passed.value,
                "quarantined": self.verify_quarantined.value,
                "violations": self.verify_violations.value,
                "quarantine_depth": self.quarantine_depth.value,
                "by_constraint": {name: c.value for name, c in
                                  sorted(self.verify_constraint.items())},
            },
            "breaker": {
                "opens": self.breaker_opens.value,
                "fast_failures": self.breaker_fast_failures.value,
            },
        }

    # -- unified registry ----------------------------------------------
    def register_into(self, registry: MetricsRegistry,
                      prefix: str = "ingest") -> None:
        """Register under canonical ``<prefix>.*`` names:

        - ``ingest.observations.processed``, ``ingest.batches.*``,
          ``ingest.patches.*`` (counters)
        - ``ingest.freshness`` (histogram)
        - ``ingest.in_flight``, ``ingest.queue_depth.<partition>``
          (gauges, partitions via collector)
        - ``ingest.stage.<stage>`` (merged-across-workers histograms,
          via collector because stages/workers appear lazily)
        """
        registry.register(f"{prefix}.observations.processed",
                          self.observations_processed)
        registry.register(f"{prefix}.batches.processed",
                          self.batches_processed)
        registry.register(f"{prefix}.batches.retries", self.batch_retries)
        registry.register(f"{prefix}.batches.dead_letters",
                          self.dead_letters)
        registry.register(f"{prefix}.batches.worker_restarts",
                          self.worker_restarts)
        registry.register(f"{prefix}.patches.published",
                          self.patches_published)
        registry.register(f"{prefix}.patches.duplicate_suppressed",
                          self.patches_duplicate)
        registry.register(f"{prefix}.patches.conflicted",
                          self.patches_conflicted)
        registry.register(f"{prefix}.patches.publish_retries",
                          self.publish_retries)
        registry.register(f"{prefix}.patches.publish_failures",
                          self.publish_failures)
        registry.register(f"{prefix}.verify.checked", self.verify_checked)
        registry.register(f"{prefix}.verify.passed", self.verify_passed)
        registry.register(f"{prefix}.verify.quarantined",
                          self.verify_quarantined)
        registry.register(f"{prefix}.verify.violations",
                          self.verify_violations)
        registry.register(f"{prefix}.verify.quarantine_depth",
                          self.quarantine_depth)
        for name, counter in sorted(self.verify_constraint.items()):
            registry.register(f"{prefix}.verify.constraint.{name}", counter)
        registry.register(f"{prefix}.breaker.opens", self.breaker_opens)
        registry.register(f"{prefix}.breaker.fast_failures",
                          self.breaker_fast_failures)
        registry.register(f"{prefix}.freshness", self.freshness)
        registry.register(f"{prefix}.in_flight", self.in_flight)

        def collect() -> Dict[str, object]:
            out: Dict[str, object] = {}
            for stage in self.stage_names():
                out[f"{prefix}.stage.{stage}"] = \
                    self.merged_stage_histogram(stage)
            with self._lock:
                depths = dict(self.queue_depth)
            for partition, gauge in depths.items():
                out[f"{prefix}.queue_depth.{partition}"] = gauge
            return out

        registry.register_collector(collect)
