"""`ClusterChaosHarness`: shard-level faults against the sharded cluster.

The single-node harness (:mod:`repro.chaos.harness`) certifies the
serve→ingest loop; this one certifies the *cluster* layer — the journal,
failover, and rebalance machinery of
:class:`~repro.cluster.router.ClusterRouter` — under the ``shard`` fault
class:

- **cluster.shard_crash** — a primary shard process is killed without
  warning (``kill_shard``: no lock, exactly like a real crash mid-RPC);
- **cluster.slow_shard** — a shard stalls past the router's call
  timeout, which must surface as a timeout → replica failover → lazy
  restart, never as a hung client;
- **cluster.rebalance** — the cluster grows by one shard mid-stream,
  moving the rendezvous-hash-bounded tile fraction onto a journal-
  replayed newcomer.

The workload is a deterministic patch stream (seeded positions, strictly
increasing confidence so conflict resolution never depends on per-shard
version spacing) interleaved with *concurrent bursts* of pinned reads —
exercising the pipelined connections and replica-routed read path, so an
injected crash lands with multiple requests genuinely in flight — and
incremental client syncs. The same five invariants as the single-node matrix are certified
from the cluster's observable surfaces — the router journal, the merged
snapshot, each shard's change log, response versions, and the router's
freshness histogram:

1. **No lost acked writes** — replaying the journal on a fresh
   single-node server reproduces the merged cluster snapshot to
   canonical bytes, and a continuously syncing client converges to it.
   Holds because a write is acked only after it is journaled, ambiguous
   writes are erased by restart-from-journal before the single resend,
   and replicas apply acked patches synchronously.
2. **No duplicate changes** — the ownership-filtered cluster change
   view reports each element's history exactly once, on exactly one
   shard, and that history is legal (no double add, no remove of an
   absent element). Holds because every element has one home shard and
   rebalance filters the stale copy out of every merge.
3. **Version monotonicity** — each per-shard change log is contiguous
   from
   version 1 (journal replay preserves this across restarts) and the
   router-observed cluster version never regresses (the monotone clamp).
4. **Bounded freshness lag** — submit→ack lag stays under the bound
   even across crash-restart cycles, because restart replays a bounded
   journal and the write path retries exactly once.
5. **Zero constraint violations served** — a full constraint-engine
   scan of the merged cluster snapshot (what a bootstrapping client
   receives) finds no ERROR-severity violation. The cluster layer has
   no quarantine store of its own; the gate lives in the ingest
   pipeline fronting each shard, so this is certified from the served
   state alone.

A faults-disabled run is the parity probe: its canonical merged bytes
must equal :meth:`ClusterChaosHarness.run_plain` — the same patch stream
applied through a plain single-node :class:`MapService`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.faults import (
    CLUSTER_REBALANCE,
    CLUSTER_SHARD_CRASH,
    CLUSTER_SLOW_SHARD,
    FaultPlan,
)
from repro.chaos.report import (
    ChaosReport,
    InvariantResult,
    check_served_map_clean,
)
from repro.cluster.client import ClusterMapClient
from repro.cluster.router import ClusterRouter
from repro.core.changes import ChangeType
from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.versioning import MapPatch
from repro.obs.log import EVENT_LOG, get_logger
from repro.obs.trace import TRACER, configure_tracing
from repro.serve.api import GetTile, IngestPatch
from repro.serve.service import MapService
from repro.storage.binary import encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import ConflictPolicy, MapDistributionServer

_log = get_logger("chaos.cluster")


def canonical_map_bytes(hdmap: HDMap) -> bytes:
    """Insertion-order- and version-independent encoding of a map.

    ``encode_map`` serializes elements in insertion order, which differs
    between a single-node map and a scatter-gather merge; re-adding the
    elements sorted by id with a fixed name/version makes byte equality
    mean semantic equality.
    """
    canonical = HDMap("canonical")
    for element in sorted(hdmap.elements(), key=lambda e: e.id):
        canonical.add(element)
    canonical.version = 0
    return encode_map(canonical)


#: per-call RPC timeout and replica lease of every cluster chaos run
CALL_TIMEOUT_S = 1.5
LEASE_S = 1.0


@dataclass
class ClusterWorkload:
    """Shape of the patch/read stream driven against the cluster."""

    n_shards: int = 2
    replicas: int = 1
    transport: str = "process"
    tile_size: float = 250.0
    ops: int = 60
    reads_per_op: int = 2
    sync_every: int = 10
    seed: int = 7
    #: > 0 turns on the telemetry plane for the run: each op becomes a
    #: sampled-at-this-rate ``chaos.op`` trace, fault injections are
    #: logged as trace-correlated ``fault_injected`` events, and the
    #: report counts the *poisoned traces* — trace ids that had a fault
    #: land inside them.
    trace_sample_rate: float = 0.0


class ClusterChaosHarness:
    """One ``shard``-class fault plan against one cluster workload."""

    def __init__(self, hdmap: HDMap, plan: FaultPlan,
                 workload: Optional[ClusterWorkload] = None,
                 freshness_bound_s: float = 30.0) -> None:
        self.hdmap = hdmap
        self.plan = plan
        self.workload = workload or ClusterWorkload()
        self.freshness_bound_s = freshness_bound_s
        self._final_map: Optional[HDMap] = None

    # -- deterministic workload -----------------------------------------
    def _build_patches(self) -> List[MapPatch]:
        """The patch stream: a pure function of the workload seed.

        Confidence increases strictly, so HIGHEST_CONFIDENCE conflict
        resolution always keeps the newer op — the outcome cannot depend
        on per-shard version spacing, which is what makes the single-node
        parity replay byte-exact.
        """
        w = self.workload
        rng = np.random.default_rng(w.seed)
        min_x, min_y, max_x, max_y = self.hdmap.bounds()
        pool: List[Tuple[ElementId, np.ndarray]] = []
        patches: List[MapPatch] = []
        for i in range(w.ops):
            patch = MapPatch(source=f"chaos-fleet-{i % 3}",
                             confidence=0.5 + i * 1e-3)
            action = rng.random()
            if action < 0.55 or not pool:
                position = np.array([rng.uniform(min_x, max_x),
                                     rng.uniform(min_y, max_y)])
                eid = ElementId("chaos-sign", i + 1)
                patch.add(TrafficSign(id=eid, position=position,
                                      sign_type=SignType.DIRECTION))
                pool.append((eid, position))
            elif action < 0.8:
                index = int(rng.integers(len(pool)))
                eid, position = pool[index]
                moved = position + rng.normal(0.0, 2.0, size=2)
                patch.replace(TrafficSign(id=eid, position=moved,
                                          sign_type=SignType.DIRECTION))
                pool[index] = (eid, moved)
            else:
                index = int(rng.integers(len(pool)))
                eid, _ = pool.pop(index)
                patch.remove(eid)
            patches.append(patch)
        return patches

    # -- entry points ----------------------------------------------------
    def run(self, label: str = "shard") -> ChaosReport:
        """Drive the faulted stream and certify the five invariants."""
        EVENT_LOG.clear()
        w = self.workload
        tracing = w.trace_sample_rate > 0
        if tracing:
            configure_tracing(enabled=True,
                              sample_rate=w.trace_sample_rate)
        t_start = time.perf_counter()
        # With tracing on, the telemetry harvester pulls shard rings in
        # the background so shard-side fault_injected events (the slow
        # fault fires inside the shard process) land in the merged log
        # before the report is built.
        router = ClusterRouter(
            self.hdmap, n_shards=w.n_shards, tile_size=w.tile_size,
            replicas=w.replicas, transport=w.transport,
            call_timeout_s=CALL_TIMEOUT_S, lease_s=LEASE_S,
            telemetry_interval_s=0.5 if tracing else None)
        try:
            crash = self.plan.point(CLUSTER_SHARD_CRASH)
            slow = self.plan.point(CLUSTER_SLOW_SHARD)
            rebalance = self.plan.point(CLUSTER_REBALANCE)
            client = ClusterMapClient(router)
            tiles = router.tiles()
            acked = 0
            failed_writes = 0
            versions_seen: List[int] = []
            for i, patch in enumerate(self._build_patches()):
                # Each op is one (sampled) trace: a fault rolled inside
                # it emits a trace-correlated fault_injected event, so
                # the report can name exactly which traces a fault
                # poisoned. With tracing off this is NOOP_SPAN and the
                # events simply carry no trace id.
                op_span = TRACER.start_trace("chaos.op", op=i)
                with op_span:
                    if crash.roll("router"):
                        target = i % router.n_shards
                        _log.warning("fault_injected",
                                     fault=CLUSTER_SHARD_CRASH,
                                     shard=target, op=i)
                        if op_span.context is not None:
                            op_span.set("fault", CLUSTER_SHARD_CRASH)
                        router.kill_shard(target)
                    if slow.roll("router"):
                        target = i % router.n_shards
                        _log.warning("fault_injected",
                                     fault=CLUSTER_SLOW_SHARD,
                                     shard=target, op=i)
                        if op_span.context is not None:
                            op_span.set("fault", CLUSTER_SLOW_SHARD)
                        router.slow_shard(
                            target,
                            delay_s=slow.magnitude
                            or CALL_TIMEOUT_S * 2,
                            count=1)
                    if rebalance.roll("router"):
                        _log.warning("fault_injected",
                                     fault=CLUSTER_REBALANCE,
                                     shard=router.n_shards, op=i)
                        if op_span.context is not None:
                            op_span.set("fault", CLUSTER_REBALANCE)
                        router.rebalance(router.n_shards + 1)
                    response = router.request(IngestPatch(patch=patch))
                if response.ok:
                    if response.payload.accepted:
                        acked += 1
                    versions_seen.append(response.version)
                else:
                    failed_writes += 1
                # Reads go out as a concurrent burst — many requests in
                # flight on the same pipelined connections, so an
                # injected crash lands mid-pipeline with real overlap.
                burst_versions: List[int] = []
                burst_lock = threading.Lock()

                def one_read(r: int) -> None:
                    tile = tiles[(i * w.reads_per_op + r) % len(tiles)]
                    read = router.request(GetTile(tile=tile, encoded=True))
                    if read.ok:
                        with burst_lock:
                            burst_versions.append(read.version)

                readers = [threading.Thread(target=one_read, args=(r,),
                                            daemon=True)
                           for r in range(w.reads_per_op)]
                for t in readers:
                    t.start()
                for t in readers:
                    t.join()
                # Concurrent observations carry no order between them;
                # sorting within the burst keeps the monotonicity check
                # about the cluster version, not thread scheduling.
                versions_seen.extend(sorted(burst_versions))
                if (i + 1) % w.sync_every == 0:
                    client.sync()
            client.sync()
            consistent = client.is_consistent()
            merged, _vector = router.bootstrap()
            self._final_map = merged
            invariants = self._check_invariants(
                router, merged, versions_seen, consistent)
            per_shard = router.collect_shard_metrics()
            stats = router.stats()
            stats.update(acked_writes=acked, failed_writes=failed_writes)
            if tracing:
                # Final harvest so shard-side fault_injected events (the
                # slow fault fires inside the shard process, under the
                # propagated trace) are merged before we count which
                # traces had a fault land inside them.
                router.harvest_telemetry()
                poisoned = {e["trace_id"] for e
                            in EVENT_LOG.events(event="fault_injected")
                            if e.get("trace_id")}
                stats["poisoned_traces"] = len(poisoned)
                stats["harvested_spans"] = router.telemetry_spans.value
            return ChaosReport(
                fault_class=label, plan=self.plan.describe(),
                fired=self.plan.fired_counts(), invariants=invariants,
                stats=stats,
                serve_stats={"router": router.metrics.as_dict(),
                             "per_shard": {str(k): v for k, v
                                           in per_shard.items()}},
                elapsed_s=time.perf_counter() - t_start)
        finally:
            router.close()
            if tracing:
                configure_tracing(enabled=False)

    def final_map_bytes(self) -> bytes:
        """Canonical merged bytes of the last :meth:`run` (parity probe)."""
        if self._final_map is None:
            raise RuntimeError("run() has not completed yet")
        return canonical_map_bytes(self._final_map)

    def run_plain(self) -> bytes:
        """The same patch stream on a plain single-node MapService; an
        inert-plan :meth:`run` must merge to exactly these bytes."""
        w = self.workload
        server = MapDistributionServer(self.hdmap.copy())
        store = TileStore.build(self.hdmap, w.tile_size)
        service = MapService(server, store, n_workers=2)
        with service:
            for patch in self._build_patches():
                service.request(IngestPatch(patch=patch), timeout=30.0)
        return canonical_map_bytes(server.snapshot())

    # -- invariants ------------------------------------------------------
    def _check_invariants(self, router: ClusterRouter, merged: HDMap,
                          versions_seen: List[int],
                          client_consistent: bool) -> List[InvariantResult]:
        out: List[InvariantResult] = []
        crash_fired = self.plan.point(CLUSTER_SHARD_CRASH).fired

        # 1 -- no lost acked writes: journal replay == cluster state ----
        reference = MapDistributionServer(self.hdmap.copy())
        entries = router.journal_entries()
        for entry in entries:
            reference.ingest(
                MapPatch(ops=[op for _, op in entry.ops],
                         source=entry.source,
                         confidence=entry.confidence),
                policy=ConflictPolicy.LAST_WRITER_WINS)
        reference_bytes = canonical_map_bytes(reference.snapshot())
        merged_bytes = canonical_map_bytes(merged)
        problems = []
        if reference_bytes != merged_bytes:
            ref_ids = {e.id for e in reference.snapshot().elements()}
            got_ids = {e.id for e in merged.elements()}
            problems.append(
                f"cluster state diverges from journal replay "
                f"(missing={sorted(map(str, ref_ids - got_ids))[:5]} "
                f"extra={sorted(map(str, got_ids - ref_ids))[:5]})")
        if not client_consistent:
            problems.append("continuously syncing client did not converge")
        if crash_fired > 0 and router.restarts.value < 1:
            problems.append(f"{crash_fired} crash(es) injected but no "
                            f"shard restart happened")
        out.append(InvariantResult(
            "no_lost_acked_writes", not problems,
            "; ".join(problems) if problems else
            f"journal={len(entries)} entries, "
            f"{len(list(merged.elements()))} elements, "
            f"restarts={router.restarts.value} "
            f"failovers={router.failovers.value}"))

        # 2 -- no duplicate changes in the ownership-filtered view ------
        delta = router.changes_since({i: 0 for i in range(router.n_shards)})
        base_ids = {e.id for e in self.hdmap.elements()}
        home_shard: Dict[ElementId, int] = {}
        present: Dict[ElementId, bool] = {}
        problems = []
        for shard, change in delta.changes():
            eid = change.element_id
            if home_shard.setdefault(eid, shard) != shard:
                problems.append(f"{eid} history spans shards "
                                f"{home_shard[eid]} and {shard}")
                continue
            was = present.get(eid, eid in base_ids)
            if change.change_type is ChangeType.ADDED:
                if was:
                    problems.append(f"{eid} added while present")
                present[eid] = True
            elif change.change_type is ChangeType.REMOVED:
                if not was:
                    problems.append(f"{eid} removed while absent")
                present[eid] = False
            else:  # MODIFIED
                if not was:
                    problems.append(f"{eid} modified while absent")
        out.append(InvariantResult(
            "no_duplicate_changes", not problems,
            "; ".join(problems[:3]) if problems else
            f"{len(delta)} change(s) across {router.n_shards} shard(s), "
            f"each element on one home shard"))

        # 3 -- version monotonicity -------------------------------------
        problems = []
        for index in range(router.n_shards):
            log = router.shard_changelog(index)
            versions = [v for v, _ in log]
            if any(b < a for a, b in zip(versions, versions[1:])):
                problems.append(f"shard {index} log regresses")
            if versions and set(versions) != set(range(1, versions[-1] + 1)):
                problems.append(f"shard {index} log not contiguous "
                                f"(1..{versions[-1]}, "
                                f"{len(set(versions))} distinct)")
        if any(b < a for a, b in zip(versions_seen, versions_seen[1:])):
            problems.append("router-observed cluster version regressed")
        out.append(InvariantResult(
            "version_monotonicity", not problems,
            "; ".join(problems) if problems else
            f"{router.n_shards} contiguous shard logs, "
            f"{len(versions_seen)} router observations non-decreasing"))

        # 4 -- bounded freshness lag ------------------------------------
        snapshot = router.metrics.freshness.snapshot()
        count = int(snapshot.get("count", 0))
        max_s = float(snapshot.get("max_s", 0.0))
        if count == 0:
            out.append(InvariantResult(
                "freshness_lag_bounded", True,
                "no writes acked (vacuous)"))
        else:
            ok = max_s <= self.freshness_bound_s
            out.append(InvariantResult(
                "freshness_lag_bounded", ok,
                f"max submit->ack lag {max_s * 1e3:.1f} ms "
                f"{'<=' if ok else '>'} bound "
                f"{self.freshness_bound_s * 1e3:.0f} ms "
                f"over {count} write(s)", samples=count))

        # 5 -- zero constraint violations served ------------------------
        # The cluster write path has no quarantine surface of its own
        # (the verify gate lives in the single-node ingest pipeline each
        # shard fronts), so here the invariant is certified purely from
        # the merged served state: a full constraint scan must find no
        # ERROR in what clients would bootstrap.
        out.append(check_served_map_clean(merged))
        return out
