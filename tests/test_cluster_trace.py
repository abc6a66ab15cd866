"""Cluster telemetry plane: propagation, harvesting, merged trees."""

import time

import pytest

from repro.chaos import ClusterChaosHarness, ClusterWorkload, FaultPlan
from repro.chaos.faults import CLUSTER_SLOW_SHARD, FaultSpec
from repro.cluster import ClusterRouter, estimate_clock_offset
from repro.cluster.shard import ShardBackend, ShardConfig
from repro.core.hdmap import HDMap
from repro.obs import (
    EVENT_LOG,
    TRACER,
    SpanRecorder,
    TraceContext,
    configure_tracing,
    verify_spans,
)
from repro.serve.api import GetTile
from repro.storage.binary import encode_map


@pytest.fixture
def traced():
    """Full sampling + clean rings for the duration of one test."""
    configure_tracing(enabled=True, sample_rate=1.0, reset=True)
    EVENT_LOG.clear()
    yield
    configure_tracing(enabled=False, reset=True)
    EVENT_LOG.clear()


class TestCrossProcessTrace:
    def test_process_round_trip_merges_to_one_clean_tree(
            self, city, traced):
        """One sampled GetTile through forked shards reconstructs as a
        single verify-clean tree: client root -> router RPC span ->
        shard-side continuation -> worker serve span."""
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               transport="process", replicas=1)
        try:
            tile = sorted(router.tiles())[0]
            response = router.request(GetTile(tile=tile))
            assert response.ok
            totals = router.harvest_telemetry()
            assert totals["spans"] >= 2  # shard.serve + serve.request.*
        finally:
            router.close()
        spans = [s.as_dict() for s in TRACER.recorder.spans()]
        assert verify_spans(spans) == []
        assert len({s["trace_id"] for s in spans}) == 1
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["cluster.request.GetTile"]

        by_id = {s["span_id"]: s for s in spans}
        serve_req = [s for s in spans
                     if s["name"] == "serve.request.GetTile"]
        assert len(serve_req) == 1
        shard_span = by_id[serve_req[0]["parent_id"]]
        assert shard_span["name"] == "shard.serve"
        rpc_span = by_id[shard_span["parent_id"]]
        assert rpc_span["name"] == "cluster.rpc.serve"
        assert rpc_span["parent_id"] == roots[0]["span_id"]

        # Shard-side ids are namespaced per process; merged attrs say
        # which process served (a replica may take the round-robin pick).
        assert shard_span["span_id"].startswith("s")
        assert shard_span["attrs"]["shard"] in (0, 1)
        assert str(shard_span["attrs"]["role"]) in ("primary", "replica0")
        assert rpc_span["attrs"]["replica"] in ("primary", 0)

    def test_unsampled_requests_ship_no_trace_context(self, city):
        """Tracing disabled: requests cross the wire as before and the
        harvest finds nothing shard-side."""
        configure_tracing(enabled=False, reset=True)
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               transport="process")
        try:
            for tile in sorted(router.tiles())[:3]:
                assert router.request(GetTile(tile=tile)).ok
            totals = router.harvest_telemetry()
            assert totals["spans"] == 0
        finally:
            router.close()
        assert TRACER.recorder.spans() == []


class TestClockOffset:
    @pytest.mark.parametrize("skew", [-0.5, -0.01, 0.0, 0.02, 0.75])
    def test_recovers_constant_skew(self, skew):
        def call(op):
            assert op == "clock"
            return time.monotonic() + skew

        offset = estimate_clock_offset(call)
        assert abs(offset - skew) < 0.05

    def test_prefers_smallest_rtt_sample(self):
        # One ping answers after a long stall (bad bracket), the rest
        # instantly; the estimator must keep the tight bracket's answer.
        skew = 0.3
        calls = {"n": 0}

        def call(op):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.05)
            return time.monotonic() + skew

        offset = estimate_clock_offset(call, pings=4)
        assert abs(offset - skew) < 0.05


class TestTelemetryHarvest:
    def _backend(self):
        config = ShardConfig(index=3, tile_size=100.0,
                             base_map_bytes=encode_map(HDMap("tiny")))
        return ShardBackend(config)

    def test_drop_accounting_over_full_ring(self, traced):
        """A wrapped shard ring reports the drop delta exactly once."""
        backend = self._backend()
        keep = TRACER.recorder
        TRACER.recorder = SpanRecorder(capacity=4)
        try:
            ctx = TraceContext(trace_id="t-drop", span_id="root")
            for i in range(10):
                with TRACER.continue_from(ctx, "shard.serve", op=i):
                    pass
            first = backend.dispatch("telemetry", {"max_spans": 100})
            assert first["dropped"] == 6
            assert len(first["spans"]) == 4
            # Oldest-first and already finished.
            assert [s["attrs"]["op"] for s in first["spans"]] == [6, 7, 8, 9]
            second = backend.dispatch("telemetry", {})
            assert second["dropped"] == 0
            assert second["spans"] == []
        finally:
            TRACER.recorder = keep

    def test_bounded_drain_leaves_remainder(self, traced):
        backend = self._backend()
        ctx = TraceContext(trace_id="t-batch", span_id="root")
        for i in range(5):
            with TRACER.continue_from(ctx, "shard.serve", op=i):
                pass
        first = backend.dispatch("telemetry", {"max_spans": 2})
        second = backend.dispatch("telemetry", {"max_spans": 10})
        assert [s["attrs"]["op"] for s in first["spans"]] == [0, 1]
        assert [s["attrs"]["op"] for s in second["spans"]] == [2, 3, 4]

    def test_merge_rebases_tags_and_counts(self, city, traced):
        router = ClusterRouter(city, n_shards=1, tile_size=120.0,
                               transport="local")
        try:
            batch = {
                "spans": [{"name": "shard.serve", "trace_id": "t-m",
                           "span_id": "s9-1", "parent_id": None,
                           "start_s": 100.0, "end_s": 100.5,
                           "duration_s": 0.5, "attrs": {"op": "serve"}}],
                "events": [{"ts": 1.0, "level": "warning", "logger": "x",
                            "event": "fault_injected",
                            "trace_id": "t-m"}],
                "dropped": 3,
            }
            totals = router.telemetry.merge(0, "replica0", batch,
                                            offset_s=5.0)
            assert totals == {"spans": 1, "events": 1, "dropped": 3}
            assert router.telemetry_spans.value == 1
            assert router.telemetry_dropped.value == 3
            merged = [s.as_dict() for s in TRACER.recorder.spans()
                      if s.trace_id == "t-m"]
            assert len(merged) == 1
            assert merged[0]["start_s"] == pytest.approx(95.0)
            assert merged[0]["end_s"] == pytest.approx(95.5)
            assert merged[0]["attrs"]["shard"] == 0
            assert merged[0]["attrs"]["role"] == "replica0"
            tagged = EVENT_LOG.events(event="fault_injected")
            assert tagged and tagged[-1]["shard"] == 0
        finally:
            router.close()


class TestChaosTraceTagging:
    def test_slow_fault_poisons_traces(self, city):
        plan = FaultPlan([FaultSpec(CLUSTER_SLOW_SHARD, probability=1.0,
                                    after=2, max_count=1, magnitude=0.05)],
                         seed=11)
        workload = ClusterWorkload(ops=6, reads_per_op=1,
                                   transport="local", replicas=0,
                                   trace_sample_rate=1.0)
        harness = ClusterChaosHarness(city, plan, workload)
        report = harness.run()
        assert report.certify(), report.format()
        assert report.stats["poisoned_traces"] >= 1
        assert "poisoned" in report.format()
        assert TRACER.enabled is False  # harness restored the tracer
