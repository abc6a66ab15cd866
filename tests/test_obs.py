"""repro.obs: unified tracing, metrics registry, and structured events.

Covers the observability layer end to end: histogram merge semantics,
the unified registry with serve+ingest+perf under one export, Prometheus
text validity, trace propagation across thread boundaries (N concurrent
clients must yield N disjoint well-parented span trees), the structured
event log's trace correlation, and the acceptance demo — one
observation's journey from ``ObservationBus.enqueue`` through the stage
pipeline to ``PatchPublisher`` and ``ChangesSince`` visibility,
reconstructed as a span tree whose durations account for the measured
freshness lag within 10%.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import HDMap, Lane, SignType, TrafficSign
from repro.core.changes import ChangeType
from repro.core.tiles import TileId
from repro.geometry.polyline import straight
from repro.ingest import IngestPipeline, Observation, ObservationKind
from repro.ingest.metrics import IngestMetrics
from repro.ingest.observation import ObservationBatch
from repro.ingest.pipeline import DeadLetterQueue
from repro.obs import (
    EVENT_LOG,
    INFO,
    TRACER,
    WARNING,
    Counter,
    EventLog,
    LatencyHistogram,
    MetricsRegistry,
    Tracer,
    build_tree,
    format_trace,
    get_logger,
    load_spans_jsonl,
    register_perf_registry,
    validate_prometheus_text,
    verify_spans,
)
from repro.serve import GetTile, IngestPatch, MapService
from repro.serve.api import ChangesSince
from repro.serve.metrics import ServiceMetrics
from repro.storage import TileStore
from repro.update.distribution import MapDistributionServer


@pytest.fixture(autouse=True)
def _reset_obs():
    """Every test starts from disabled tracing and an empty event log."""
    TRACER.configure(enabled=False, sample_rate=1.0, reset=True)
    TRACER.recorder.jsonl_path = None
    EVENT_LOG.clear()
    EVENT_LOG.level = INFO
    EVENT_LOG.jsonl_path = None
    yield
    TRACER.configure(enabled=False, sample_rate=1.0, reset=True)
    EVENT_LOG.clear()


def _sign_world():
    hdmap = HDMap("obs-test")
    hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
    hdmap.create(TrafficSign, position=np.array([50.0, 5.0]),
                 sign_type=SignType.STOP)
    return hdmap


# ----------------------------------------------------------------------
class TestLatencyHistogramMerge:
    def test_merge_folds_counts_sum_and_extremes(self):
        a = LatencyHistogram((0.01, 0.1, 1.0))
        b = LatencyHistogram((0.01, 0.1, 1.0))
        for v in (0.005, 0.05):
            a.record(v)
        for v in (0.5, 2.0):
            b.record(v)
        out = a.merge(b)
        assert out is a
        assert a.count == 4
        assert a.sum_s == pytest.approx(0.005 + 0.05 + 0.5 + 2.0)
        assert a.min_s == pytest.approx(0.005)
        assert a.max_s == pytest.approx(2.0)
        assert a.bucket_counts() == [1, 1, 1, 1]
        # b is untouched by the fold
        assert b.count == 2

    def test_merge_rejects_mismatched_bounds(self):
        a = LatencyHistogram((0.01, 0.1))
        b = LatencyHistogram((0.01, 0.2))
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(b)

    def test_merge_empty_is_identity(self):
        a = LatencyHistogram((0.01, 0.1))
        a.record(0.05)
        a.merge(LatencyHistogram((0.01, 0.1)))
        assert a.count == 1
        assert a.min_s == pytest.approx(0.05)

    def test_per_worker_stage_series_aggregate_in_export(self):
        m = IngestMetrics()
        m.record_stage("fuse", 0.001, worker=0)
        m.record_stage("fuse", 0.002, worker=1)
        m.record_stage("fuse", 0.003, worker=1)
        assert m.stage_histogram("fuse", worker=0).count == 1
        assert m.stage_histogram("fuse", worker=1).count == 2
        merged = m.merged_stage_histogram("fuse")
        assert merged.count == 3
        assert merged.sum_s == pytest.approx(0.006)
        # as_dict keeps the pre-per-worker shape, now via merge()
        assert m.as_dict()["stage_latency"]["fuse"]["count"] == 3


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_register_and_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("a.count")
        g = reg.gauge("a.depth")
        h = reg.histogram("a.latency", bounds=(0.1, 1.0))
        c.add(3)
        g.set(7)
        h.record(0.05)
        snap = reg.snapshot()
        assert snap["a.count"] == 3
        assert snap["a.depth"] == 7
        assert snap["a.latency"]["count"] == 1
        assert json.loads(reg.to_json())["a.count"] == 3

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.register("x.y", Counter())
        with pytest.raises(ValueError, match="already registered"):
            reg.register("x.y", Counter())

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ValueError, match="already registered as"):
            reg.gauge("x.y")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.register("bad name", Counter())

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_collector_metrics_merge_and_statics_win(self):
        reg = MetricsRegistry()
        static = reg.counter("dyn.x")
        static.add(5)
        reg.register_collector(lambda: {"dyn.x": 99, "dyn.y": 1})
        snap = reg.snapshot()
        assert snap["dyn.x"] == 5  # static registration wins
        assert snap["dyn.y"] == 1
        assert reg.names() == ["dyn.x", "dyn.y"]

    def test_prometheus_export_is_valid_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests.GetTile.ok").add(2)
        reg.gauge("ingest.in_flight").set(3)
        h = reg.histogram("serve.latency.GetTile", bounds=(0.001, 0.01))
        h.record(0.0005)
        h.record(0.5)
        text = reg.to_prometheus()
        assert validate_prometheus_text(text) == []
        assert "# TYPE serve_requests_GetTile_ok counter" in text
        assert "serve_requests_GetTile_ok 2" in text
        assert "# TYPE ingest_in_flight gauge" in text
        assert "# TYPE serve_latency_GetTile histogram" in text
        assert 'serve_latency_GetTile_bucket{le="+Inf"} 2' in text
        assert "serve_latency_GetTile_count 2" in text

    def test_validator_catches_broken_text(self):
        bad = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="0.1"} 5',
            'h_bucket{le="+Inf"} 3',   # not cumulative
            "h_count 9",               # disagrees with +Inf
            "not a sample line !!",
        ]) + "\n"
        problems = validate_prometheus_text(bad)
        assert any("not cumulative" in p for p in problems)
        assert any("_count" in p or "!= +Inf" in p for p in problems)
        assert any("malformed sample" in p for p in problems)
        assert validate_prometheus_text(
            "x_total 1e-05\n# TYPE g gauge\ng -2.5\n") == []

    def test_missing_inf_bucket_flagged(self):
        assert any("missing +Inf" in p for p in validate_prometheus_text(
            '# TYPE h histogram\nh_bucket{le="1"} 1\nh_count 1\n'))

    def test_perf_registry_surfaces_via_duck_typing(self):
        class FakePerf:
            def snapshot(self):
                return {"grid.query_box": {"calls": 4, "total_ns": 1000.0,
                                           "mean_ns": 250.0}}

        reg = MetricsRegistry()
        register_perf_registry(reg, FakePerf())
        snap = reg.snapshot()
        assert snap["perf.grid.query_box.calls"] == 4
        assert snap["perf.grid.query_box.total_ns"] == 1000.0
        assert validate_prometheus_text(reg.to_prometheus()) == []

    def test_serve_ingest_perf_under_one_registry(self):
        """The tentpole invariant: one registry, every subsystem."""
        class FakePerf:
            def snapshot(self):
                return {"lidar.scan": {"calls": 1, "total_ns": 5.0,
                                       "mean_ns": 5.0}}

        reg = MetricsRegistry()
        sm = ServiceMetrics()
        sm.register_into(reg)
        sm.record("GetTile", "ok", 0.004)
        im = IngestMetrics()
        im.register_into(reg)
        im.record_stage("validate", 0.001, worker=0)
        im.record_freshness(0.2)
        register_perf_registry(reg, FakePerf())
        EVENT_LOG.register_into(reg, prefix="testlog")
        names = reg.names()
        assert "serve.latency.GetTile" in names
        assert "serve.requests.GetTile.ok" in names
        assert "ingest.stage.validate" in names
        assert "ingest.freshness" in names
        assert "perf.lidar.scan.calls" in names
        assert "testlog.events.error" in names
        text = reg.to_prometheus()
        assert validate_prometheus_text(text) == []
        assert "serve_latency_GetTile_sum" in text
        assert "ingest_freshness_count 1" in text


# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracing_records_nothing(self):
        with TRACER.start_trace("root") as root:
            with TRACER.span("child") as child:
                pass
        assert root.context is None and child.context is None
        assert TRACER.recorder.spans() == []

    def test_spans_nest_and_record(self):
        TRACER.configure(enabled=True)
        with TRACER.start_trace("root", kind="r") as root:
            trace_id = root.trace_id
            with TRACER.span("child") as child:
                child.set("k", 1)
        spans = TRACER.recorder.trace(trace_id)
        assert [s.name for s in spans] == ["child", "root"]
        child, root = spans
        assert child.parent_id == root.span_id
        assert child.attrs["k"] == 1
        assert root.parent_id is None
        assert root.duration_s >= child.duration_s >= 0.0
        tree = build_tree([s.as_dict() for s in TRACER.recorder.trace(trace_id)])
        assert len(tree) == 1
        assert tree[0]["name"] == "root"
        assert tree[0]["children"][0]["name"] == "child"

    def test_span_outside_trace_is_noop(self):
        TRACER.configure(enabled=True)
        with TRACER.span("orphan") as span:
            pass
        assert span.context is None
        assert TRACER.recorder.spans() == []

    def test_deterministic_sampling(self):
        TRACER.configure(enabled=True, sample_rate=0.5, reset=True)
        sampled = [TRACER.start_trace(f"r{i}").context is not None
                   for i in range(8)]
        assert sampled == [True, False] * 4
        TRACER.configure(sample_rate=0.0, reset=True)
        assert TRACER.start_trace("never").context is None
        assert TRACER.propagate() is None

    def test_exception_recorded_and_span_closed(self):
        TRACER.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with TRACER.start_trace("boom"):
                raise RuntimeError("kaput")
        (span,) = TRACER.recorder.spans()
        assert "RuntimeError: kaput" in span.attrs["error"]
        assert span.end_s is not None

    def test_propagate_continue_from_crosses_threads(self):
        TRACER.configure(enabled=True)
        carried = []
        with TRACER.start_trace("producer") as root:
            carried.append(TRACER.propagate())

        def worker():
            with TRACER.continue_from(carried[0], "consumer") as span:
                span.set("thread", threading.current_thread().name)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        spans = TRACER.recorder.trace(root.trace_id)
        by_name = {s.name: s for s in spans}
        assert by_name["consumer"].parent_id == by_name["producer"].span_id
        assert verify_spans([s.as_dict() for s in spans]) == []

    def test_continue_from_backdates_queue_wait(self):
        clock = [100.0]
        tracer = Tracer(clock=lambda: clock[0]).configure(enabled=True,
                                                          capacity=16)
        with tracer.start_trace("root") as root:
            ctx = root.context
        clock[0] = 105.0
        with tracer.continue_from(ctx, "wait", start_s=101.0):
            pass
        wait = [s for s in tracer.recorder.spans() if s.name == "wait"][0]
        assert wait.start_s == 101.0
        assert wait.duration_s == pytest.approx(4.0)

    def test_ring_buffer_wraps_and_counts_drops(self):
        tracer = Tracer().configure(enabled=True, capacity=3)
        for i in range(5):
            with tracer.start_trace(f"s{i}"):
                pass
        spans = tracer.recorder.spans()
        assert [s.name for s in spans] == ["s3", "s4", "s2"] or \
            [s.name for s in spans] == ["s2", "s3", "s4"]
        assert tracer.recorder.dropped == 2

    def test_jsonl_roundtrip_and_tooling(self, tmp_path):
        TRACER.configure(enabled=True)
        with TRACER.start_trace("root") as root:
            with TRACER.span("a"):
                pass
            with TRACER.span("b"):
                pass
        path = tmp_path / "spans.jsonl"
        assert TRACER.recorder.dump_jsonl(str(path)) == 3
        spans = load_spans_jsonl(str(path))
        assert verify_spans(spans) == []
        roots = build_tree(spans)
        assert len(roots) == 1
        assert {c["name"] for c in roots[0]["children"]} == {"a", "b"}
        text = format_trace(spans)
        assert "root" in text and "  a" in text
        assert root.trace_id == spans[0]["trace_id"]

    def test_verify_spans_flags_violations(self):
        spans = [
            {"name": "u", "trace_id": "t1", "span_id": "1",
             "parent_id": None, "start_s": 0.0, "end_s": None},
            {"name": "o", "trace_id": "t1", "span_id": "2",
             "parent_id": "999", "start_s": 0.0, "end_s": 1.0},
            {"name": "n", "trace_id": "t1", "span_id": "3",
             "parent_id": None, "start_s": 2.0, "end_s": 1.0},
        ]
        problems = verify_spans(spans)
        assert any("unfinished" in p for p in problems)
        assert any("unparented" in p for p in problems)
        assert any("negative duration" in p for p in problems)


# ----------------------------------------------------------------------
class TestEventLog:
    def test_level_filtering_and_counts(self):
        log = EventLog()
        log.level = WARNING
        logger = get_logger("t", log)
        logger.info("dropped")
        logger.warning("kept", code=7)
        logger.error("kept_too")
        events = log.events()
        assert [e["event"] for e in events] == ["kept", "kept_too"]
        assert events[0]["code"] == 7
        assert events[0]["logger"] == "t"
        assert log.counts_by_level["warning"].value == 1
        assert log.counts_by_level["error"].value == 1
        assert log.counts_by_level["info"].value == 0

    def test_events_filter_by_name_and_level(self):
        log = EventLog()
        logger = get_logger("t", log)
        logger.info("a")
        logger.error("a")
        logger.error("b")
        assert len(log.events(event="a")) == 2
        assert len(log.events(min_level=WARNING, event="a")) == 1

    def test_trace_correlation(self):
        TRACER.configure(enabled=True)
        log = EventLog()
        with TRACER.start_trace("op") as span:
            log.log(INFO, "inside")
        log.log(INFO, "outside")
        inside, outside = log.events()
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id
        assert "trace_id" not in outside

    def test_jsonl_sink_and_dump(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog(jsonl_path=str(sink))
        get_logger("t", log).info("hello", n=1)
        entry = json.loads(sink.read_text().strip())
        assert entry["event"] == "hello" and entry["n"] == 1
        out = tmp_path / "dump.jsonl"
        assert log.dump_jsonl(str(out)) == 1

    def test_registry_export_of_level_counters(self):
        reg = MetricsRegistry()
        log = EventLog()
        log.register_into(reg)
        get_logger("t", log).error("x")
        assert reg.snapshot()["log.events.error"] == 1

    def test_ring_is_bounded(self):
        log = EventLog()
        n = EventLog.CAPACITY + 3
        for i in range(n):
            log.log(INFO, f"e{i}")
        events = log.events()
        assert len(events) == EventLog.CAPACITY
        assert events[0]["event"] == "e3"
        assert events[-1]["event"] == f"e{n - 1}"


# ----------------------------------------------------------------------
class TestPipelineEventLogging:
    def test_dead_letter_writes_structured_event(self):
        dlq = DeadLetterQueue()
        batch = ObservationBatch(tile=TileId(0, 0), partition=0,
                                 observations=[Observation(
                                     kind=ObservationKind.DETECTION,
                                     position=(1.0, 1.0), sigma=0.5,
                                     vehicle="v0", seq=1, t=0.0)])
        batch.attempts = 3
        dlq.push(batch, "IngestError: poison")
        (event,) = EVENT_LOG.events(event="batch_dead_lettered")
        assert event["level"] == "error"
        assert event["logger"] == "ingest.pipeline"
        assert event["reason"] == "IngestError: poison"
        assert event["attempts"] == 3

    def test_retries_and_dlq_logged_in_running_pipeline(self):
        server = MapDistributionServer(_sign_world())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1,
                              max_attempts=3, backoff_base_s=0.001)
        with pipe:
            pipe.submit(Observation(kind=ObservationKind.DETECTION,
                                    position=(10.0, 10.0), sigma=-1.0,
                                    vehicle="v0", seq=0, t=0.0))  # poison
            assert pipe.drain(10.0)
        assert len(EVENT_LOG.events(event="batch_retry")) == 2
        assert len(EVENT_LOG.events(event="batch_dead_lettered")) == 1

    def test_load_shedding_logged_by_service(self):
        server = MapDistributionServer(_sign_world())
        store = TileStore.build(server.snapshot(), tile_size=250.0)
        service = MapService(server, store, n_workers=1)
        # Not started: the queue fills, then overflow is rejected.
        service.queue.max_queue = 1
        assert service.submit(GetTile(TileId(0, 0))) is not None
        service.submit(GetTile(TileId(0, 0)))
        assert len(EVENT_LOG.events(event="request_rejected")) == 1


# ----------------------------------------------------------------------
class TestThreadedTraceIsolation:
    def test_n_clients_yield_n_disjoint_well_parented_trees(self):
        """Interleaved GetTile/IngestPatch from N threads must produce N
        disjoint traces, each a single well-parented tree."""
        TRACER.configure(enabled=True, capacity=4096, reset=True)
        n_clients = 4
        world = _sign_world()
        server = MapDistributionServer(world.copy())
        store = TileStore.build(world, tile_size=250.0)
        trace_ids = {}

        def client(i):
            from repro.core import MapPatch
            sign = TrafficSign(id=server.new_element_id("sign"),
                               position=np.array([10.0 + i, 40.0 + 9 * i]),
                               sign_type=SignType.DIRECTION)
            with TRACER.start_trace("client", client=i) as root:
                trace_ids[i] = root.trace_id
                for _ in range(3):
                    service.request(GetTile(TileId(0, 0)))
                service.request(IngestPatch(
                    MapPatch(source=f"client-{i}").add(sign)))

        with MapService(server, store, n_workers=3) as service:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(set(trace_ids.values())) == n_clients
        all_spans = [s.as_dict() for s in TRACER.recorder.spans()]
        assert verify_spans(all_spans) == []
        for i, trace_id in trace_ids.items():
            spans = [s for s in all_spans if s["trace_id"] == trace_id]
            roots = build_tree(spans)
            assert len(roots) == 1, f"client {i} trace has multiple roots"
            root = roots[0]
            assert root["name"] == "client"
            assert root["attrs"]["client"] == i
            kinds = sorted(c["name"] for c in root["children"])
            assert kinds == ["serve.request.GetTile"] * 3 + \
                ["serve.request.IngestPatch"]
            # cache lookups nest under the serve span, not the root
            gettile = [c for c in root["children"]
                       if c["name"] == "serve.request.GetTile"]
            assert all(any(g["name"] == "serve.cache.get"
                           for g in c["children"]) for c in gettile)


# ----------------------------------------------------------------------
class TestObservationJourney:
    """Acceptance demo: one observation, enqueue -> ChangesSince."""

    @pytest.fixture()
    def journey(self):
        TRACER.configure(enabled=True, capacity=4096, reset=True)
        server = MapDistributionServer(_sign_world())
        pipe = IngestPipeline(server, tile_size=250.0, n_workers=1,
                              n_partitions=1, max_batch=64,
                              stage_latency_s=0.05)
        # Ten clean detections of a NEW sign at (20, 5) — far from the
        # prior STOP sign at (50, 5) — submitted *before* the pipeline
        # starts, so they form exactly one batch whose oldest observation
        # anchors both the freshness lag and the trace.
        for i in range(10):
            pipe.submit(Observation(kind=ObservationKind.DETECTION,
                                    position=(20.0, 5.0), sigma=0.5,
                                    vehicle=f"v{i}", seq=i, t=float(i)))
        with pipe:
            assert pipe.drain(20.0)
        return server, pipe

    def test_span_tree_reconstructs_and_attributes_freshness(self, journey):
        server, pipe = journey
        assert pipe.metrics.patches_published.value == 1
        delta = server.delta_since(0)
        added = [c for c in delta.changes
                 if c.change_type is ChangeType.ADDED]
        assert len(added) == 1

        # The oldest observation's trace carries the whole journey.
        spans = TRACER.recorder.spans()
        enqueues = [s for s in spans if s.name == "ingest.enqueue"]
        trace_id = enqueues[0].trace_id
        trace = {s.name: s for s in TRACER.recorder.trace(trace_id)}
        assert {"ingest.enqueue", "ingest.wait", "ingest.batch",
                "ingest.publish"} <= set(trace)
        for stage in ("validate", "associate", "fuse", "classify", "emit"):
            assert f"ingest.stage.{stage}" in trace
        # Parenting: wait/batch continue from the enqueue span; stage and
        # publish spans nest inside the batch span.
        root = trace["ingest.enqueue"]
        assert trace["ingest.wait"].parent_id == root.span_id
        assert trace["ingest.batch"].parent_id == root.span_id
        assert trace["ingest.publish"].parent_id == \
            trace["ingest.batch"].span_id
        assert trace["ingest.stage.fuse"].parent_id == \
            trace["ingest.batch"].span_id
        tree = build_tree([s.as_dict() for s in TRACER.recorder.trace(trace_id)])
        assert len(tree) == 1 and tree[0]["name"] == "ingest.enqueue"
        assert verify_spans(
            [s.as_dict() for s in TRACER.recorder.trace(trace_id)]) == []

        # Freshness attribution: the queue wait plus the batch processing
        # must account for the measured freshness-lag sample within 10%.
        lag = pipe.metrics.freshness.max_s
        assert pipe.metrics.freshness.count == 1
        attributed = trace["ingest.wait"].duration_s + \
            trace["ingest.batch"].duration_s
        assert attributed == pytest.approx(lag, rel=0.10)
        # and the batch-stage time is dominated by the modelled I/O
        assert trace["ingest.batch"].duration_s >= 0.05

    def test_changes_since_joins_the_same_trace(self, journey):
        server, pipe = journey
        store = TileStore.build(server.snapshot(), tile_size=250.0)
        enq = [s for s in TRACER.recorder.spans()
               if s.name == "ingest.enqueue"][0]
        with MapService(server, store, n_workers=1) as service:
            with TRACER.continue_from(enq.context, "verify.changes_since"):
                resp = service.request(ChangesSince(0))
        assert resp.ok
        assert any(c.change_type is ChangeType.ADDED
                   for c in resp.payload.changes)
        names = {s.name for s in TRACER.recorder.trace(enq.trace_id)}
        # the sync that makes the patch visible is part of the same tree
        assert "verify.changes_since" in names
        assert "serve.request.ChangesSince" in names
        assert verify_spans([s.as_dict() for s in
                             TRACER.recorder.trace(enq.trace_id)]) == []

    def test_publish_span_carries_version_and_key(self, journey):
        server, pipe = journey
        publish = [s for s in TRACER.recorder.spans()
                   if s.name == "ingest.publish"]
        assert len(publish) == 1
        span = publish[0]
        assert span.attrs["published"] is True
        assert span.attrs["duplicate"] is False
        assert ":add:" in span.attrs["key"]
        assert span.attrs["version"] == server.version
