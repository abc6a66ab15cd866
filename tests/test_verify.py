"""The verify gate: constraint engine edge cases, quarantine journal
semantics (including crash replay), pipeline/publisher enforcement, and
the chaos-report surfaces the fifth invariant renders through."""

import os
import pickle

import numpy as np
import pytest

from repro.chaos import ChaosReport, InvariantResult, check_served_map_clean
from repro.core import MapPatch, SignType, TrafficSign
from repro.core.elements import ElementId, Lane, LaneBoundary
from repro.core.regulatory import RegulatoryElement, RuleType
from repro.core.validation import (
    ALL_CONSTRAINTS,
    C_BOUNDARY_CONTINUITY,
    C_LANE_WIDTH,
    C_REGULATORY_ATTACHMENT,
    ConstraintEngine,
    Severity,
)
from repro.geometry import Polyline
from repro.ingest import ConfirmedPatch, IngestPipeline
from repro.ingest.verify import QuarantineStore, VerifyGate
from repro.obs import HotCounter
from repro.update.distribution import MapDistributionServer
from repro.world import generate_grid_city


def _city(seed=7):
    return generate_grid_city(np.random.default_rng(seed), 2, 2,
                              block_size=150.0)


def _lane(eid=900_001, width=3.5, length=20.0, x=5_000.0):
    """A free-standing lane far from generated geometry; references are
    deliberately absent so only the physical checks fire."""
    return Lane(id=ElementId("lane", eid),
                centerline=Polyline(np.array([[x, 0.0], [x + length, 0.0]])),
                width=width, speed_limit=13.9)


def _degenerate_lane(eid=910_001):
    return Lane(id=ElementId("lane", eid),
                centerline=Polyline(np.array([[6_000.0, 0.0],
                                              [6_000.2, 0.0]])),
                left_boundary=ElementId("boundary", eid),
                right_boundary=ElementId("boundary", eid + 1),
                width=0.4, speed_limit=13.9)


# ----------------------------------------------------------------------
class TestConstraintEngine:
    def test_clean_generated_city_has_zero_errors(self):
        report = ConstraintEngine().check_map(_city())
        assert report.errors == []
        assert report.warnings == []
        assert report.checked > 0

    @pytest.mark.parametrize("width", [2.0, 7.0])
    def test_width_exactly_at_threshold_passes(self, width):
        # Bounds are inclusive: a legal-minimum (or maximum) lane is a
        # real road, not a fusion artifact.
        patch = MapPatch(source="t", confidence=0.9).add(_lane(width=width))
        report = ConstraintEngine().check_patch(_city(), patch)
        assert report.ok()
        assert report.violations == []

    @pytest.mark.parametrize("width", [1.999, 7.001, float("nan")])
    def test_width_just_outside_threshold_fails(self, width):
        patch = MapPatch(source="t", confidence=0.9).add(_lane(width=width))
        report = ConstraintEngine().check_patch(_city(), patch)
        assert not report.ok()
        assert report.counts() == {C_LANE_WIDTH: 1}

    def test_zero_length_boundary_is_an_error(self):
        # Polyline itself collapses exactly-duplicate vertices, so the
        # degenerate case the gate sees is a millimetre-scale chain:
        # length ~0 < min_boundary_length_m.
        boundary = LaneBoundary(
            id=ElementId("boundary", 920_001),
            line=Polyline(np.array([[5_000.0, 1.0], [5_000.001, 1.0]])))
        patch = MapPatch(source="t", confidence=0.9).add(boundary)
        report = ConstraintEngine().check_patch(_city(), patch)
        errors = report.errors
        assert len(errors) == 1
        assert errors[0].constraint == C_BOUNDARY_CONTINUITY
        assert errors[0].severity is Severity.ERROR
        assert errors[0].element_id == boundary.id

    def test_multi_violation_patch_yields_one_consolidated_report(self):
        patch = MapPatch(source="t", confidence=0.9)
        patch.add(_degenerate_lane())
        patch.add(LaneBoundary(
            id=ElementId("boundary", 920_002),
            line=Polyline(np.array([[6_100.0, 0.0], [6_160.0, 0.0],
                                    [6_101.0, 0.05]]))))
        patch.add(RegulatoryElement(id=ElementId("regulatory", 930_001),
                                    rule_type=RuleType.SPEED_LIMIT,
                                    lanes=(), value=99.0))
        report = ConstraintEngine().check_patch(_city(), patch)
        # One report for the whole patch, with every constraint family
        # that fired represented — not one report per op.
        assert not report.ok()
        counts = report.counts()
        assert counts[C_LANE_WIDTH] >= 1
        assert counts[C_BOUNDARY_CONTINUITY] >= 1
        assert counts[C_REGULATORY_ATTACHMENT] >= 1
        assert len(report.errors) >= 3
        assert "error(s)" in report.summary()

    def test_catalog_names_are_the_metric_suffixes(self):
        assert set(ALL_CONSTRAINTS) == {
            "lane_width", "boundary_continuity", "topology_reachability",
            "regulatory_attachment", "layer_agreement"}


# ----------------------------------------------------------------------
class TestQuarantineStore:
    def test_journal_replays_after_crash(self, tmp_path):
        path = os.path.join(str(tmp_path), "quarantine.jsonl")
        city = _city()
        gate = VerifyGate(city, quarantine=QuarantineStore(path))
        bad = ConfirmedPatch(
            key="t:bad:0",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane()))
        assert not gate.admit(bad)
        gate.quarantine.close()  # crash: the process goes away

        revived = QuarantineStore.load(path)
        assert "t:bad:0" in revived
        records = revived.records()
        assert len(records) == 1
        assert records[0]["key"] == "t:bad:0"
        assert records[0]["errors"] >= 1
        assert any(v["constraint"] == C_LANE_WIDTH
                   for v in records[0]["violations"])
        # Replayed keys still dedup redelivery of the same rejection.
        gate2 = VerifyGate(city, quarantine=revived)
        assert not gate2.admit(bad)
        assert len(revived) == 1
        assert revived.duplicates == 1

    def test_violation_counts_aggregate_per_constraint(self):
        gate = VerifyGate(_city())
        gate.admit(ConfirmedPatch(
            key="t:bad:1",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane())))
        counts = gate.quarantine.violation_counts()
        assert counts.get(C_LANE_WIDTH, 0) >= 1


# ----------------------------------------------------------------------
class TestGateEnforcement:
    def test_stage_filter_drops_only_quarantined(self):
        server = MapDistributionServer(_city().copy())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1)
        clean = ConfirmedPatch(
            key="t:clean:0",
            patch=MapPatch(source="t", confidence=0.9).add(_lane()))
        bad = ConfirmedPatch(
            key="t:bad:2",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane()))
        kept = pipe.verify_gate.filter([clean, bad])
        assert kept == [clean]
        assert clean.verified and bad.verified
        verify = pipe.stats()["verify"]
        assert verify["checked"] == 2
        assert verify["passed"] == 1
        assert verify["quarantined"] == 1
        assert verify["by_constraint"][C_LANE_WIDTH] >= 1
        assert verify["quarantine_depth"] == 1

    def test_publisher_backstop_quarantines_direct_publishes(self):
        server = MapDistributionServer(_city().copy())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1)
        base_version = server.version
        result = pipe.publisher.publish(ConfirmedPatch(
            key="t:bad:3",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane())))
        assert result.quarantined
        assert not result.published
        assert server.version == base_version  # nothing landed
        assert "t:bad:3" in pipe.verify_gate.quarantine
        # A repaired patch under the same key publishes: quarantine
        # never burns the idempotency key on the published set.
        repaired = pipe.publisher.publish(ConfirmedPatch(
            key="t:bad:3",
            patch=MapPatch(source="t", confidence=0.9).add(_lane())))
        assert repaired.published

    def test_clean_publish_stream_passes_whole_then_corrupt_quarantines(self):
        city = _city()
        server = MapDistributionServer(city.copy())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1)
        # No conflation: every sign is its own ingest.
        pipe.publisher.add_conflation_radius = 0.0
        min_x, min_y, max_x, max_y = city.bounds()
        rng = np.random.default_rng(7)
        n = 200
        for i in range(n):
            sign = TrafficSign(
                id=server.new_element_id("sign"),
                position=np.array([rng.uniform(min_x, max_x),
                                   rng.uniform(min_y, max_y)]),
                sign_type=SignType.DIRECTION)
            assert pipe.publisher.publish(ConfirmedPatch(
                key=f"t:stream:{i}",
                patch=MapPatch(source="t", confidence=0.9).add(sign))
            ).published
        verify = pipe.stats()["verify"]
        assert verify["passed"] == n
        assert verify["quarantined"] == 0
        # The gate that just waved 200 through still rejects geometry.
        assert pipe.publisher.publish(ConfirmedPatch(
            key="t:stream:corrupt",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane()))).quarantined
        assert pipe.stats()["verify"]["quarantined"] == 1

    def test_verified_patches_are_not_rechecked(self):
        server = MapDistributionServer(_city().copy())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1)
        confirmed = ConfirmedPatch(
            key="t:clean:1",
            patch=MapPatch(source="t", confidence=0.9).add(_lane()),
            verified=True)  # the stage already judged it
        assert pipe.publisher.publish(confirmed).published
        assert pipe.stats()["verify"]["checked"] == 0

    def test_verify_disabled_pipeline_has_no_gate(self):
        server = MapDistributionServer(_city().copy())
        pipe = IngestPipeline(server, n_workers=1, n_partitions=1,
                              verify=False)
        assert pipe.verify_gate is None
        result = pipe.publisher.publish(ConfirmedPatch(
            key="t:bad:4",
            patch=MapPatch(source="t", confidence=0.9).add(
                _degenerate_lane())))
        assert result.published  # measurement mode: anything lands


# ----------------------------------------------------------------------
class TestChaosSurfaces:
    def test_zero_sample_invariant_renders_vacuous(self):
        result = InvariantResult("zero constraint violations served",
                                 True, "gate unexercised", samples=0)
        assert "ok (vacuous)" in str(result)
        assert "PASS" not in str(result)

    def test_nonzero_sample_invariant_renders_plain_ok(self):
        result = InvariantResult("zero constraint violations served",
                                 True, "3 quarantined", samples=3)
        assert str(result).startswith("[ok]")
        assert "vacuous" not in str(result)

    def test_report_format_survives_unexercised_gate(self):
        report = ChaosReport(
            fault_class="sensor", plan="p",
            invariants=[InvariantResult("zero constraint violations "
                                        "served", True, "no patches",
                                        samples=0)],
            stats={"verify": {"checked": 0, "quarantined": 0}})
        text = report.format()  # must not divide by zero
        assert "gate unexercised" in text
        assert "ok (vacuous)" in text
        assert report.certify()

    def test_check_served_map_clean_flags_missing_quarantine(self):
        city = _city()
        gate = VerifyGate(city)
        result = check_served_map_clean(
            city, gate=gate, events=[],
            malformed_keys=["chaos:geometry.degenerate_lane:0"])
        assert not result.ok
        assert "missing from quarantine" in result.detail

    def test_check_served_map_clean_passes_quarantined_injection(self):
        city = _city()
        gate = VerifyGate(city)
        bad = ConfirmedPatch(
            key="chaos:geometry.degenerate_lane:0",
            patch=MapPatch(source="chaos", confidence=0.9).add(
                _degenerate_lane()))
        assert not gate.admit(bad)
        events = [{"event": "patch_quarantined"}]
        result = check_served_map_clean(
            city, gate=gate, events=events,
            malformed_keys=["chaos:geometry.degenerate_lane:0"])
        assert result.ok
        assert result.samples == 1


# ----------------------------------------------------------------------
class TestHotCounter:
    def test_counts_and_bulk_add(self):
        counter = HotCounter()
        for _ in range(5):
            counter.add()
        counter.add(3)
        assert counter.value == 8
        # Reading the value must not consume the underlying count.
        assert counter.value == 8

    def test_is_a_counter_for_registry_dispatch(self):
        from repro.obs import Counter
        assert isinstance(HotCounter(), Counter)

    def test_pickle_round_trip_preserves_value(self):
        counter = HotCounter()
        counter.add(4)
        clone = pickle.loads(pickle.dumps(counter))
        assert clone.value == 4
        clone.add()
        assert clone.value == 5
        assert counter.value == 4
