"""Fault plans, the chaos harness, and invariant certification."""

import pytest

from repro.chaos import (
    ALL_FAULT_POINTS,
    FAULT_CLASSES,
    PUBLISH_TRANSIENT,
    SENSOR_DROP,
    SENSOR_DUPLICATE,
    ChaosHarness,
    ChaosWorkload,
    FaultPlan,
    FaultSpec,
    curated_matrix,
)


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("sensor.meltdown")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(SENSOR_DROP, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(SENSOR_DROP, probability=-0.1)

    def test_negative_after_and_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(SENSOR_DROP, after=-1)
        with pytest.raises(ValueError):
            FaultSpec(SENSOR_DROP, max_count=-1)

    def test_duplicate_spec_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultSpec(SENSOR_DROP), FaultSpec(SENSOR_DROP)])


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        def rolls(plan):
            point = plan.point(SENSOR_DROP)
            return [point.roll(key) for key in
                    ["a"] * 20 + ["b"] * 20 + ["a"] * 20]

        spec = FaultSpec(SENSOR_DROP, probability=0.5)
        first = rolls(FaultPlan([spec], seed=7))
        second = rolls(FaultPlan([spec], seed=7))
        assert first == second
        other = rolls(FaultPlan([spec], seed=8))
        assert first != other

    def test_streams_are_independent_per_key(self):
        spec = FaultSpec(SENSOR_DROP, probability=0.5)
        solo = FaultPlan([spec], seed=7).point(SENSOR_DROP)
        solo_b = [solo.roll("b") for _ in range(30)]
        mixed = FaultPlan([spec], seed=7).point(SENSOR_DROP)
        mixed_b = []
        for i in range(30):
            mixed.roll("a")  # interleaved traffic on another key
            mixed_b.append(mixed.roll("b"))
        assert solo_b == mixed_b

    def test_after_skips_first_opportunities(self):
        plan = FaultPlan([FaultSpec(SENSOR_DROP, probability=1.0, after=3)],
                         seed=7)
        point = plan.point(SENSOR_DROP)
        assert [point.roll() for _ in range(5)] == \
            [False, False, False, True, True]

    def test_max_count_caps_total_fires(self):
        plan = FaultPlan([FaultSpec(SENSOR_DROP, probability=1.0,
                                    max_count=2)], seed=7)
        point = plan.point(SENSOR_DROP)
        fires = [point.roll(str(i)) for i in range(10)]
        assert sum(fires) == 2 and point.fired == 2
        assert plan.fired_counts() == {SENSOR_DROP: 2}

    def test_inert_plan(self):
        plan = FaultPlan.none(seed=7)
        assert plan.is_inert
        assert not any(plan.point(name).roll() for name in ALL_FAULT_POINTS)
        assert plan.fired_counts() == {}
        assert "no faults" in plan.describe()

    def test_unknown_point_lookup(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan.none().point("nope")

    def test_fault_classes_partition_the_catalog(self):
        from_classes = [p for points in FAULT_CLASSES.values()
                        for p in points]
        assert sorted(from_classes) == sorted(ALL_FAULT_POINTS)
        assert len(from_classes) == len(set(from_classes))

    def test_curated_matrix_covers_every_class_and_point(self):
        matrix = dict(curated_matrix(7))
        assert set(matrix) == set(FAULT_CLASSES)
        for fault_class, plan in matrix.items():
            assert set(plan.specs) == set(FAULT_CLASSES[fault_class])


# Small enough to drain in well under a second per run.
_WORKLOAD = ChaosWorkload(vehicles=2, routes_per_vehicle=1,
                          route_length_m=450.0, seed=7)


class TestChaosHarness:
    def test_inert_run_certifies_and_matches_plain_pipeline(self, city):
        harness = ChaosHarness(city, FaultPlan.none(7), workload=_WORKLOAD)
        report = harness.run("inert")
        assert report.certify(), report.format()
        assert sum(report.fired.values()) == 0
        chaos_bytes = harness.final_map_bytes()
        assert chaos_bytes == harness.run_plain()

    def test_fault_run_fires_and_still_certifies(self, city):
        plan = FaultPlan([
            FaultSpec(SENSOR_DROP, probability=0.1),
            FaultSpec(SENSOR_DUPLICATE, probability=0.1),
            FaultSpec(PUBLISH_TRANSIENT, probability=0.5, max_count=4),
        ], seed=7)
        harness = ChaosHarness(city, plan, workload=_WORKLOAD)
        report = harness.run("mixed")
        assert sum(report.fired.values()) > 0
        assert report.certify(), report.format()
        assert len(report.invariants) == 5
        assert all(r.ok for r in report.invariants)

    def test_report_format_names_the_invariants(self, city):
        harness = ChaosHarness(city, FaultPlan.none(7), workload=_WORKLOAD)
        text = harness.run("fmt").format()
        for fragment in ("no_lost_acked_observations",
                         "no_duplicate_published_patches",
                         "version_monotonicity", "freshness_lag_bounded"):
            assert fragment in text
