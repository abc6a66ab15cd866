"""Maintenance/update pipelines: DBN, SLAMCU, crowd update, fusion, etc."""

import numpy as np
import pytest

from repro.core import ChangeType, HDMap
from repro.core.ids import ElementId
from repro.geometry.polyline import straight
from repro.geometry.transform import SE2
from repro.update import (
    ChangeClassifier,
    CrowdUpdatePipeline,
    DiffNet,
    DiscreteDBN,
    IncrementalFuser,
    LaneLearner,
    Slamcu,
    TraversalFeatures,
)
from repro.update.mec import CentralAggregator, build_rsu_grid
from repro.core.tiles import TileId
from repro.world import ChangeSpec, apply_changes, drive_route


class TestDBN:
    def test_presence_chain_decays_without_sightings(self):
        dbn = DiscreteDBN.presence_chain()
        p0 = dbn.probability(0)
        for _ in range(10):
            dbn.step([0.1, 0.95])  # expected but missed
        assert dbn.probability(0) < 0.05 < p0

    def test_sightings_confirm_presence(self):
        dbn = DiscreteDBN.presence_chain(prior_present=0.5)
        for _ in range(5):
            dbn.step([0.9, 0.05])
        assert dbn.probability(0) > 0.95

    def test_rejects_bad_transition(self):
        with pytest.raises(ValueError):
            DiscreteDBN(np.array([[0.5, 0.6], [0.0, 1.0]]),
                        np.array([0.5, 0.5]))

    def test_uninformative_update_is_noop(self):
        dbn = DiscreteDBN.presence_chain()
        before = dbn.belief.copy()
        dbn.update([0.0, 0.0])
        assert np.allclose(dbn.belief, before)


@pytest.fixture(scope="module")
def slamcu_setup():
    rng = np.random.default_rng(500)
    from repro.world import generate_highway

    hw = generate_highway(rng, length=4000.0, sign_spacing=200.0)
    scenario = apply_changes(hw, ChangeSpec(add_signs=4, remove_signs=3), rng)
    lanes = list(scenario.reality.lanes())
    trajectories = [drive_route(scenario.reality, lanes[i].id, 3900.0, rng)
                    for i in (0, 2)]
    return scenario, trajectories


class TestSlamcu:
    def test_detects_most_changes(self, slamcu_setup):
        scenario, trajectories = slamcu_setup
        rng = np.random.default_rng(501)
        report = Slamcu(scenario.prior.copy()).run(scenario, trajectories, rng)
        assert report.change_accuracy >= 0.7  # paper: 96 %

    def test_new_feature_error_in_figure2_band(self, slamcu_setup):
        scenario, trajectories = slamcu_setup
        rng = np.random.default_rng(502)
        report = Slamcu(scenario.prior.copy()).run(scenario, trajectories, rng)
        if not np.isnan(report.new_feature_errors.mean):
            # Figure 2: mean 0.8 m, sigma 0.9 m — stay in that band.
            assert report.new_feature_errors.mean < 2.0

    def test_patch_applies_cleanly(self, slamcu_setup):
        scenario, trajectories = slamcu_setup
        rng = np.random.default_rng(503)
        prior = scenario.prior.copy()
        report = Slamcu(prior).run(scenario, trajectories, rng)
        from repro.core import VersionedMap

        vm = VersionedMap(prior)
        version = vm.apply(report.patch)
        assert version == 1

    def test_no_changes_no_detections(self):
        rng = np.random.default_rng(504)
        from repro.world import generate_highway

        hw = generate_highway(rng, length=2000.0, sign_spacing=250.0)
        scenario = apply_changes(hw, ChangeSpec(), rng)
        lane = next(iter(scenario.reality.lanes()))
        traj = drive_route(scenario.reality, lane.id, 1900.0, rng)
        report = Slamcu(scenario.prior.copy()).run(scenario, traj, rng)
        assert len(report.detected_changes) <= 1  # tolerate one FP


class TestChangeClassifier:
    def test_clean_site_scores_low(self):
        f = TraversalFeatures(TileId(0, 0), missing_ratio=0.0,
                              unexpected_count=0.0, innovation=0.4)
        assert ChangeClassifier().score(f) < 0.4

    def test_changed_site_scores_high(self):
        f = TraversalFeatures(TileId(0, 0), missing_ratio=0.8,
                              unexpected_count=4.0, innovation=1.0)
        assert ChangeClassifier().score(f) > 0.6


class TestCrowdUpdate:
    def test_multi_traversal_beats_single(self):
        rng = np.random.default_rng(505)
        from repro.world import generate_highway

        hw = generate_highway(rng, length=2500.0, sign_spacing=150.0)
        scenario = apply_changes(
            hw, ChangeSpec(construction_sites=2,
                           construction_signs_per_site=5,
                           remove_signs=3), rng)
        pipeline = CrowdUpdatePipeline(scenario.prior)
        lane = next(iter(scenario.reality.lanes()))
        changed_tiles = {pipeline.tiles.tile_of(*c.position)
                         for c in scenario.true_changes}
        single_correct = multi_correct = evaluated = 0
        for k in range(8):
            traj = drive_route(scenario.reality, lane.id, 2400.0, rng)
            pipeline.ingest(pipeline.traverse(scenario.reality, traj, rng))
        for site, scores in pipeline._site_scores.items():
            truth = site in changed_tiles
            single = pipeline.site_decision(site, multi_traversal=False)
            multi = pipeline.site_decision(site, multi_traversal=True)
            evaluated += 1
            single_correct += single == truth
            multi_correct += multi == truth
        assert evaluated > 0
        assert multi_correct >= single_correct

    def test_jobs_created_for_changed_sites(self):
        rng = np.random.default_rng(506)
        from repro.world import generate_highway

        hw = generate_highway(rng, length=2500.0, sign_spacing=150.0)
        scenario = apply_changes(
            hw, ChangeSpec(construction_sites=2,
                           construction_signs_per_site=6), rng)
        pipeline = CrowdUpdatePipeline(scenario.prior)
        lane = next(iter(scenario.reality.lanes()))
        for _ in range(5):
            traj = drive_route(scenario.reality, lane.id, 2400.0, rng)
            pipeline.ingest(pipeline.traverse(scenario.reality, traj, rng))
        jobs = set(pipeline.create_jobs())
        changed_tiles = {pipeline.tiles.tile_of(*c.position)
                        for c in scenario.true_changes}
        assert jobs & changed_tiles  # at least one construction site flagged


class TestIncrementalFuser:
    def test_fusion_tightens_position(self, rng):
        fuser = IncrementalFuser()
        eid = ElementId("sign", 1)
        truth = np.array([10.0, 10.0])
        fuser.seed(eid, truth + [0.5, -0.5], sigma=1.0, t=0.0)
        for k in range(20):
            fuser.observe(truth + rng.normal(0, 0.3, 2), 0.3, t=float(k))
        element = fuser.elements[eid]
        assert float(np.hypot(*(element.position - truth))) < 0.2
        assert element.position_sigma() < 0.2
        assert element.confidence > 0.9

    def test_time_decay_enables_adaptation(self, rng):
        """After the world shifts, decay lets the map forget faster."""
        def run(use_decay):
            fuser = IncrementalFuser(use_time_decay=use_decay,
                                     decay_per_second=0.01)
            eid = ElementId("sign", 1)
            fuser.seed(eid, np.array([0.0, 0.0]), 0.3, t=0.0)
            for k in range(10):
                fuser.observe(np.array([0.0, 0.0]), 0.2, t=float(k))
            # Element vanishes; two misses arrive much later.
            for k in range(2):
                fuser.miss(eid, t=200.0 + k)
            return fuser.elements[eid].confidence

        assert run(True) < run(False)

    def test_unmatched_promoted_to_new_element(self):
        fuser = IncrementalFuser(promote_after=3)
        for k in range(3):
            fuser.observe(np.array([5.0, 5.0]), 0.3, t=float(k))
        assert any(eid.kind == "fused" for eid in fuser.elements)
        assert fuser._feedback == []

    def test_prune_drops_dead_elements(self):
        fuser = IncrementalFuser(confidence_loss=0.5)
        eid = ElementId("sign", 1)
        fuser.seed(eid, np.zeros(2), 0.3, t=0.0, confidence=0.5)
        fuser.miss(eid, 1.0)
        dead = fuser.prune()
        assert eid in dead


class TestLaneLearner:
    def test_smoothed_beats_naive_on_sparse_noisy_data(self, rng):
        truth = straight([0, 0], [300, 0], spacing=10.0)
        learner = LaneLearner(truth, station_bin=10.0, smoothness=40.0)
        s = rng.uniform(0, 300, 120)
        d = rng.normal(0.0, 1.2, 120)  # crowd-grade lateral noise
        pts = np.array([truth.point_at(float(si)) + [0, float(di)]
                        for si, di in zip(s, d)])
        smooth = learner.fit(pts)
        naive = learner.fit_naive(pts)
        assert smooth is not None and naive is not None
        assert learner.score(smooth, truth).mean < learner.score(naive, truth).mean

    def test_too_few_points(self):
        truth = straight([0, 0], [300, 0])
        learner = LaneLearner(truth)
        assert learner.fit(np.zeros((2, 2))) is None


class TestDiffNet:
    def test_detects_added_and_removed(self, rng):
        from repro.core.elements import SignType, TrafficSign

        prior = HDMap("p")
        prior.create(TrafficSign, position=np.array([10.0, 0.0]),
                     sign_type=SignType.STOP)
        prior.create(TrafficSign, position=np.array([-20.0, 5.0]),
                     sign_type=SignType.STOP)
        pose = SE2(0.0, 0.0, 0.0)
        # Reality: first sign still there, second removed, a new one added.
        observed = np.array([[10.1, 0.05], [0.0, 15.0]])
        regions = DiffNet().compare(prior, pose, observed)
        types = sorted(r.change_type.value for r in regions)
        assert "added" in types
        assert "removed" in types

    def test_no_changes_no_regions(self, rng):
        from repro.core.elements import SignType, TrafficSign

        prior = HDMap("p")
        prior.create(TrafficSign, position=np.array([10.0, 0.0]),
                     sign_type=SignType.STOP)
        regions = DiffNet().compare(prior, SE2(0, 0, 0),
                                    np.array([[10.0, 0.0]]))
        assert regions == []


class TestMec:
    def test_edge_compression(self, rng):
        from repro.core.elements import SignType, TrafficSign

        prior = HDMap("p")
        sign_ids = []
        for x in range(0, 400, 50):
            s = prior.create(TrafficSign, position=np.array([float(x), 5.0]),
                             sign_type=SignType.STOP)
            sign_ids.append(s.id)
        servers = build_rsu_grid(prior, tile_size=200.0)
        central = CentralAggregator()
        # 10 vehicles upload raw detections; one sign (the first) vanished.
        for _ in range(10):
            for region, server in servers:
                x0, y0, x1, y1 = region.bounds
                visible = [sid for sid in sign_ids
                           if x0 <= prior.get(sid).position[0] < x1]
                detections = [prior.get(sid).position + rng.normal(0, 0.2, 2)
                              for sid in visible if sid != sign_ids[0]]
                server.ingest(detections, visible)
        for _, server in servers:
            central.receive(server.extract_changes())
        assert any(c.change_type is ChangeType.REMOVED
                   and c.element_id == sign_ids[0] for c in central.changes)
        only_servers = [s for _, s in servers]
        assert central.compression_factor(only_servers) > 10.0
