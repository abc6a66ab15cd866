"""repro.perf: instrumentation, paired timing, kernel equivalence, serve
memoization.

The equivalence classes here are the heart of the optimization PR: every
vectorized hot-path kernel must produce **bit-identical** output to its
frozen pre-optimization twin in :mod:`repro.perf.reference` on the same
rng stream. Anything weaker would let a "fast but subtly different"
kernel slip into the physics.
"""

import dataclasses
import enum
import math
import pickle
import threading
import time
import zlib
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HDMap
from repro.core.elements import (
    Crosswalk,
    Node,
    SignType,
    StopLine,
    TrafficSign,
)
from repro.geometry.index import GridIndex
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.localization.geometric import (
    LandmarkLayout,
    LayoutPattern,
    simulate_layout_error,
    solve_position,
    solve_positions,
)
from repro.localization.lane_marking import _batch_signed_laterals
from repro.pack.delta import decode_delta, encode_delta
from repro.perf import PerfRegistry, paired, timed
from repro.perf import pairing, reference
from repro.sensors.lidar import LidarScanner
from repro.serve import GetTile, IngestPatch, MapService, Status
from repro.storage import TileStore
from repro.storage.binary import (
    BodyReader,
    BodyWriter,
    decode_map,
    element_count,
    encode_map,
)
from repro.update.distribution import MapDistributionServer, SyncDelta

from tests.body_fuzz import delta_of
from tests.test_serve import _add_sign_patch
from tests.conftest import of_type


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
class TestInstrument:
    def test_context_manager_accumulates(self):
        reg = PerfRegistry(enabled=True)
        with timed("outer", reg):
            with timed("inner", reg):
                time.sleep(0.002)
        snap = reg.snapshot()
        assert snap["outer"]["calls"] == 1
        assert snap["inner"]["calls"] == 1
        # Nesting: outer envelops inner.
        assert snap["outer"]["total_ns"] >= snap["inner"]["total_ns"]

    def test_decorator_counts_calls(self):
        reg = PerfRegistry(enabled=True)

        @timed("fn", reg)
        def fn(x):
            return x + 1

        assert [fn(i) for i in range(5)] == [1, 2, 3, 4, 5]
        snap = reg.snapshot()
        assert snap["fn"]["calls"] == 5
        assert snap["fn"]["total_ns"] > 0

    def test_disabled_registry_records_nothing(self):
        reg = PerfRegistry(enabled=False)

        @timed("fn", reg)
        def fn():
            return 42

        with timed("ctx", reg):
            fn()
        assert reg.snapshot() == {}

    def test_enable_disable_reset_cycle(self):
        reg = PerfRegistry()
        reg.enable()
        with timed("a", reg):
            pass
        reg.disable()
        with timed("a", reg):
            pass
        assert reg.snapshot()["a"]["calls"] == 1
        reg.reset()
        assert reg.snapshot() == {}

    def test_threads_accumulate_independently_then_merge(self):
        reg = PerfRegistry(enabled=True)

        def work():
            for _ in range(10):
                with timed("shared", reg):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        work()
        assert reg.snapshot()["shared"]["calls"] == 50


# ----------------------------------------------------------------------
# Paired timing
# ----------------------------------------------------------------------
class TestPaired:
    """``paired`` on a fake clock: each side advances it by a scripted
    duration per call, so every ratio is known in advance."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(pairing, "perf_counter", lambda: now[0])
        return now

    @staticmethod
    def side(clock, name, durations, log):
        durations = iter(durations)

        def call():
            log.append(name)
            clock[0] += next(durations)
        return call

    def test_call_order_alternates(self, clock):
        log = []
        paired(self.side(clock, "a", [1.0] * 8, log),
               self.side(clock, "b", [1.0] * 8, log), n=3, warmup=1)
        assert log == ["a", "b",                     # warm-up
                       "a", "b", "b", "a", "a", "b"]  # timed pairs

    def test_warmup_calls_are_untimed(self, clock):
        log = []
        result = paired(self.side(clock, "a", [100.0, 50.0, 1.0, 2.0], log),
                        self.side(clock, "b", [100.0, 50.0, 3.0, 4.0], log),
                        n=2, warmup=2)
        assert len(log) == 8
        assert result.a_s == (1.0, 2.0)
        assert result.b_s == (3.0, 4.0)

    def test_ratios_wins_and_sign_test_by_hand(self, clock):
        log = []
        a = [1.0, 1.0, 2.0, 1.0, 1.0, 4.0]
        b = [2.0, 3.0, 2.0, 0.5, 1.5, 6.0]
        result = paired(self.side(clock, "a", a, log),
                        self.side(clock, "b", b, log), n=6)
        assert result.ratios == (2.0, 3.0, 1.0, 0.5, 1.5, 1.5)
        assert result.median == 1.5
        # inclusive quartiles of 0.5 1.0 1.5 1.5 2.0 3.0
        assert (result.q1, result.q3) == (1.125, 1.875)
        # 4 wins, 1 loss, 1 tie dropped: p = 2 * (1 + 5) / 2**5
        assert result.wins == 4
        assert result.p == pytest.approx(0.375)
        assert "4/6" in result.describe()

    def test_unanimous_wins_reach_small_p(self, clock):
        log = []
        result = paired(self.side(clock, "a", [1.0] * 10, log),
                        self.side(clock, "b", [2.0] * 10, log), n=10)
        assert result.wins == 10
        assert result.p == pytest.approx(2 / 2 ** 10)
        assert result.q1 == result.median == result.q3 == 2.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_raises(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            paired(lambda: None, lambda: None, n=n)


# ----------------------------------------------------------------------
# Kernel equivalence: optimized vs frozen reference, bit-identical.
# ----------------------------------------------------------------------
class TestProjectBatchEquivalence:
    def test_bit_identical_to_scalar_project(self):
        rng = np.random.default_rng(3)
        s = np.linspace(0.0, 200.0, 80)
        line = Polyline(np.stack(
            [s, 9.0 * np.sin(s / 25.0) + rng.normal(0.0, 0.2, s.size)],
            axis=1))
        points = np.stack([rng.uniform(-10.0, 210.0, 500),
                           rng.uniform(-20.0, 20.0, 500)], axis=1)
        stations, laterals = line.project_batch(points)
        ref_s, ref_d = reference.project_scalar(line, points)
        np.testing.assert_array_equal(stations, ref_s)
        np.testing.assert_array_equal(laterals, ref_d)

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(4)
        line = Polyline(rng.uniform(0.0, 100.0, (300, 2)).cumsum(axis=0))
        points = rng.uniform(0.0, 3000.0, (64, 2))
        full_s, full_d = line.project_batch(points)
        tiny_s, tiny_d = line.project_batch(points, max_pairs=512)
        np.testing.assert_array_equal(full_s, tiny_s)
        np.testing.assert_array_equal(full_d, tiny_d)

    def test_empty_batch(self):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        stations, laterals = line.project_batch(np.zeros((0, 2)))
        assert stations.shape == (0,)
        assert laterals.shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_agrees_with_scalar(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        pts = np.array([
            [data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(-1e3, 1e3))]
            for _ in range(n)])
        seg = np.diff(pts, axis=0)
        if not np.all(np.hypot(seg[:, 0], seg[:, 1]) > 1e-6):
            pts = np.cumsum(np.abs(pts) + 1.0, axis=0)
        line = Polyline(pts)
        m = data.draw(st.integers(min_value=1, max_value=8))
        query = np.array([
            [data.draw(st.floats(-2e3, 2e3)), data.draw(st.floats(-2e3, 2e3))]
            for _ in range(m)])
        stations, laterals = line.project_batch(query)
        ref_s, ref_d = reference.project_scalar(line, query)
        np.testing.assert_allclose(stations, ref_s, atol=1e-9)
        np.testing.assert_allclose(laterals, ref_d, atol=1e-9)


class TestLidarEquivalence:
    @pytest.mark.parametrize("pose", [
        SE2(150.0, 150.0, 0.3),
        SE2(310.0, 160.0, -1.2),
        SE2(75.0, 290.0, 2.8),
    ])
    def test_scan_bit_identical_to_reference(self, city, pose):
        scanner = LidarScanner()
        opt = scanner.scan(city, pose, np.random.default_rng(11))
        ref = reference.scan_reference(scanner, city, pose,
                                       np.random.default_rng(11))
        np.testing.assert_array_equal(opt.ground.points, ref.ground.points)
        np.testing.assert_array_equal(opt.ground.intensity,
                                      ref.ground.intensity)
        np.testing.assert_array_equal(opt.ground.ring, ref.ground.ring)
        np.testing.assert_array_equal(opt.objects.angles, ref.objects.angles)
        np.testing.assert_array_equal(opt.objects.ranges, ref.objects.ranges)
        np.testing.assert_array_equal(opt.objects.intensity,
                                      ref.objects.intensity)

    def test_repeated_scan_at_fixed_cell_stays_identical(self, city):
        """The scan-context cache must not change results on reuse."""
        scanner = LidarScanner()
        pose = SE2(150.0, 150.0, 0.3)
        first = scanner.scan(city, pose, np.random.default_rng(5))
        again = scanner.scan(city, pose, np.random.default_rng(5))
        np.testing.assert_array_equal(first.ground.intensity,
                                      again.ground.intensity)

    def test_cache_invalidated_on_map_mutation(self, city):
        scanner = LidarScanner()
        pose = SE2(150.0, 150.0, 0.3)
        world = city.copy()
        scanner.scan(world, pose, np.random.default_rng(5))
        # Remove every boundary near the pose; a stale context would keep
        # returning painted intensities.
        for element in list(world.elements_in_radius(pose.x, pose.y, 60.0,
                                                     kind="boundary")):
            world.remove(element.id)
        fresh = scanner.scan(world, pose, np.random.default_rng(5))
        ref = reference.scan_reference(scanner, world, pose,
                                       np.random.default_rng(5))
        np.testing.assert_array_equal(fresh.ground.intensity,
                                      ref.ground.intensity)

class TestParticleWeightEquivalence:
    def test_batched_laterals_match_scalar(self, city):
        rng = np.random.default_rng(21)
        pose = SE2(150.0, 150.0, 0.3)
        states = np.stack([rng.normal(pose.x, 2.0, 100),
                           rng.normal(pose.y, 2.0, 100),
                           rng.normal(pose.theta, 0.1, 100)], axis=1)
        boundaries = _fixture_boundaries(city, pose)
        groups = boundaries["paint"] + boundaries["edge"]
        assert groups, "fixture city must have boundaries near the pose"
        for a_pts, b_pts in groups:
            lateral, valid = _batch_signed_laterals(states, a_pts, b_pts)
            for i in range(states.shape[0]):
                expect = reference._signed_lateral_reference(
                    a_pts, b_pts, *states[i])
                if expect is None:
                    assert not valid[i]
                else:
                    assert valid[i]
                    assert lateral[i] == expect

    def test_weights_bit_identical_to_reference(self, city):
        rng = np.random.default_rng(22)
        pose = SE2(150.0, 150.0, 0.3)
        states = np.stack([rng.normal(pose.x, 1.5, 250),
                           rng.normal(pose.y, 1.5, 250),
                           rng.normal(pose.theta, 0.05, 250)], axis=1)
        boundaries = _fixture_boundaries(city, pose)
        measurements = [(1.7, "paint"), (-1.9, "paint"), (5.2, "edge")]
        sigma = 0.12

        laterals = {
            cls: [_batch_signed_laterals(states, a_pts, b_pts)
                  for a_pts, b_pts in boundaries.get(cls, ())]
            for cls in ("paint", "edge")
        }
        total = np.zeros(states.shape[0])
        for m, cls in measurements:
            best = np.full(states.shape[0], np.inf)
            for lat, valid in laterals[cls]:
                err = np.where(valid, np.abs(lat - m), np.inf)
                np.minimum(best, err, out=best)
            scale = 2.0 if cls == "edge" else 1.0
            term = scale * (np.minimum(best, 3.0 * sigma) / sigma)**2
            total += np.where(np.isfinite(best), term, 0.0)
        log_w = -0.5 * total
        log_w -= log_w.max()
        batched = np.exp(log_w)

        expect = reference.particle_weights_reference(
            states, measurements, boundaries, sigma)
        np.testing.assert_array_equal(batched, expect)


class TestMatchAndGeometricEquivalence:
    @staticmethod
    def _segment_world(rng, n_obs, n_ref):
        def segs(n):
            a = rng.uniform(0.0, 80.0, (n, 2))
            angle = rng.uniform(0.0, np.pi, n)
            length = rng.uniform(2.0, 12.0, n)
            b = a + np.stack([length * np.cos(angle),
                              length * np.sin(angle)], axis=1)
            return [(a[i], b[i]) for i in range(n)]
        return segs(n_obs), segs(n_ref)

    def test_solve_positions_matches_sequential(self):
        rng = np.random.default_rng(41)
        layout = LandmarkLayout.generate(LayoutPattern.RANDOM, 6, 40.0, rng)
        true_ranges = np.hypot(layout.positions[:, 0],
                               layout.positions[:, 1])
        measured = true_ranges + rng.normal(0.0, 0.3, (16, true_ranges.size))
        batch = solve_positions(layout, measured)
        for k in range(measured.shape[0]):
            single = solve_position(layout, measured[k])
            np.testing.assert_allclose(batch[k], single, atol=1e-7)

    def test_simulate_layout_error_matches_reference(self):
        rng = np.random.default_rng(42)
        layout = LandmarkLayout.generate(LayoutPattern.RANDOM, 5, 35.0, rng)
        got = simulate_layout_error(layout, 0.4,
                                    np.random.default_rng(9), trials=64)
        expect = reference.simulate_layout_error_reference(
            layout, 0.4, np.random.default_rng(9), trials=64)
        assert got == pytest.approx(expect, rel=1e-7)


# ----------------------------------------------------------------------
# GridIndex determinism and nearest() clamp
# ----------------------------------------------------------------------
class TestGridIndexDeterminism:
    @staticmethod
    def _build(keys_bounds):
        index = GridIndex(cell_size=10.0)
        for key, bounds in keys_bounds:
            index.insert(key, bounds)
        return index

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 500),
                  st.tuples(st.floats(0.0, 90.0), st.floats(0.0, 90.0))),
        min_size=1, max_size=40, unique_by=lambda kb: kb[0]))
    def test_same_hits_as_repr_sorted_reference(self, items):
        keys_bounds = [((k % 7, k), (x, y, x + 8.0, y + 8.0))
                       for k, (x, y) in items]
        index = self._build(keys_bounds)
        query = (20.0, 20.0, 70.0, 70.0)
        got = index.query_box(query)
        expect = reference.query_box_repr_sorted(index, query)
        assert set(got) == set(expect)
        assert len(got) == len(set(got))

    def test_order_is_insertion_order_and_rebuild_stable(self):
        rng = np.random.default_rng(51)
        keys_bounds = []
        for i in rng.permutation(30):
            x, y = rng.uniform(0.0, 50.0, 2)
            keys_bounds.append((("e", int(i)), (x, y, x + 5.0, y + 5.0)))
        first = self._build(keys_bounds)
        second = self._build(keys_bounds)
        query = (0.0, 0.0, 60.0, 60.0)
        hits = first.query_box(query)
        assert hits == second.query_box(query)
        inserted_order = [k for k, _ in keys_bounds]
        assert hits == sorted(hits, key=inserted_order.index)

    def test_nearest_respects_max_radius_clamp(self):
        index = GridIndex(cell_size=1.0)
        index.insert("near", (5.0, 0.0, 5.0, 0.0))
        index.insert("far", (500.0, 0.0, 500.0, 0.0))
        centres = {"near": (5.0, 0.0), "far": (500.0, 0.0)}

        calls = []

        def dist(key):
            calls.append(key)
            cx, cy = centres[key]
            return float(np.hypot(cx, cy))

        key, d = index.nearest(0.0, 0.0, dist, max_radius=20.0)
        assert (key, d) == ("near", 5.0)
        # The clamped verification ring must never reach the far key.
        assert "far" not in calls

    def test_nearest_falls_back_to_full_scan(self):
        index = GridIndex(cell_size=1.0)
        index.insert("only", (300.0, 0.0, 300.0, 0.0))
        key, d = index.nearest(0.0, 0.0, lambda k: 300.0, max_radius=4.0)
        assert key == "only"
        assert d == 300.0


# ----------------------------------------------------------------------
# HDMV / HDDL codec: the index-cursor reader/writer vs the frozen
# BytesIO twins — same bytes out, same elements in, bit for bit
# ----------------------------------------------------------------------
def assert_same_value(a, b, where=""):
    """Exact equality, recursing into dataclasses, lists and polylines:
    ``np.array_equal`` on geometry (not ``allclose``), ``is`` on enums."""
    assert type(a) is type(b), where
    if isinstance(a, Polyline):
        assert_same_value(a.points, b.points, where)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert np.array_equal(a, b), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_value(getattr(a, f.name), getattr(b, f.name),
                              f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_same_value(a[key], b[key], f"{where}[{key}]")
    elif isinstance(a, enum.Enum):
        assert a is b, where
    else:
        assert a == b, where


def assert_same_map(a, b):
    assert (a.name, a.version) == (b.name, b.version)
    assert_same_value(list(a.elements()), list(b.elements()), a.name)


def assert_codec_matches_twin(hdmap):
    """Writer: same bytes as the twin. Reader: same map as the twin."""
    blob = encode_map(hdmap)
    assert blob == reference.encode_map_reference(hdmap)
    assert_same_map(decode_map(blob), reference.decode_map_reference(blob))
    return blob


class TestCodecEquivalence:
    @pytest.mark.parametrize("world", ["city", "highway", "factory"])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_every_tile_and_the_whole_map(self, world, scale, request):
        hdmap = request.getfixturevalue(world)
        tile_size = scale * {"city": 100.0, "highway": 200.0,
                             "factory": 20.0}[world]
        assert_codec_matches_twin(hdmap)
        store = TileStore.build(hdmap, tile_size=tile_size)
        assert len(store.tiles()) >= 2
        for tile in store.tiles():
            blob = store.encoded_view(tile)
            shard = decode_map(blob)
            assert_same_map(shard, reference.decode_map_reference(blob))
            assert encode_map(shard) == blob
            assert reference.encode_map_reference(shard) == blob
            assert element_count(blob) == len(shard)

    def test_simplified_encoding_matches(self, highway):
        assert encode_map(highway, simplify_tolerance=0.1) == \
            reference.encode_map_reference(highway, simplify_tolerance=0.1)

    def test_empty_map(self):
        empty = HDMap("nothing here")
        empty.version = 3
        blob = assert_codec_matches_twin(empty)
        assert len(decode_map(blob)) == 0 and element_count(blob) == 0

    def test_negative_deltas_and_quantisation_ties(self):
        hdmap = HDMap("signs of every sign")
        zigzag = np.array([[0.0, 0.0], [-3.0, 4.0], [2.0, -7.5],
                           [-1000.25, -0.005], [-1000.255, 0.015]])
        hdmap.create(StopLine, line=Polyline(zigzag))
        hdmap.create(StopLine, line=Polyline(-zigzag[::-1] - 1234.565))
        hdmap.create(Crosswalk, polygon=zigzag[:4].copy())
        hdmap.create(Node, position=np.array([-0.005, 0.005]))
        blob = assert_codec_matches_twin(hdmap)
        line = of_type(decode_map(blob), StopLine)[0].line
        assert np.array_equal(line.points[1], [-3.0, 4.0])

    def test_nine_byte_varints(self):
        # |coordinate| ~ 2**55 cm: zig-zag deltas need nine varint bytes,
        # and the int -> float conversion rounds (beyond 2**53).
        far = float(2**55 + 12345) * 0.01
        hdmap = HDMap("far out")
        hdmap.create(Node, position=np.array([far, -far]))
        hdmap.create(TrafficSign, position=np.array([-far, far / 3.0]),
                     sign_type=SignType.STOP)
        blob = assert_codec_matches_twin(hdmap)
        assert len(zlib.decompress(blob[9:])) > 4 * 9

        # a polyline that starts out there and walks back and forth;
        # one this long fits no map index, so compare at the field level
        steps = np.array([[2**55, -2**55], [-7, 2**40], [2**56, -3],
                          [-2**56 - 2**55, 2**55 - 2**40]])
        line = Polyline(np.cumsum(steps, axis=0) * 0.01)
        writer = BodyWriter()
        writer.polyline(line)
        twin = BytesIO()
        reference._write_polyline(twin, line)
        assert bytes(writer.buf) == twin.getvalue()
        assert max(len(b) for b in _varints(bytes(writer.buf))) == 9
        twin.seek(0)
        assert_same_value(BodyReader(bytes(writer.buf)).polyline(),
                          reference._read_polyline(twin))

    def test_varint_primitives_match_the_twin(self):
        for n in [0, 1, 127, 128, 16383, 16384, 2**35 - 1, 2**56,
                  2**63 - 1, 2**64 - 1]:
            writer, twin = BodyWriter(), BytesIO()
            writer.varint(n)
            reference._write_varint(twin, n)
            assert bytes(writer.buf) == twin.getvalue()
            assert BodyReader(bytes(writer.buf)).varint() == n
        for n in [0, -1, 1, -64, 64, -2**31, 2**31, -2**62, 2**62 - 1]:
            writer, twin = BodyWriter(), BytesIO()
            writer.svarint(n)
            reference._write_svarint(twin, n)
            assert bytes(writer.buf) == twin.getvalue()
            assert BodyReader(bytes(writer.buf)).svarint() == n

    def test_vertices_that_quantise_to_duplicates_are_dropped(self):
        # 2 mm apart: distinct in memory, the same centimetre on disk.
        # The twin drops the repeat in Polyline.__init__; so must we.
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.002, 0.001],
                        [20.0, 5.0], [20.001, 5.001], [20.002, 5.002]])
        hdmap = HDMap("dups")
        stop = hdmap.create(StopLine, line=Polyline(pts))
        assert len(stop.line) == 6
        blob = assert_codec_matches_twin(hdmap)
        line = of_type(decode_map(blob), StopLine)[0].line
        assert np.array_equal(line.points,
                              [[0.0, 0.0], [10.0, 0.0], [20.0, 5.0]])
        assert line.length == pytest.approx(10.0 + math.hypot(10.0, 5.0))

    def test_deltas_match_the_twin(self, city, highway):
        rng = np.random.default_rng(77)
        deltas = [SyncDelta(9, [], {})]
        for world in (city, highway):
            store = TileStore.build(world, tile_size=250.0)
            deltas += [delta_of(store.load_tile(t), rng)
                       for t in store.tiles()]
        for delta in deltas:
            blob = encode_delta(delta)
            assert blob == reference.encode_delta_reference(delta)
            got = decode_delta(blob)
            want = reference.decode_delta_reference(blob)
            assert_same_value(got, want, "delta")
            assert len(got.changes) == len(delta.changes)

    @pytest.mark.parametrize("touch_first", [False, True])
    def test_polyline_pickles_before_and_after_arc_length_use(
            self, touch_first):
        line = Polyline(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]]))
        if touch_first:
            assert line.length == 11.0
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            clone = pickle.loads(pickle.dumps(line, protocol=protocol))
            assert np.array_equal(clone.points, line.points)
            assert clone.length == 11.0
            assert np.array_equal(clone.point_at(5.0), [3.0, 4.0])
            assert clone.project([3.0, 7.0]) == (8.0, 0.0)
        assert line.length == 11.0


def _varints(buf: bytes):
    """Split a buffer of back-to-back varints."""
    out, start = [], 0
    for i, byte in enumerate(buf):
        if byte < 0x80:
            out.append(buf[start:i + 1])
            start = i + 1
    return out


# ----------------------------------------------------------------------
# Serving: encoded payload == stored blob, cache metrics
# ----------------------------------------------------------------------
class TestServeEncodedMemoization:
    """Encoded GetTile is the stored blob: equal to ``encode_map`` of the
    decoded tile, the same at every version, never built through the
    cache."""

    def test_encoded_payload_memoized_per_version(self, city):
        store = TileStore.build(city, tile_size=150.0)
        server = MapDistributionServer(city.copy())
        with MapService(server, store, n_workers=2) as service:
            tile = store.tiles()[0]
            first = service.request(GetTile(tile, encoded=True))
            assert first.status is Status.OK
            assert isinstance(first.payload, bytes)
            decoded_resp = service.request(GetTile(tile))
            assert first.payload == encode_map(decoded_resp.payload)

            again = service.request(GetTile(tile, encoded=True))
            assert again.payload is first.payload

    def test_ingest_publish_invalidates_encoded(self, city):
        store = TileStore.build(city, tile_size=150.0)
        server = MapDistributionServer(city.copy())
        with MapService(server, store, n_workers=2) as service:
            tile = store.tiles()[0]
            before = service.request(GetTile(tile, encoded=True))

            resp = service.request(IngestPatch(_add_sign_patch(server)))
            assert resp.status is Status.OK

            after = service.request(GetTile(tile, encoded=True))
            # The version moves; the base-map bytes do not.
            assert after.version == before.version + 1
            assert after.payload is before.payload

    def test_metrics_snapshot_includes_cache_section(self, city):
        store = TileStore.build(city, tile_size=150.0)
        server = MapDistributionServer(city.copy())
        with MapService(server, store, n_workers=2) as service:
            tile = store.tiles()[0]
            service.request(GetTile(tile))
            service.request(GetTile(tile))
            snap = service.metrics.as_dict()
            assert snap["cache"]["misses"] == 1
            assert snap["cache"]["hits"] == 1
            assert snap["cache"]["resident"] == 1


def _fixture_boundaries(city, pose):
    from repro.perf.suite import _fixture_boundaries as fixture
    return fixture(city, pose)
