"""Hypothesis property tests on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.ids import ElementId
from repro.errors import StorageError
from repro.geometry.polyline import Polyline
from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle
from repro.storage.binary import BodyReader, BodyWriter

from tests.test_geometry_transform import se2_matrix
from tests.test_perf import assert_same_map

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def se2_poses(draw):
    return SE2(draw(finite), draw(finite), draw(angles))


@st.composite
def polylines(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    xs = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                 allow_nan=False), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                 allow_nan=False), min_size=n, max_size=n))
    pts = np.column_stack([xs, ys])
    seg = np.diff(pts, axis=0)
    assume(np.all(np.hypot(seg[:, 0], seg[:, 1]) > 1e-6))
    return Polyline(pts)


class TestSE2Properties:
    @given(se2_poses())
    def test_inverse_is_identity(self, pose):
        identity = pose @ pose.inverse()
        assert abs(identity.x) < 1e-6 * max(1.0, abs(pose.x), abs(pose.y))
        assert abs(wrap_angle(identity.theta)) < 1e-9

    @given(se2_poses(), se2_poses())
    def test_compose_matches_matrices(self, a, b):
        left = se2_matrix(a @ b)
        right = se2_matrix(a) @ se2_matrix(b)
        assert np.allclose(left, right, atol=1e-6)

    @given(se2_poses(), st.tuples(finite, finite))
    def test_apply_preserves_distances(self, pose, point):
        p = np.array(point)
        q = p + np.array([1.0, 2.0])
        pa, qa = pose.apply(p), pose.apply(q)
        assert np.hypot(*(qa - pa)) == pytest.approx(np.hypot(*(q - p)),
                                                     rel=1e-9)

    @given(angles)
    def test_wrap_angle_idempotent(self, a):
        w = wrap_angle(a)
        assert wrap_angle(w) == pytest.approx(w)
        assert -math.pi < w <= math.pi


class TestPolylineProperties:
    @given(polylines())
    @settings(deadline=None)
    def test_length_at_least_endpoint_distance(self, line):
        direct = float(np.hypot(*(line.end - line.start)))
        assert line.length >= direct - 1e-6

    @given(polylines(), st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None)
    def test_point_at_lies_near_line(self, line, frac):
        s = frac * line.length
        p = line.point_at(s)
        assert line.distance_to(p) < 1e-6

    @given(polylines())
    @settings(deadline=None)
    def test_reverse_preserves_length(self, line):
        assert line.reversed().length == pytest.approx(line.length, rel=1e-9)

    @given(polylines(), st.floats(min_value=0.05, max_value=1.0))
    @settings(deadline=None)
    def test_projection_of_on_line_point_roundtrips(self, line, frac):
        s = frac * line.length
        assume(0.01 < s < line.length - 0.01)
        p = line.point_at(s)
        s2, d = line.project(p)
        assert abs(d) < 1e-6
        # Station can differ on self-intersecting polylines but the point
        # must map back to the same location.
        assert np.allclose(line.point_at(s2), p, atol=1e-5)

    @given(polylines(), st.floats(min_value=1.0, max_value=50.0))
    @settings(deadline=None)
    def test_resample_preserves_endpoints_and_length(self, line, spacing):
        r = line.resample(spacing)
        assert np.allclose(r.start, line.start, atol=1e-9)
        assert np.allclose(r.end, line.end, atol=1e-9)
        assert r.length <= line.length + 1e-6

    @given(polylines(), st.floats(min_value=0.01, max_value=5.0))
    @example(Polyline([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]), 1.0)
    @settings(deadline=None)
    def test_simplify_within_tolerance(self, line, tol):
        simple = line.simplify(tol)
        # Every original vertex stays within tol of the simplified line.
        for p in line.points:
            assert simple.distance_to(p) <= tol * 1.01 + 1e-9


class TestVarintProperties:
    @given(st.integers(min_value=0, max_value=2**62))
    def test_varint_roundtrip(self, n):
        writer = BodyWriter()
        writer.varint(n)
        assert BodyReader(bytes(writer.buf)).varint() == n

    @given(st.integers(min_value=-2**61, max_value=2**61))
    def test_svarint_roundtrip(self, n):
        writer = BodyWriter()
        writer.svarint(n)
        assert BodyReader(bytes(writer.buf)).svarint() == n


class TestIdProperties:
    @given(st.sampled_from(["lane", "sign", "boundary", "x"]),
           st.integers(min_value=0, max_value=2**31))
    def test_id_parse_roundtrip(self, kind, num):
        eid = ElementId(kind, num)
        assert ElementId.parse(str(eid)) == eid


class TestBinaryCodecProperty:
    @given(st.lists(st.tuples(
        st.floats(min_value=-5e4, max_value=5e4, allow_nan=False),
        st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)),
        min_size=1, max_size=12))
    @settings(deadline=None, max_examples=30)
    def test_signs_roundtrip_through_binary(self, positions):
        from repro.core import HDMap, TrafficSign
        from repro.core.elements import SignType
        from repro.storage import decode_map, encode_map

        hdmap = HDMap("prop")
        for x, y in positions:
            hdmap.create(TrafficSign, position=np.array([x, y]),
                         sign_type=SignType.STOP)
        again = decode_map(encode_map(hdmap))
        originals = sorted(hdmap.signs(), key=lambda s: s.id)
        decoded = sorted(again.signs(), key=lambda s: s.id)
        assert len(originals) == len(decoded)
        for a, b in zip(originals, decoded):
            assert np.allclose(a.position, b.position, atol=0.006)


class TestTileBlobCanonical:
    """A stored tile blob is the canonical encoding of its decoded tile.

    ``GetTile(encoded=True)`` answers the blob as stored, with no
    re-encode; that is only the same payload a decode + ``encode_map``
    would produce because this round trip is the identity on bytes.
    """

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([100.0, 150.0, 250.0, 500.0]),
           st.sampled_from([100.0, 150.0, 200.0]))
    @settings(deadline=None, max_examples=15)
    def test_reencoding_a_tile_reproduces_its_blob(
            self, seed, blocks_x, blocks_y, tile_size, block_size):
        from repro.storage import TileStore, decode_map, encode_map
        from repro.world import generate_grid_city

        city = generate_grid_city(np.random.default_rng(seed), blocks_x,
                                  blocks_y, block_size=block_size)
        store = TileStore.build(city, tile_size=tile_size)
        assert store.tiles()
        for tile in store.tiles():
            blob = store._blobs[tile]
            assert encode_map(decode_map(blob)) == blob

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([100.0, 250.0]),
           st.sampled_from([100.0, 150.0]))
    @settings(deadline=None, max_examples=10)
    def test_every_tile_decodes_and_encodes_like_the_frozen_twin(
            self, seed, blocks, tile_size, block_size):
        from repro.perf import reference
        from repro.storage import TileStore, decode_map, encode_map
        from repro.world import generate_grid_city

        city = generate_grid_city(np.random.default_rng(seed), blocks, 1,
                                  block_size=block_size)
        store = TileStore.build(city, tile_size=tile_size)
        for tile in store.tiles():
            blob = store._blobs[tile]
            shard = decode_map(blob)
            assert_same_map(shard, reference.decode_map_reference(blob))
            assert reference.encode_map_reference(shard) == blob
            assert encode_map(shard) == blob

    @given(st.lists(st.lists(st.tuples(finite, finite), min_size=2,
                             max_size=9), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=60)
    def test_arbitrary_polylines_match_the_frozen_twin(self, lines):
        from repro.core import HDMap
        from repro.core.elements import StopLine
        from repro.errors import GeometryError
        from repro.perf import reference
        from repro.storage import decode_map, encode_map

        hdmap = HDMap("prop")
        for vertices in lines:
            try:
                line = Polyline(np.array(vertices))
            except GeometryError:
                continue  # all vertices equal
            # spans over the index's cell ceiling are not a map
            x0, y0, x1, y1 = line.bounds()
            if max(x1 - x0, y1 - y0) < 2e4:
                hdmap.create(StopLine, line=line)
        blob = encode_map(hdmap)
        assert blob == reference.encode_map_reference(hdmap)
        try:
            want = reference.decode_map_reference(blob)
        except GeometryError:
            # distinct vertices that all quantise to one centimetre: the
            # twin lets Polyline's error out, the live reader wraps it
            with pytest.raises(StorageError):
                decode_map(blob)
            return
        assert_same_map(decode_map(blob), want)
