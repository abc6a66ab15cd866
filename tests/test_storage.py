"""Serialization round trips and storage accounting."""

import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.core import HDMap, Lane, LaneBoundary, RuleType, TrafficSign
from repro.core.elements import SignType
from repro.core.ids import ElementId
from repro.core.tiles import TileId
from repro.errors import StorageError
from repro.geometry.polyline import Polyline, straight
from repro.storage import (
    TileStore,
    build_pointcloud_map,
    decode_map,
    encode_map,
    load_map,
    map_from_dict,
    map_to_dict,
    save_map,
    storage_report,
)
from repro.storage.binary import (
    MAGIC,
    VERSION,
    BodyReader,
    BodyWriter,
    element_count,
)
from repro.storage.pointcloud import PointCloudMap
from tests.conftest import add_rule


class TestGeoJson:
    def test_roundtrip_all_kinds(self, highway):
        data = map_to_dict(highway)
        again = map_from_dict(data)
        assert len(again) == len(highway)
        assert again.counts_by_kind() == highway.counts_by_kind()

    def test_roundtrip_regulatory(self):
        hdmap = HDMap("r")
        lane = hdmap.create(Lane, centerline=straight([0, 0], [50, 0]))
        add_rule(hdmap, rule_type=RuleType.SPEED_LIMIT,
                                lanes=[lane.id], value=8.33)
        again = map_from_dict(map_to_dict(hdmap))
        rule = next(iter(again.regulatory_elements()))
        assert rule.value == pytest.approx(8.33)
        assert rule.lanes == [lane.id]

    def test_lane_references_preserved(self, highway):
        again = map_from_dict(map_to_dict(highway))
        for lane in again.lanes():
            if lane.left_boundary is not None:
                assert lane.left_boundary in again

    def test_coordinates_within_tolerance(self, highway):
        again = map_from_dict(map_to_dict(highway))
        lane = next(iter(highway.lanes()))
        lane2 = again.get(lane.id)
        err = np.abs(lane.centerline.points - lane2.centerline.points).max()
        assert err < 1e-3  # 4-decimal rounding

    def test_rejects_wrong_document(self):
        with pytest.raises(StorageError):
            map_from_dict({"type": "nope"})

    def test_rejects_wrong_version(self, highway):
        data = map_to_dict(highway)
        data["format_version"] = 999
        with pytest.raises(StorageError):
            map_from_dict(data)

    def test_save_load_file(self, highway, tmp_path):
        path = tmp_path / "map.json"
        n = save_map(highway, path)
        assert n == path.stat().st_size
        again = load_map(path)
        assert len(again) == len(highway)


class TestBinary:
    def test_varint_roundtrip(self):
        for value in [0, 1, 127, 128, 300, 2**20, 2**40]:
            writer = BodyWriter()
            writer.varint(value)
            assert BodyReader(bytes(writer.buf)).varint() == value

    def test_roundtrip_counts(self, highway):
        blob = encode_map(highway)
        again = decode_map(blob)
        assert again.counts_by_kind() == highway.counts_by_kind()

    def test_roundtrip_city(self, city):
        again = decode_map(encode_map(city))
        assert again.counts_by_kind() == city.counts_by_kind()

    def test_centimetre_precision(self, highway):
        again = decode_map(encode_map(highway))
        lane = next(iter(highway.lanes()))
        err = np.abs(lane.centerline.points
                     - again.get(lane.id).centerline.points).max()
        assert err <= 0.0051

    def test_sign_attributes_roundtrip(self):
        hdmap = HDMap("s")
        hdmap.create(TrafficSign, position=np.array([3.0, 4.0]),
                     sign_type=SignType.SPEED_LIMIT, value=22.22,
                     facing=1.25)
        again = decode_map(encode_map(hdmap))
        sign = next(iter(again.signs()))
        assert sign.value == pytest.approx(22.22, rel=1e-5)
        assert sign.sign_type is SignType.SPEED_LIMIT

    def test_binary_much_smaller_than_json(self, highway):
        import json

        json_bytes = len(json.dumps(map_to_dict(highway)).encode())
        bin_bytes = len(encode_map(highway))
        assert bin_bytes < json_bytes / 4

    def test_simplification_shrinks(self, highway):
        exact = len(encode_map(highway))
        lossy = len(encode_map(highway, simplify_tolerance=0.1))
        assert lossy < exact

    def test_simplification_keeps_closed_boundary(self):
        # A closed kerb smaller than the tolerance used to collapse to its
        # two coincident endpoints and fail the whole encode.
        hdmap = HDMap("island")
        kerb = hdmap.create(LaneBoundary, line=Polyline(
            [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5], [0.0, 0.0]]))
        again = decode_map(encode_map(hdmap, simplify_tolerance=1.0))
        line = again.get(kerb.id).line
        assert len(line) == 3 and np.allclose(line.start, line.end)

    def test_bad_magic(self):
        with pytest.raises(StorageError):
            decode_map(b"XXXX" + b"\x00" * 16)


class TestDecodeHardening:
    """decode_map must raise StorageError — never a raw struct.error /
    zlib.error / IndexError — on any truncated or corrupt input."""

    @pytest.fixture(scope="class")
    def blob(self):
        hdmap = HDMap("tiny")
        lane = hdmap.create(Lane, centerline=straight([0, 0], [40, 0]))
        hdmap.create(TrafficSign, position=np.array([10.0, 3.0]),
                     sign_type=SignType.STOP)
        add_rule(hdmap, rule_type=RuleType.SPEED_LIMIT,
                                lanes=[lane.id], value=13.9)
        return encode_map(hdmap)

    def test_truncation_at_every_boundary(self, blob):
        # every prefix: header cuts, payload-length cuts, body cuts
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                decode_map(blob[:cut])

    def test_corrupt_zlib_payload(self, blob):
        for offset in (9, 9 + (len(blob) - 9) // 2, len(blob) - 1):
            broken = bytearray(blob)
            broken[offset] ^= 0xFF
            with pytest.raises(StorageError):
                decode_map(bytes(broken))

    def test_unsupported_version(self, blob):
        broken = blob[:4] + b"\x63" + blob[5:]
        with pytest.raises(StorageError, match="version"):
            decode_map(broken)

    def test_accepts_buffer_input(self, blob):
        again = decode_map(memoryview(blob))
        assert len(again) == 3

    def test_declared_length_past_eof(self, blob):
        import struct

        header = blob[:4] + struct.pack("<BI", blob[4], len(blob) * 2)
        with pytest.raises(StorageError, match="truncated"):
            decode_map(header + blob[9:])


def _hostile_blob(write_records, n_elements=1) -> bytes:
    """A well-framed HDMV blob whose element records ``write_records``
    writes by hand — what a flipped bit inside the body looks like."""
    body = BodyWriter()
    body.string("hostile")
    body.varint(0)
    body.kind_table(["boundary", "lane", "node", "stopline"])
    body.varint(n_elements)
    write_records(body)
    return body.seal(MAGIC, VERSION, level=1)


def _node_record(body: BodyWriter, num: int) -> None:
    body.append(1)  # Node tag
    body.id(ElementId("node", num))
    body.point(np.array([5.0, 5.0]))


class TestHostileBodies:
    """Corruption *inside* the inflated body (where zlib cannot help)
    still ends in StorageError, before anything is allocated from it."""

    def test_varint_longer_than_ten_bytes(self):
        with pytest.raises(StorageError, match="varint"):
            BodyReader(b"\xff" * 10 + b"\x01").varint()
        assert BodyReader(b"\xff" * 9 + b"\x01").varint() == 2**64 - 1
        blob = _hostile_blob(lambda body: body.buf.extend(
            b"\x01\x03" + b"\xff" * 11))  # node id number never ends
        with pytest.raises(StorageError):
            decode_map(blob)

    def test_counts_are_checked_against_bytes_remaining(self):
        def huge_polyline(body):
            body.append(10)  # StopLine tag
            body.id(ElementId("stopline", 1))
            body.varint(2**40)  # points promised, none delivered
        with pytest.raises(StorageError, match="exceeds"):
            decode_map(_hostile_blob(huge_polyline))
        with pytest.raises(StorageError, match="exceeds"):
            decode_map(_hostile_blob(lambda body: None, n_elements=2**50))
        with pytest.raises(StorageError, match="exceeds"):
            BodyReader(b"\x09abc").string()  # 9 bytes promised, 3 left
        with pytest.raises(StorageError, match="exceeds"):
            BodyReader(b"\x7f\x00").id_list()

    def test_duplicate_id_is_a_storage_error(self):
        def twice(body):
            _node_record(body, 7)
            _node_record(body, 7)
        with pytest.raises(StorageError, match="duplicate"):
            decode_map(_hostile_blob(twice, n_elements=2))

    def test_corrupt_lane_width_is_a_storage_error(self):
        def lane(body):
            body.append(3)  # Lane tag
            body.id(ElementId("lane", 1))
            body.append(0)
            body.f32(-1e30)  # width: bounds come out inverted
            body.f32(13.9)
            for _ in range(3):
                body.id(None)
            body.polyline(straight([0, 0], [40, 0]))
        with pytest.raises(StorageError, match="bounds"):
            decode_map(_hostile_blob(lane))

    def test_far_flung_bounds_do_not_enumerate_cells(self):
        def stop_line(body):
            body.append(10)
            body.id(ElementId("stopline", 1))
            body.polyline(Polyline([[0.0, 0.0], [4e13, 4e13]]))
        with pytest.raises(StorageError, match="cells"):
            decode_map(_hostile_blob(stop_line))

    def test_degenerate_polyline_is_a_storage_error(self):
        def one_point(body):
            body.append(10)
            body.id(ElementId("stopline", 1))
            body.buf.extend(b"\x01\x02\x02")  # one vertex
        with pytest.raises(StorageError, match="two vertices"):
            decode_map(_hostile_blob(one_point))

    @pytest.mark.parametrize("codec", ["hdmv", "hddl"])
    def test_mutation_fuzz_value_or_storage_error(self, codec):
        """>= 1000 seeded flips / splices / truncations of inflated
        bodies, in a child under RLIMIT_AS (see tests/body_fuzz.py)."""
        pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "tests.body_fuzz", codec,
             "--cases", "1200", "--seed", "20"],
            cwd=root, env=env, capture_output=True, text=True, timeout=600)
        assert proc.stdout.strip(), \
            f"fuzz child died (exit {proc.returncode}): {proc.stderr[-2000:]}"
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["escapes"] == []
        assert proc.returncode == 0
        assert report["cases"] >= 1000
        # both allowed outcomes actually occur
        assert report["decoded"] > 50 and report["rejected"] > 50


class TestElementCount:
    def test_matches_full_decode(self, highway):
        store = TileStore.build(highway, tile_size=500.0)
        for tile in store.tiles():
            blob = store.encoded_view(tile)
            assert element_count(blob) == len(decode_map(blob))
            assert element_count(memoryview(blob)) == element_count(blob)

    def test_honours_the_declared_payload_length(self, highway):
        blob = encode_map(highway)
        assert element_count(blob + b"trailing junk") == len(highway)

    def test_corrupt_blob_is_a_storage_error(self, highway):
        blob = encode_map(highway)
        for bad in (b"", blob[:7], b"XXXX" + blob[4:], blob[:40],
                    blob[:9] + bytes(len(blob) - 9)):
            with pytest.raises(StorageError):
                element_count(bad)
        cut_body = zlib.decompress(blob[9:])[:3]
        payload = zlib.compress(cut_body)
        with pytest.raises(StorageError):
            element_count(blob[:5] + len(payload).to_bytes(4, "little")
                          + payload)

    def test_to_pack_raises_storage_error_on_a_corrupt_blob(self, tmp_path):
        store = TileStore.from_blobs({TileId(0, 0): b"HDMV\x01\x04\0\0\0oops"})
        with pytest.raises(StorageError):
            store.to_pack(str(tmp_path / "bad.pack"))


class TestPointCloud:
    def test_cloud_density_scales_with_area(self, highway, rng):
        sparse = build_pointcloud_map(highway, rng, points_per_m2=5.0)
        dense = build_pointcloud_map(highway, rng, points_per_m2=20.0)
        assert dense.n_points > 3 * sparse.n_points

    def test_bytes_roundtrip(self, rng):
        cloud = PointCloudMap(
            points=rng.normal(size=(100, 3)).astype(np.float32),
            intensity=rng.integers(0, 255, 100).astype(np.uint8))
        again = PointCloudMap.from_bytes(cloud.to_bytes())
        assert again.n_points == 100
        assert np.allclose(again.points, cloud.points)

class TestStorageReport:
    def test_ordering_matches_survey(self, highway, rng):
        report = storage_report(highway, rng)
        # Point cloud >> GeoJSON > binary > simplified binary.
        assert report.pointcloud_bytes > 50 * report.geojson_bytes
        assert report.geojson_bytes > report.binary_bytes
        assert report.binary_bytes >= report.binary_simplified_bytes
        assert report.reduction_factor > 100.0

    def test_pointcloud_per_mile_in_survey_band(self, highway, rng):
        report = storage_report(highway, rng)
        # Pannen et al.: ~10 MB/mile. Ours should be the same order.
        assert 1e6 < report.pointcloud_per_mile < 1e8
