"""Tile pack store and binary delta sync: format, serving, cluster.

Covers the pack file round trip (publish atomicity, supersede,
compaction byte-identity, corruption → PackError), zero-copy serving
through MapService and the raw RPC frame, cluster pack-backed shards,
and SyncDelta ↔ wire round-trip properties.
"""

import os
import pickle
import socket
import threading

import numpy as np
import pytest

from repro.core import MapPatch, SignType, TrafficSign
from repro.core.changes import ChangeType, MapChange
from repro.core.ids import ElementId
from repro.core.tiles import TileId
from repro.errors import PackError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.pack import (
    PackReader,
    PackWriter,
    compact_pack,
    decode_delta,
    encode_delta,
)
from repro.serve.api import GetTile, IngestPatch, Response, Status
from repro.serve.service import MapService
from repro.storage import TileStore
from repro.storage.tilestore import StreamingMap
from repro.update.distribution import (
    MapDistributionServer,
    SyncDelta,
    VehicleMapClient,
)


@pytest.fixture(scope="module")
def city_store(city):
    return TileStore.build(city, tile_size=250.0)


@pytest.fixture
def pack_path(city_store, tmp_path):
    path = tmp_path / "city.pack"
    city_store.to_pack(str(path))
    return str(path)


@pytest.fixture
def packed(pack_path):
    """A pack-backed store over ``pack_path``, closed after the test."""
    store = TileStore.from_pack(pack_path)
    yield store
    store.pack_reader.close()


def write_pack(path, payloads, tile_size=0.0):
    """Write and publish a pack of ``(tile, blob)`` entries."""
    with PackWriter(path, tile_size=tile_size) as writer:
        for tile, payload in payloads:
            writer.add(tile, payload)
        return writer.publish()


class TestPackFormat:
    def test_roundtrip_byte_identical(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            assert reader.tiles() == city_store.tiles()
            for tile in city_store.tiles():
                assert bytes(reader.get(tile)) == city_store._blobs[tile]

    def test_get_is_zero_copy(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            view = reader.get(city_store.tiles()[0])
            assert isinstance(view, memoryview)
            assert view.obj is reader.buffer.obj  # a slice of the mmap

    def test_missing_tile_is_none(self, pack_path):
        with PackReader(pack_path) as reader:
            assert reader.get(TileId(999, 999)) is None
            assert reader.load(TileId(999, 999)) is None

    def test_lazy_decode(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            assert reader.decodes.value == 0
            shard = reader.load(city_store.tiles()[0])
            assert len(shard) > 0
            assert reader.decodes.value == 1

    def test_empty_payload_rejected(self, tmp_path):
        with PackWriter(str(tmp_path / "e.pack")) as writer:
            with pytest.raises(PackError):
                writer.add(TileId(0, 0), b"")

    def test_unpublished_adds_invisible(self, city_store, tmp_path):
        path = tmp_path / "u.pack"
        tiles = city_store.tiles()
        with PackWriter(str(path), tile_size=250.0) as writer:
            writer.add(tiles[0], city_store._blobs[tiles[0]])
            writer.publish()
            writer.add(tiles[1], city_store._blobs[tiles[1]])
            # no publish for the second tile
        with PackReader(str(path)) as reader:
            assert reader.tiles() == [tiles[0]]

    def test_reopen_appends_without_clobbering(self, city_store, tmp_path):
        path = str(tmp_path / "r.pack")
        tiles = city_store.tiles()
        write_pack(path, [(tiles[0], city_store._blobs[tiles[0]])],
                   tile_size=250.0)
        with PackReader(path) as old_reader:  # holds the first directory
            with PackWriter(path) as writer:
                writer.add(tiles[1], city_store._blobs[tiles[1]])
                writer.publish()
            # the old reader's view stays byte-identical after the append
            assert bytes(old_reader.get(tiles[0])) \
                == city_store._blobs[tiles[0]]
        with PackReader(path) as reader:
            assert reader.tiles() == sorted(tiles[:2])
            for tile in tiles[:2]:
                assert bytes(reader.get(tile)) == city_store._blobs[tile]

    def test_supersede_creates_garbage(self, city_store, tmp_path):
        path = str(tmp_path / "s.pack")
        tile = city_store.tiles()[0]
        blob = city_store._blobs[tile]
        write_pack(path, [(tile, blob)], tile_size=250.0)
        with PackWriter(path) as writer:
            writer.add(tile, blob, version=2)
            writer.publish()
        with PackReader(path) as reader:
            assert reader.entry(tile).version == 2
            assert reader.garbage_bytes >= len(blob)

    def test_garbage_ratio_warns_once_at_open(self, city_store, tmp_path):
        from repro.obs.log import EVENT_LOG

        path = str(tmp_path / "g.pack")
        tile = city_store.tiles()[0]
        blob = city_store._blobs[tile]
        write_pack(path, [(tile, blob)], tile_size=250.0)
        for version in (2, 3, 4):  # three superseded copies: mostly garbage
            with PackWriter(path) as writer:
                writer.add(tile, blob, version=version)
                writer.publish()

        def warnings():
            return [e for e in EVENT_LOG.events()
                    if e.get("event") == "pack_garbage_large"]

        EVENT_LOG.clear()
        with PackReader(path) as reader:
            assert reader.garbage_bytes >= 3 * len(blob)
            assert len(warnings()) == 1  # warned at open, not per access
            bytes(reader.get(tile))
            assert len(warnings()) == 1
            event = warnings()[0]
            assert event["garbage_bytes"] >= 3 * len(blob)
            assert event["ratio"] >= event["threshold"]

        EVENT_LOG.clear()
        fresh = str(tmp_path / "fresh.pack")
        write_pack(fresh, [(tile, blob)], tile_size=250.0)
        with PackReader(fresh):
            assert warnings() == []  # garbage-free pack stays quiet

    def test_compaction_byte_identity(self, city_store, pack_path, tmp_path):
        tile = city_store.tiles()[0]
        with PackWriter(pack_path) as writer:  # supersede one tile
            writer.add(tile, city_store._blobs[tile], version=3)
            writer.publish()
        dst = str(tmp_path / "compacted.pack")
        with PackReader(pack_path) as before:
            reclaimed = compact_pack(pack_path, dst)
            assert reclaimed > 0
            with PackReader(dst) as after:
                for t in after.tiles():
                    after.verify(t)
                assert after.garbage_bytes == 0
                assert after.tiles() == before.tiles()
                for t in before.tiles():
                    assert bytes(after.get(t)) == bytes(before.get(t))
                    assert after.entry(t).version == before.entry(t).version

    def test_compact_same_path_rejected(self, pack_path):
        with pytest.raises(PackError):
            compact_pack(pack_path, pack_path)

    def test_checksum_corruption_detected(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            entry = reader.entry(city_store.tiles()[0])
        with open(pack_path, "r+b") as fh:  # flip one payload byte
            fh.seek(entry.offset + entry.length // 2)
            byte = fh.read(1)
            fh.seek(entry.offset + entry.length // 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with PackReader(pack_path) as reader:  # lazy open is fine ...
            with pytest.raises(PackError):  # ... until the tile is verified
                reader.verify(entry.tile)
            assert reader.checksum_failures.value == 1

    def test_truncation_raises_pack_error(self, pack_path, tmp_path):
        with open(pack_path, "rb") as fh:
            data = fh.read()
        clipped = tmp_path / "clipped.pack"
        # clip at the header, inside the payload region, and inside the
        # directory — every section boundary must fail cleanly.
        for cut in (0, 10, 63, 64, len(data) // 2, len(data) - 7):
            clipped.write_bytes(data[:cut])
            with pytest.raises(PackError):
                PackReader(str(clipped))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pack"
        path.write_bytes(b"NOPE" + b"\x00" * 96)
        with pytest.raises(PackError, match="magic"):
            PackReader(str(path))

    def test_directory_crc_guard(self, pack_path):
        with PackReader(pack_path) as reader:
            dir_off = reader._dir_off
        with open(pack_path, "r+b") as fh:
            fh.seek(dir_off + 3)
            byte = fh.read(1)
            fh.seek(dir_off + 3)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PackError, match="directory"):
            PackReader(pack_path)

    def test_element_accounting(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            total = sum(len(city_store.load_tile(t))
                        for t in city_store.tiles())
            assert reader.total_elements == total

    def test_metrics_registration(self, pack_path):
        registry = MetricsRegistry()
        with PackReader(pack_path) as reader:
            reader.get(reader.tiles()[0])
            reader.register_into(registry)
            snap = registry.snapshot()
        assert snap["pack.reads"] == 1
        assert snap["pack.tiles"] == len(reader)
        assert snap["pack.garbage_bytes"] == 0
        assert snap["pack.elements"] == reader.total_elements


class TestTileStorePackMode:
    def test_parity_with_dict_store(self, city_store, packed):
        assert packed.pack_backed
        assert packed.scheme.tile_size == city_store.scheme.tile_size
        assert packed.tiles() == city_store.tiles()
        assert packed.total_bytes() == city_store.total_bytes()
        assert packed.largest_tile() == city_store.largest_tile()
        for tile in city_store.tiles():
            assert packed.blob_bytes(tile) == city_store.blob_bytes(tile)
            a = city_store.load_tile(tile)
            b = packed.load_tile(tile)
            assert sorted(e.id for e in a.elements()) \
                == sorted(e.id for e in b.elements())

    def test_encoded_view_only_when_packed(self, city_store, packed):
        tile = city_store.tiles()[0]
        view = packed.encoded_view(tile)
        assert isinstance(view, memoryview)
        assert bytes(view) == city_store._blobs[tile]
        # a dict-backed store hands out the stored blob itself, no view
        assert city_store.encoded_view(tile) is city_store._blobs[tile]
        assert city_store.encoded_view(TileId(99, 99)) is None

    def test_visible_subset(self, city_store, pack_path):
        subset = city_store.tiles()[:2]
        packed = TileStore.from_pack(pack_path, tiles=subset)
        assert packed.tiles() == subset
        hidden = city_store.tiles()[-1]
        assert packed.load_tile(hidden) is None
        assert packed.encoded_view(hidden) is None
        assert packed.blob_bytes(hidden) == 0
        packed.pack_reader.close()

    def test_streaming_map_over_pack(self, packed):
        streaming = StreamingMap(packed, max_tiles=3)
        found = streaming.elements_in_radius(200.0, 200.0, 150.0)
        assert found
        assert streaming.resident_bytes() > 0

    def test_no_tile_size_anywhere_rejected(self, city_store, tmp_path):
        path = str(tmp_path / "n.pack")
        tile = city_store.tiles()[0]
        write_pack(path, [(tile, city_store._blobs[tile])])  # tile_size 0
        with pytest.raises(StorageError):
            TileStore.from_pack(path)
        store = TileStore.from_pack(path, tile_size=250.0)
        assert store.tiles() == [tile]
        store.pack_reader.close()

    def test_rejected_open_leaves_no_fd(self, city_store, tmp_path,
                                        open_fds):
        path = os.path.realpath(str(tmp_path / "n.pack"))
        tile = city_store.tiles()[0]
        write_pack(path, [(tile, city_store._blobs[tile])])  # tile_size 0
        with pytest.raises(StorageError) as rejected:
            TileStore.from_pack(path)
        # the held traceback still references the reader; its file
        # descriptors must be closed all the same
        assert "tile size" in str(rejected.value)
        assert open_fds(path) == []


class TestPackServing:
    def test_encoded_gettile_is_mmap_slice(self, city, city_store, packed):
        server = MapDistributionServer(city.copy())
        with MapService(server, packed, n_workers=2) as service:
            tile = city_store.tiles()[0]
            response = service.request(GetTile(tile=tile, encoded=True))
            assert response.ok
            assert isinstance(response.payload, memoryview)
            assert response.payload.obj is packed.pack_reader.buffer.obj
            assert bytes(response.payload) == city_store._blobs[tile]
            missing = service.request(GetTile(tile=TileId(99, 99),
                                              encoded=True))
            assert missing.ok and missing.payload is None

    def test_encoded_gettile_is_stored_blob_on_both_backends(
            self, city, city_store, packed):
        """Dict- and pack-backed services answer the same bytes — the
        stored blob — before and after a version bump, cache untouched."""
        for store in (city_store, packed):
            working = city.copy()
            server = MapDistributionServer(working)
            with MapService(server, store, n_workers=1) as service:
                for bump in (False, True):
                    if bump:
                        patch = MapPatch(source="probe", confidence=0.9)
                        patch.add(TrafficSign(
                            id=working.new_id("pk-sign"),
                            position=np.array([5.0, 5.0]),
                            sign_type=SignType.STOP))
                        assert service.request(IngestPatch(patch=patch)).ok
                    for tile in city_store.tiles():
                        response = service.request(
                            GetTile(tile=tile, encoded=True))
                        assert response.ok
                        assert response.version == int(bump)
                        assert bytes(response.payload) \
                            == city_store._blobs[tile]
                assert service.cache.hits.value == 0
                assert service.cache.misses.value == 0

    def test_decoded_gettile_still_served(self, city, packed):
        server = MapDistributionServer(city.copy())
        with MapService(server, packed, n_workers=1) as service:
            response = service.request(GetTile(tile=packed.tiles()[0]))
            assert response.ok and len(response.payload) > 0

class TestRawRpcFrames:
    def _serve(self, dispatch):
        ours, theirs = socket.socketpair()
        from repro.cluster.rpc import PipelinedConnection, serve_connection

        def serve():
            with theirs:  # the shard end closes once the loop returns
                serve_connection(theirs, dispatch)

        threading.Thread(target=serve, daemon=True).start()
        return PipelinedConnection(ours)

    def test_raw_response_roundtrip(self, city_store, pack_path):
        with PackReader(pack_path) as reader:
            tile = city_store.tiles()[0]
            view = reader.get(tile)

            def dispatch(op, payload):
                return Response(Status.OK, payload=view, version=7,
                                latency_s=0.125)

            conn = self._serve(dispatch)
            response = conn.call("tile")
            assert isinstance(response, Response)
            assert bytes(response.payload) == bytes(view)
            assert response.version == 7
            assert response.latency_s == pytest.approx(0.125)
            conn.call("shutdown")
            conn.close()

    def test_pickle_frames_unchanged(self):
        def dispatch(op, payload):
            if op == "echo":
                return {"payload": payload}
            raise ValueError("kaboom")

        conn = self._serve(dispatch)
        assert conn.call("echo", [1, 2]) == {"payload": [1, 2]}
        from repro.cluster.rpc import RpcError

        with pytest.raises(RpcError, match="kaboom"):
            conn.call("other")
        conn.call("shutdown")
        conn.close()

    def test_error_response_not_raw(self):
        # an ERROR Response has no bytes payload: it must travel pickled
        def dispatch(op, payload):
            return Response(Status.ERROR, error="nope")

        conn = self._serve(dispatch)
        response = conn.call("any")
        assert response.status is Status.ERROR and response.error == "nope"
        conn.call("shutdown")
        conn.close()


class TestClusterPack:
    def test_pack_backed_cluster_parity(self, city, city_store, tmp_path):
        from repro.cluster.router import ClusterRouter

        pack = str(tmp_path / "cluster.pack")
        with ClusterRouter(city, n_shards=2, tile_size=250.0,
                           transport="local", pack_path=pack) as router:
            for tile in city_store.tiles():
                response = router.request(GetTile(tile=tile, encoded=True))
                assert response.ok
                assert bytes(response.payload) == city_store._blobs[tile]

    def test_journal_gauge_and_warning(self, city, tmp_path, monkeypatch):
        from repro.cluster.router import ClusterRouter
        from repro.obs.log import EVENT_LOG

        EVENT_LOG.clear()
        monkeypatch.setattr(ClusterRouter, "JOURNAL_WARN_ENTRIES", 2)
        with ClusterRouter(city, n_shards=1, tile_size=250.0,
                           transport="local") as router:
            working = city.copy()
            for i in range(3):
                patch = MapPatch(source=f"w{i}", confidence=0.9)
                patch.add(TrafficSign(
                    id=working.new_id(f"jr{i}-sign"),
                    position=np.array([12.0 + i, 8.0]),
                    sign_type=SignType.STOP))
                assert router.request(IngestPatch(patch=patch)).ok
            assert router.journal_gauge.value == 3
            warnings = [e for e in EVENT_LOG.events()
                        if e.get("event") == "journal_large"]
            assert len(warnings) == 1  # warned once, not per append
            registry = MetricsRegistry()
            router.register_into(registry)
            assert registry.snapshot()["cluster.journal.entries"] == 3


def _rng_delta(rng: np.random.Generator, n_changes: int,
               removals_only: bool = False) -> SyncDelta:
    shapes = [ChangeType.REMOVED] if removals_only else list(ChangeType)
    changes, elements = [], {}
    for i in range(n_changes):
        kind = ["lane", "marking", "sign"][int(rng.integers(3))]
        eid = ElementId(kind, int(rng.integers(1, 500)))
        ct = shapes[int(rng.integers(len(shapes)))]
        x, y = (round(float(v), 2)
                for v in rng.uniform(-5000, 5000, size=2))
        changes.append(MapChange(
            ct, eid, (x, y),
            magnitude=float(np.float32(rng.uniform(0, 3)))
            if ct is ChangeType.MOVED else 0.0,
            detail=f"probe-{i}"))
        if ct is ChangeType.REMOVED:
            elements[eid] = None
        else:
            elements[eid] = TrafficSign(
                id=ElementId("sign", eid.num),
                position=np.array([x, y]), sign_type=SignType.STOP)
    return SyncDelta(int(rng.integers(1, 10_000)), changes, elements)


class TestDeltaWire:
    def test_empty_delta(self):
        delta = SyncDelta(42, [], {})
        back = decode_delta(encode_delta(delta))
        assert back.version == 42
        assert back.changes == [] and back.elements == {}

    def test_removals_only(self, rng):
        delta = _rng_delta(rng, 8, removals_only=True)
        back = decode_delta(encode_delta(delta))
        assert back.version == delta.version
        assert all(v is None for v in back.elements.values())
        assert [c.element_id for c in back.changes] \
            == [c.element_id for c in delta.changes]

    def test_mixed_roundtrip_property(self, rng):
        for trial in range(10):
            delta = _rng_delta(rng, int(rng.integers(1, 30)))
            back = decode_delta(encode_delta(delta))
            assert back.version == delta.version
            assert len(back.changes) == len(delta.changes)
            for a, b in zip(delta.changes, back.changes):
                assert (a.change_type, a.element_id, a.detail) \
                    == (b.change_type, b.element_id, b.detail)
                assert a.position[0] == pytest.approx(b.position[0],
                                                      abs=0.011)
                assert a.position[1] == pytest.approx(b.position[1],
                                                      abs=0.011)
                if a.change_type is ChangeType.MOVED:
                    assert a.magnitude == pytest.approx(b.magnitude,
                                                        rel=1e-6)
            assert set(back.elements) == set(delta.elements)
            for eid, element in delta.elements.items():
                got = back.elements[eid]
                assert (got is None) == (element is None)
                if element is not None:
                    assert got.id == element.id

    def test_wire_much_smaller_than_pickle(self, rng):
        delta = _rng_delta(rng, 25)
        wire = encode_delta(delta)
        pickled = pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(wire) <= 0.25 * len(pickled)

    def test_truncation_every_boundary(self, rng):
        blob = encode_delta(_rng_delta(rng, 5))
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                decode_delta(blob[:cut])

    def test_bad_magic_and_version(self, rng):
        blob = encode_delta(SyncDelta(1, [], {}))
        with pytest.raises(StorageError, match="magic"):
            decode_delta(b"XXXX" + blob[4:])
        with pytest.raises(StorageError, match="version"):
            decode_delta(blob[:4] + b"\x63" + blob[5:])

    def test_corrupt_body(self, rng):
        blob = bytearray(encode_delta(_rng_delta(rng, 5)))
        blob[12] ^= 0xFF  # inside the zlib payload
        with pytest.raises(StorageError):
            decode_delta(bytes(blob))


class TestVehicleClientWire:
    def test_wire_sync_applies_and_counts_real_bytes(self, city):
        working = city.copy()
        server = MapDistributionServer(working)
        plain = VehicleMapClient(server)
        wired = VehicleMapClient(server, wire=True)
        plain.bytes_downloaded = wired.bytes_downloaded = 0
        patch = MapPatch(source="probe", confidence=0.9)
        patch.add(TrafficSign(id=working.new_id("wr-sign"),
                              position=np.array([6.0, 6.0]),
                              sign_type=SignType.STOP))
        server.ingest(patch)
        assert plain.sync() == 1 and wired.sync() == 1
        assert wired.is_consistent() and plain.is_consistent()
        assert 0 < wired.bytes_downloaded < 1000
