"""S7 — Pack store: zero-copy tile serving and binary delta sync.

The survey's distribution story (Li et al.'s vector compaction,
~10 MB/mile → ~100 KB/mile) only matters at serving time if the stack
ships those compact bytes without re-materializing objects per request.
This bench gates the :mod:`repro.pack` claims end-to-end:

- **parity** — a pack-backed :class:`TileStore` serves payloads
  byte-identical to the dict-backed store it was written from;
- **zero copy** — an encoded ``GetTile`` answered from a pack-backed
  :class:`MapService` is a ``memoryview`` slice of the pack mmap (its
  throughput is reported, not gated);
- **lazy cold start** — opening a replicated ~1M-element pack plus one
  tile decode costs exactly one decode (no hidden full-map decode);
- **delta wire** — ``ChangesSince`` shipped through
  :func:`repro.pack.encode_delta` is at most 25% of the pickled
  :class:`SyncDelta`.
"""

import os
import pickle
import time

import numpy as np
from conftest import once

from repro.core import MapPatch, SignType, TrafficSign
from repro.core.tiles import TileId
from repro.pack import PackReader, PackWriter, encode_delta
from repro.serve.api import GetTile
from repro.serve.service import MapService
from repro.storage import TileStore
from repro.storage.binary import element_count
from repro.update.distribution import MapDistributionServer
from repro.eval import ResultTable
from repro.world import generate_grid_city

_SEED = 7
_REQUESTS = 200
_TARGET_ELEMENTS = 1_000_000


def _throughput(service: MapService, tiles) -> float:
    t0 = time.perf_counter()
    for i in range(_REQUESTS):
        response = service.request(
            GetTile(tile=tiles[i % len(tiles)], encoded=True))
        assert response.ok
    return _REQUESTS / (time.perf_counter() - t0)


def _experiment(tmp_path):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    store = TileStore.build(city, tile_size=250.0)
    tiles = store.tiles()
    pack_path = str(tmp_path / "city.pack")
    store.to_pack(pack_path)
    packed = TileStore.from_pack(pack_path)

    parity = all(bytes(packed.encoded_view(t)) == store._blobs[t]
                 for t in tiles)

    server = MapDistributionServer(city.copy())
    with MapService(server, packed, n_workers=1) as service:
        pack_tps = _throughput(service, tiles)
        response = service.request(GetTile(tile=tiles[0], encoded=True))
        zero_copy = isinstance(response.payload, memoryview) \
            and response.payload.obj is packed.pack_reader.buffer.obj

    # replicate the heaviest blob until the directory holds >= 1M elements
    blob = store._blobs[max(tiles, key=store.blob_bytes)]
    per_blob = max(1, element_count(blob))
    big_path = str(tmp_path / "big.pack")
    with PackWriter(big_path, tile_size=250.0) as writer:
        for i in range(-(-_TARGET_ELEMENTS // per_blob)):
            writer.add(TileId(i % 4096, i // 4096), blob,
                       n_elements=per_blob)
        writer.publish()
    t0 = time.perf_counter()
    reader = PackReader(big_path)
    shard = reader.load(reader.tiles()[0])
    cold_start_s = time.perf_counter() - t0
    cold_elements = reader.total_elements
    cold_decodes = int(reader.decodes.value)
    assert shard is not None
    pack_mb = os.path.getsize(big_path) / 1e6
    reader.close()

    working = city.copy()
    delta_server = MapDistributionServer(working)
    rng = np.random.default_rng(_SEED)
    for i in range(20):
        patch = MapPatch(source=f"probe-{i}", confidence=0.9)
        x, y = rng.uniform(0, 400, size=2)
        patch.add(TrafficSign(id=working.new_id(f"s7-{i}-sign"),
                              position=np.array([x, y]),
                              sign_type=SignType.STOP))
        delta_server.ingest(patch)
    delta = delta_server.delta_since(0)
    wire = len(encode_delta(delta))
    pickled = len(pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))

    return (parity, pack_tps, zero_copy, cold_start_s,
            cold_elements, cold_decodes, pack_mb, wire, pickled)


def test_s07_pack(benchmark, tmp_path):
    (parity, pack_tps, zero_copy, cold_start_s, cold_elements,
     cold_decodes, pack_mb, wire, pickled) = \
        once(benchmark, _experiment, tmp_path)

    table = ResultTable("S7", "pack store: zero-copy serving + delta sync")
    table.add("pack payload parity", "byte-identical",
              "equal" if parity else "DIFFER", ok=parity)
    table.add("encoded GetTile, pack path", "> 0 req/s",
              f"{pack_tps:.0f} req/s", ok=pack_tps > 0)
    table.add("payload is a pack mmap slice", "zero-copy memoryview",
              "yes" if zero_copy else "NO", ok=zero_copy)
    table.add("cold-start pack size", ">= 1M elements",
              f"{cold_elements:,} ({pack_mb:.1f} MB)",
              ok=cold_elements >= _TARGET_ELEMENTS)
    table.add("cold start: open + one tile", "< 2 s, exactly 1 decode",
              f"{cold_start_s * 1e3:.1f} ms, {cold_decodes} decode(s)",
              ok=cold_start_s < 2.0 and cold_decodes == 1)
    ratio = wire / pickled if pickled else 1.0
    table.add("ChangesSince wire vs pickled delta", "<= 25%",
              f"{wire} B / {pickled} B = {100 * ratio:.1f}%",
              ok=ratio <= 0.25)
    table.print()
    assert table.all_ok()
