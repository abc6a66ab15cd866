"""Mutation fuzz of the HDMV / HDDL body parsers, run as a child process.

``decode_map`` / ``decode_delta`` promise :class:`StorageError` on any
corrupt input. Cutting or flipping the *deflated* blob proves little —
zlib's checksum rejects nearly every such blob before a parser sees it —
so this driver mutates the *inflated* body (seeded byte flips, splices,
truncations), deflates it again behind a correct frame header, and
decodes. The only allowed outcomes are a decoded value or
``StorageError``.

It runs in its own process under ``RLIMIT_AS`` so that a regression
which allocates from a corrupt count shows up as a ``MemoryError``
escape in the report instead of the kernel OOM-killing the test runner::

    python -m tests.body_fuzz hdmv --cases 1200 --seed 20

The last stdout line is a JSON report; the exit code is 1 on any escape.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import zlib
from typing import Callable, List, Tuple

import numpy as np

from repro.core.changes import ChangeType, MapChange
from repro.errors import StorageError
from repro.pack.delta import (
    DELTA_MAGIC,
    DELTA_VERSION,
    decode_delta,
    encode_delta,
)
from repro.storage import TileStore
from repro.storage.binary import MAGIC, VERSION, decode_map
from repro.update.distribution import SyncDelta
from repro.world import generate_grid_city, generate_highway

#: address space the child may grow by once its fixtures are built
HEADROOM_BYTES = 768 << 20


def tile_maps(seed: int):
    """Decoded tiles of a small grid city and a highway: every element
    type the generators emit, point landmarks and long polylines."""
    rng = np.random.default_rng(seed)
    worlds = [(generate_grid_city(rng, 3, 2, block_size=150.0), 150.0),
              (generate_highway(rng, length=2500.0), 250.0)]
    for world, tile_size in worlds:
        store = TileStore.build(world, tile_size)
        for tile in store.tiles():
            yield store.load_tile(tile), store.encoded_view(tile)


def delta_of(shard, rng: np.random.Generator) -> SyncDelta:
    """A delta touching every element of one tile, a quarter removed."""
    kinds = list(ChangeType)
    changes, elements = [], {}
    for i, element in enumerate(shard.elements()):
        kind = kinds[int(rng.integers(len(kinds)))]
        x, y = (float(v) for v in rng.uniform(-5000.0, 5000.0, size=2))
        changes.append(MapChange(
            kind, element.id, (x, y),
            magnitude=1.5 if kind is ChangeType.MOVED else 0.0,
            detail=f"probe-{i}"))
        elements[element.id] = None if kind is ChangeType.REMOVED \
            else element
    return SyncDelta(int(rng.integers(1, 10_000)), changes, elements)


def mutate(rng: np.random.Generator, body: bytes) -> bytes:
    """One seeded mutation: flip 1-3 bytes, splice a slice, or truncate."""
    out = bytearray(body)
    how = int(rng.integers(4))
    if how <= 1:  # byte flips are the commonest real corruption
        for _ in range(int(rng.integers(1, 4))):
            out[int(rng.integers(len(out)))] ^= int(rng.integers(1, 256))
    elif how == 2:
        lo, hi = sorted(int(v) for v in rng.integers(len(out) + 1, size=2))
        at = int(rng.integers(len(out) + 1))
        if rng.integers(2):
            out[at:at] = out[lo:hi]            # insert a copied slice
        else:
            out[at:at + (hi - lo)] = out[lo:hi]  # overwrite with it
    else:
        del out[int(rng.integers(len(out))):]
    return bytes(out)


def frame(magic: bytes, version: int, body: bytes) -> bytes:
    payload = zlib.compress(body, 1)
    return magic + struct.pack("<BI", version, len(payload)) + payload


def limit_address_space() -> None:
    """Cap growth at ``HEADROOM_BYTES`` over what is mapped right now."""
    import resource

    with open("/proc/self/statm", encoding="ascii") as f:
        mapped = int(f.read().split()[0]) * resource.getpagesize()
    limit = mapped + HEADROOM_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run(codec: str, cases: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 0 if codec == "hdmv" else 1])
    targets: List[Tuple[bytes, bytes, int, Callable]] = []
    for shard, blob in tile_maps(seed):
        if codec == "hddl":
            blob = encode_delta(delta_of(shard, rng))
            head = (DELTA_MAGIC, DELTA_VERSION, decode_delta)
        else:
            head = (MAGIC, VERSION, decode_map)
        body = zlib.decompress(bytes(blob)[9:])
        head[2](frame(head[0], head[1], body))  # the framing is sound
        targets.append((body,) + head)
    limit_address_space()
    report = {"codec": codec, "cases": 0, "decoded": 0, "rejected": 0,
              "escapes": []}
    for case in range(cases):
        body, magic, version, decode = targets[case % len(targets)]
        mutated = mutate(rng, body)
        report["cases"] += 1
        try:
            decode(frame(magic, version, mutated))
            report["decoded"] += 1
        except StorageError:
            report["rejected"] += 1
        except Exception as exc:  # every other outcome is the finding
            report["escapes"].append(
                {"case": case, "target": case % len(targets),
                 "error": f"{type(exc).__name__}: {exc}"[:200]})
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("codec", choices=("hdmv", "hddl"))
    parser.add_argument("--cases", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=20)
    args = parser.parse_args(argv)
    report = run(args.codec, args.cases, args.seed)
    print(json.dumps(report))
    return 1 if report["escapes"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
