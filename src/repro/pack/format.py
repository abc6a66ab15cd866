"""The tile pack file: mmap-backed storage for encoded tile payloads.

Layout (all integers little-endian)::

    offset 0                 64             data_end        dir_off
    +----------------------+--------------------------+--------------+
    | header (64 B)        | concatenated payloads    | directory    |
    |  magic "HDPK"        | (HDMV blobs, appended)   |  one 32-B    |
    |  format version      |                          |  entry per   |
    |  tile_size (f64)     |                          |  live tile   |
    |  dir_off / dir_len   |                          |              |
    |  count / dir_crc     |                          |              |
    +----------------------+--------------------------+--------------+

Write protocol (what makes publish atomic): payloads are only ever
*appended*; the directory is rewritten at the current end of file and
the 64-byte header is flipped last (write + flush + fsync between the
two steps). A reader that mapped the file before a publish keeps
serving the old directory — every offset it knows is still valid
because published bytes are never moved or truncated. A crash between
appends leaves the previous publish fully intact.

Superseded payloads (a tile re-added after publish) and stale
directories become dead bytes — *garbage* — that
:attr:`PackReader.garbage_bytes` accounts and :func:`compact_pack`
reclaims by rewriting only the live entries, byte-identically.

The reader never decodes at open: :meth:`PackReader.get` returns a
``memoryview`` slice of the mapping (zero copies), and
:meth:`PackReader.load` decodes a single tile on demand. Opening a
million-element pack therefore costs one ``mmap`` plus one directory
parse, regardless of how many elements the payloads hold.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.tiles import TileId
from repro.errors import PackError
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, Gauge

_log = get_logger("pack.format")

PACK_MAGIC = b"HDPK"
PACK_VERSION = 1
HEADER_SIZE = 64

#: magic, format version, flags, tile_size, dir_off, dir_len, count, dir_crc
_HEADER = struct.Struct("<4sHHdQQII")
#: tx, ty, offset, length, tile version, payload crc32, element count
_ENTRY = struct.Struct("<iiQIIII")
ENTRY_SIZE = _ENTRY.size


@dataclass(frozen=True)
class PackEntry:
    """One directory row: where a tile's payload lives and what it is."""

    tile: TileId
    offset: int
    length: int
    version: int
    checksum: int
    n_elements: int


class PackWriter:
    """Append payloads, publish directories atomically.

    A writer opened on an existing pack resumes after its last published
    directory: previously published payload bytes are never touched, so
    concurrent readers of the old directory stay valid. ``add`` of a
    tile that is already in the directory supersedes it (the old payload
    becomes garbage until :func:`compact_pack`).
    """

    def __init__(self, path: str, tile_size: float = 0.0) -> None:
        self.path = str(path)
        existing = os.path.exists(self.path) \
            and os.path.getsize(self.path) >= HEADER_SIZE
        self._entries: Dict[TileId, PackEntry] = {}
        if existing:
            reader = PackReader(self.path)
            try:
                self.tile_size = reader.tile_size
                self._entries = dict(reader._entries)
                # Resume *after* the published directory: the bytes a
                # live reader's directory points at are never reused.
                self._end = reader.file_bytes
            finally:
                reader.close()
            self._fh = open(self.path, "r+b")
            self._fh.seek(self._end)
        else:
            self.tile_size = float(tile_size)
            self._fh = open(self.path, "w+b")
            self._fh.write(b"\x00" * HEADER_SIZE)
            self._end = HEADER_SIZE
        self._published = len(self._entries)
        self._closed = False

    # -- building -------------------------------------------------------
    def add(self, tile: TileId, payload, version: int = 0,
            n_elements: int = 0) -> PackEntry:
        """Append one tile payload (not visible until :meth:`publish`)."""
        if self._closed:
            raise PackError("writer is closed")
        view = memoryview(payload)
        if view.nbytes == 0:
            raise PackError(f"refusing to pack empty payload for {tile}")
        entry = PackEntry(
            tile=tile, offset=self._end, length=view.nbytes,
            version=int(version), checksum=zlib.crc32(view),
            n_elements=int(n_elements))
        self._fh.seek(self._end)
        self._fh.write(view)
        self._end += view.nbytes
        self._entries[tile] = entry
        return entry

    def publish(self) -> int:
        """Write the directory, fsync, flip the header; returns the
        number of live entries now visible to new readers."""
        if self._closed:
            raise PackError("writer is closed")
        directory = bytearray()
        for tile in sorted(self._entries):
            e = self._entries[tile]
            directory += _ENTRY.pack(e.tile.tx, e.tile.ty, e.offset,
                                     e.length, e.version, e.checksum,
                                     e.n_elements)
        dir_off = self._end
        self._fh.seek(dir_off)
        self._fh.write(directory)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        header = _HEADER.pack(PACK_MAGIC, PACK_VERSION, 0, self.tile_size,
                              dir_off, len(directory), len(self._entries),
                              zlib.crc32(bytes(directory)))
        self._fh.seek(0)
        self._fh.write(header + b"\x00" * (HEADER_SIZE - _HEADER.size))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        # Appends after this publish go past the directory we just
        # wrote; it becomes garbage only once the *next* publish lands.
        self._end = dir_off + len(directory)
        self._published = len(self._entries)
        return self._published

    # -- introspection --------------------------------------------------
    def tiles(self) -> List[TileId]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PackReader:
    """Zero-copy view over a published pack file.

    The whole file is mapped once (``mmap.ACCESS_READ``); :meth:`get`
    returns a ``memoryview`` slice of that mapping without copying or
    decoding, and :meth:`load` decodes one tile lazily. The directory is
    integrity-checked at open (magic, format version, directory CRC);
    per-payload checksums are verified on demand (:meth:`verify`) so
    opening a continental pack stays O(directory).
    """

    #: one-shot ``pack_garbage_large`` warning threshold: dead bytes as a
    #: fraction of the file. The counterpart of the router's
    #: ``journal_large`` guard — a pack past this ratio is overdue for
    #: :func:`compact_pack`.
    GARBAGE_WARN_RATIO = 0.5

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            if size < HEADER_SIZE:
                raise PackError(f"truncated pack header in {self.path}")
            self._mmap = mmap.mmap(self._fh.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except PackError:
            self._fh.close()
            raise
        self._buffer = memoryview(self._mmap)
        try:
            self._parse(size)
        except PackError:
            self.close()
            raise
        # pack.* counters: how the serving layer actually uses the pack.
        self.reads = Counter()
        self.bytes_served = Counter()
        self.decodes = Counter()
        self.checksum_failures = Counter()
        self._warn_garbage()

    def _parse(self, size: int) -> None:
        (magic, version, _flags, tile_size, dir_off, dir_len, count,
         dir_crc) = _HEADER.unpack(self._buffer[:_HEADER.size])
        if magic != PACK_MAGIC:
            raise PackError(f"bad magic; {self.path} is not a tile pack")
        if version != PACK_VERSION:
            raise PackError(f"unsupported pack version {version}")
        if dir_off + dir_len > size:
            raise PackError(f"directory extends past EOF in {self.path}")
        if count * ENTRY_SIZE != dir_len:
            raise PackError(
                f"directory length {dir_len} does not fit {count} entries")
        directory = self._buffer[dir_off:dir_off + dir_len]
        if zlib.crc32(directory) != dir_crc:
            raise PackError(f"directory checksum mismatch in {self.path}")
        self.tile_size = float(tile_size)
        self._entries: Dict[TileId, PackEntry] = {}
        for i in range(count):
            tx, ty, offset, length, tile_version, checksum, n_elements = \
                _ENTRY.unpack(directory[i * ENTRY_SIZE:(i + 1) * ENTRY_SIZE])
            if offset + length > size:
                raise PackError(
                    f"payload of tile({tx},{ty}) extends past EOF")
            self._entries[TileId(tx, ty)] = PackEntry(
                TileId(tx, ty), offset, length, tile_version, checksum,
                n_elements)
        self._dir_off = dir_off
        self._dir_len = dir_len
        self._file_size = size
        self._data_end = max(
            [e.offset + e.length for e in self._entries.values()],
            default=HEADER_SIZE)

    # -- serving --------------------------------------------------------
    def __contains__(self, tile: TileId) -> bool:
        return tile in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def tiles(self) -> List[TileId]:
        return sorted(self._entries)

    def entry(self, tile: TileId) -> Optional[PackEntry]:
        return self._entries.get(tile)

    def get(self, tile: TileId) -> Optional[memoryview]:
        """The tile's payload as a zero-copy slice of the mapping."""
        entry = self._entries.get(tile)
        if entry is None:
            return None
        self.reads.add()
        self.bytes_served.add(entry.length)
        return self._buffer[entry.offset:entry.offset + entry.length]

    def load(self, tile: TileId):
        """Decode one tile to an :class:`~repro.core.hdmap.HDMap`."""
        from repro.storage.binary import decode_map

        view = self.get(tile)
        if view is None:
            return None
        self.decodes.add()
        return decode_map(view)

    @property
    def buffer(self) -> memoryview:
        """The raw mapping (identity anchor for zero-copy assertions)."""
        return self._buffer

    # -- integrity ------------------------------------------------------
    def verify(self, tile: TileId) -> None:
        """Raise :class:`PackError` if the tile's payload is corrupt."""
        entry = self._entries.get(tile)
        if entry is None:
            raise PackError(f"{tile} is not in this pack")
        view = self._buffer[entry.offset:entry.offset + entry.length]
        if zlib.crc32(view) != entry.checksum:
            self.checksum_failures.add()
            raise PackError(f"checksum mismatch for {tile} in {self.path}")

    # -- accounting -----------------------------------------------------
    @property
    def file_bytes(self) -> int:
        return self._file_size

    @property
    def live_bytes(self) -> int:
        return sum(e.length for e in self._entries.values())

    @property
    def garbage_bytes(self) -> int:
        """Dead bytes: superseded payloads and stale directories."""
        return max(0, self._file_size - HEADER_SIZE - self._dir_len
                   - self.live_bytes)

    @property
    def total_elements(self) -> int:
        """Sum of directory element counts (no payload decode)."""
        return sum(e.n_elements for e in self._entries.values())

    def _warn_garbage(self) -> None:
        """One ``pack_garbage_large`` warning at open when dead bytes
        cross :attr:`GARBAGE_WARN_RATIO` of the file (mirrors
        ``journal_large``)."""
        garbage = self.garbage_bytes
        if garbage < self.GARBAGE_WARN_RATIO * self._file_size:
            return
        _log.warning(
            "pack_garbage_large", path=self.path,
            garbage_bytes=garbage, file_bytes=self._file_size,
            ratio=round(garbage / self._file_size, 3),
            threshold=self.GARBAGE_WARN_RATIO)

    def register_into(self, registry, prefix: str = "pack") -> None:
        """Register ``pack.*`` metrics: serving counters plus file-shape
        gauges (``pack.tiles`` / ``pack.file_bytes`` /
        ``pack.garbage_bytes`` / ``pack.elements``)."""
        registry.register(f"{prefix}.reads", self.reads)
        registry.register(f"{prefix}.bytes_served", self.bytes_served)
        registry.register(f"{prefix}.decodes", self.decodes)
        registry.register(f"{prefix}.checksum_failures",
                          self.checksum_failures)
        for name, value in ((f"{prefix}.tiles", len(self._entries)),
                            (f"{prefix}.file_bytes", self._file_size),
                            (f"{prefix}.garbage_bytes", self.garbage_bytes),
                            (f"{prefix}.elements", self.total_elements)):
            gauge = Gauge()
            gauge.set(int(value))
            registry.register(name, gauge)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the mapping. With exported memoryviews still alive the
        mapping stays open until they are dropped (closing would
        invalidate zero-copy payloads already handed out)."""
        try:
            self._buffer.release()
        except BufferError:
            return
        try:
            self._mmap.close()
        except (BufferError, ValueError):
            pass
        finally:
            self._fh.close()

    def __enter__(self) -> "PackReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def compact_pack(src_path: str, dst_path: str) -> int:
    """Rewrite only the live entries of ``src`` into ``dst``.

    Payload bytes are copied verbatim (the reader round-trip is
    byte-identical), so compaction reclaims garbage without touching
    content. Returns the number of bytes reclaimed.
    """
    if os.path.abspath(src_path) == os.path.abspath(dst_path):
        raise PackError("compact_pack needs a distinct destination path")
    with PackReader(src_path) as reader:
        with PackWriter(dst_path, tile_size=reader.tile_size) as writer:
            for tile in reader.tiles():
                entry = reader._entries[tile]
                payload = reader.get(tile)
                writer.add(tile, payload, version=entry.version,
                           n_elements=entry.n_elements)
            writer.publish()
        reclaimed = reader.file_bytes - os.path.getsize(dst_path)
    return max(0, reclaimed)
