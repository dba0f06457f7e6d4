"""A checksummed page file: the durable home of page images.

The file is an array of fixed-size blocks, one per page number, behind a
16-byte header::

    +-------------------+--------------------------------------------+
    | magic (8) + meta  |  block 0  |  block 1  |  block 2  |  ...   |
    +-------------------+--------------------------------------------+

Each block frames its payload the same way the WAL frames records —
``length (u32) | crc32 (u32) | payload | zero padding`` — so a page torn
by a crash mid-write is *detected* (checksum mismatch) rather than
silently read back as garbage.  A block that was never written reads as
all zeros, which the framing interprets as "empty" (length 0 with a
matching zero checksum), so sparse files work naturally.

The buffer pool (:mod:`repro.storage.bufferpool`) sits in front of this
class; nothing above the pool should touch it directly.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from repro.errors import ReproError

PAGEFILE_MAGIC = b"RPGFv1\n\0"
_HEADER = struct.Struct("<8sII")  # magic, page_size, reserved
_BLOCK_FRAME = struct.Struct("<II")  # payload length, payload crc32

DEFAULT_PAGE_SIZE = 4096


class TornPageError(ReproError):
    """A page block's checksum does not match its payload.

    Seen when a crash killed the process mid-write ("torn page"), or
    the bytes rotted on disk: a block read back is checked before its
    payload is trusted, so a torn page is detected, never silently read.
    """

    def __init__(self, page_no: int, path: str) -> None:
        super().__init__(f"page {page_no} of {path} is torn (checksum mismatch)")
        self.page_no = page_no


class PageFile:
    """Fixed-size page blocks in one file, with per-page checksums."""

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < _BLOCK_FRAME.size + 1:
            raise ValueError(f"page_size {page_size} cannot hold a framed payload")
        self.path = path
        existing = os.path.exists(path) and os.path.getsize(path) >= _HEADER.size
        self._fh = open(path, "r+b" if existing else "w+b")
        if existing:
            magic, stored_size, __ = _HEADER.unpack(self._fh.read(_HEADER.size))
            if magic != PAGEFILE_MAGIC:
                raise ReproError(f"{path} is not a page file")
            self.page_size = stored_size
        else:
            self.page_size = page_size
            self._fh.write(_HEADER.pack(PAGEFILE_MAGIC, page_size, 0))
            self._fh.flush()
        self.max_payload = self.page_size - _BLOCK_FRAME.size

    # ------------------------------------------------------------------
    # Block I/O
    # ------------------------------------------------------------------
    def _offset(self, page_no: int) -> int:
        if page_no < 0:
            raise ValueError(f"negative page number {page_no}")
        return _HEADER.size + page_no * self.page_size

    def write_page(self, page_no: int, payload: bytes) -> None:
        """Durably frame *payload* into the block for *page_no*.

        The write reaches the OS immediately (so a SIGKILL cannot lose
        it back to a user-space buffer) but is only crash-durable after
        :meth:`sync`.
        """
        if len(payload) > self.max_payload:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds page capacity {self.max_payload}"
            )
        block = _BLOCK_FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        block += b"\0" * (self.page_size - len(block))
        self._fh.seek(self._offset(page_no))
        self._fh.write(block)
        self._fh.flush()

    def read_page(self, page_no: int) -> Optional[bytes]:
        """The payload stored for *page_no*, or None if never written.

        Raises :class:`TornPageError` on a checksum mismatch.
        """
        self._fh.seek(self._offset(page_no))
        block = self._fh.read(self.page_size)
        if len(block) < _BLOCK_FRAME.size:
            return None  # beyond EOF: never written
        length, crc = _BLOCK_FRAME.unpack_from(block)
        if length == 0 and crc == 0:
            return None  # all-zero block: never written
        payload = block[_BLOCK_FRAME.size : _BLOCK_FRAME.size + length]
        if length > self.max_payload or len(payload) < length or zlib.crc32(payload) != crc:
            raise TornPageError(page_no, self.path)
        return payload

    # ------------------------------------------------------------------
    # Durability / lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
