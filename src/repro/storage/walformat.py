"""The on-disk write-ahead-log record format.

A durable WAL file is::

    +----------------+--------------------------------------------------+
    | 8-byte magic   |  record  |  record  | (torn tail) | (zeros ...)  |
    +----------------+--------------------------------------------------+

where each record frame is::

    +---------------+---------------+------------------+
    | length  (u32) | crc32   (u32) | payload (length) |
    +---------------+---------------+------------------+

little-endian, with ``crc32`` covering the four length bytes and then
the payload bytes.  The payload is the pickled plain tuple ``(kind,
*fields)`` of one log record: ``kind`` is the record class's ``KIND``
frame tag and the fields follow in declaration order
(:func:`encode_record` is the one place that says so for writers; the
one reader is :func:`repro.storage.durable.load_wal_file`, which
rebuilds each record from its kind table).  Nothing here imports
:mod:`repro.recovery.wal` — the two can therefore use each other
without a cycle.

An all-zero frame header ends the log cleanly.  It is never a frame:
the checksum covers the length, so an empty payload's header carries a
non-zero crc32.  A writer keeps a zero-filled segment ahead of its last
frame (:class:`repro.storage.durable.DurableWriteAheadLog`), and a crash
image of such a log ends in those zeros, which are neither records nor
a torn tail.

The magic names the frame format's version.  A file that carries the
magic of another version (``RWALv<n>``) is refused with ``ValueError``
by every reader and by a writer asked to continue it, and its bytes are
left as they are: version 1 framed pickled record dataclasses, which
this version does not decode; version 2's checksum did not cover the
length, so its empty frame was an all-zero header; and truncating such
a log would lose it.

Crash behaviour is the whole point of the framing: a process killed
mid-write leaves either a short header, a short payload, or a payload
whose checksum does not match.  :func:`iter_frames` treats the first
such frame as the *torn tail* — everything before it is durable truth,
everything from it on is discarded — and never raises on torn input.
A checksum mismatch anywhere *before* a structurally complete frame is
indistinguishable from a torn write and handled the same way.
"""

from __future__ import annotations

import pickle
import re
import struct
import zlib
from dataclasses import dataclass

#: File magic: identifies a durable WAL file and its frame format version.
WAL_MAGIC = b"RWALv3\n\0"

#: The magic of any version of the format; group 1 names the version.
_ANY_MAGIC = re.compile(rb"(RWALv\d+)\n")

#: Per-record frame header: payload length, crc32 of length and payload.
FRAME_HEADER = struct.Struct("<II")

_LENGTH = struct.Struct("<I")

#: Refuse absurd lengths (a torn header read as a length field could
#: otherwise ask for gigabytes).  No legitimate log record — even a set
#: member snapshot — comes near this.
MAX_PAYLOAD = 64 * 1024 * 1024


def encode_frame(payload: bytes) -> bytes:
    """Frame *payload* for appending to a durable WAL file."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"WAL payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    length = _LENGTH.pack(len(payload))
    return length + _LENGTH.pack(zlib.crc32(payload, zlib.crc32(length))) + payload


def encode_record(record: tuple) -> bytes:
    """The frame a log *record* (a ``NamedTuple`` with a ``KIND`` tag)
    occupies in a durable WAL file."""
    return encode_frame(
        pickle.dumps((record.KIND,) + record, protocol=pickle.HIGHEST_PROTOCOL)
    )


@dataclass
class ScanResult:
    """What a torn-tolerant scan of a WAL file's bytes found."""

    payloads: list[bytes]
    valid_bytes: int  # prefix length that decoded cleanly (incl. magic)
    torn_bytes: int  # bytes discarded after the last valid frame (0 at a zero header)
    torn_reason: str = ""  # "" | "short-header" | "short-payload" | "bad-checksum"

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def iter_frames(data: bytes) -> ScanResult:
    """Decode every complete, checksummed frame of *data* after the magic.

    Never raises on torn input: the first incomplete or corrupt frame
    ends the scan and everything from its first byte on is reported as
    the torn tail.  An all-zero header ends it cleanly, with nothing
    torn.  *data* must start with :data:`WAL_MAGIC` (callers check the
    magic first).
    """
    assert data.startswith(WAL_MAGIC), "caller must check the file magic first"
    payloads: list[bytes] = []
    offset = len(WAL_MAGIC)
    reason = ""
    while offset < len(data):
        header_end = offset + FRAME_HEADER.size
        if header_end > len(data):
            reason = "short-header"
            break
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        if not (length or crc):  # the zeros past the last frame
            return ScanResult(payloads=payloads, valid_bytes=offset, torn_bytes=0)
        if length > MAX_PAYLOAD:
            reason = "bad-checksum"  # garbage header ≈ corrupt frame
            break
        payload_end = header_end + length
        if payload_end > len(data):
            reason = "short-payload"
            break
        payload = data[header_end:payload_end]
        if zlib.crc32(payload, zlib.crc32(data[offset : offset + _LENGTH.size])) != crc:
            reason = "bad-checksum"
            break
        payloads.append(payload)
        offset = payload_end
    return ScanResult(
        payloads=payloads,
        valid_bytes=offset,
        torn_bytes=len(data) - offset,
        torn_reason=reason,
    )


def is_wal_file(header: bytes) -> bool:
    """True if *header* (the file's first bytes) carries the WAL magic.

    ``ValueError`` if it carries the magic of another format version:
    such a file is a log, but not one this version can read or extend.
    """
    if header.startswith(WAL_MAGIC):
        return True
    found = _ANY_MAGIC.match(header)
    if found:
        raise ValueError(
            f"WAL file of format {found[1].decode()}, but this version reads and "
            f"writes {_ANY_MAGIC.match(WAL_MAGIC)[1].decode()}; the file is left as it is"
        )
    return False
