"""The buffer pool: bounded page cache with WAL-before-data writeback.

Frames cache page payloads between the durable page file below and the
storage manager above.  The contract is the classical one:

* **pin/unpin** — a pinned frame is in use and must not be evicted;
  pins nest (a pin count, not a flag).
* **LRU eviction** — when every frame is occupied, the least recently
  *pinned* unpinned frame is evicted to make room.
* **dirty writeback** — an evicted (or flushed) dirty frame is written
  to the page file exactly once, then marked clean; clean evictions
  never touch the disk.
* **WAL-before-data** — before a dirty frame's payload reaches the page
  file, the WAL must be durable up to the frame's ``page_lsn`` (the
  highest log record describing the page's content).  The pool enforces
  this by calling ``wal.sync_to(page_lsn)`` first; how many times it had
  to is the ``bufferpool.wal_syncs_forced`` counter.

The disk below is anything with ``read_page(page_no)`` /
``write_page(page_no, payload)`` — the real :class:`~repro.storage.
pagefile.PageFile`, or the instrumented fake the unit suite uses to
assert write ordering.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError


class BufferPoolError(ReproError):
    """Pool misuse (unpin without pin, write to unpinned frame) or exhaustion."""


class Frame:
    """One cached page: payload plus pin/dirty/recency bookkeeping."""

    __slots__ = ("page_no", "payload", "pin_count", "dirty", "page_lsn", "last_used")

    def __init__(self, page_no: int) -> None:
        self.page_no = page_no
        self.payload: Optional[bytes] = None
        self.pin_count = 0
        self.dirty = False
        self.page_lsn = 0  # highest WAL LSN describing this payload
        self.last_used = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("D" if self.dirty else "-") + f"p{self.pin_count}"
        return f"<Frame {self.page_no} {flags} lsn={self.page_lsn}>"


class BufferPool:
    """A fixed-capacity cache of page frames over a page file."""

    def __init__(self, disk, capacity: int = 64, wal=None, metrics=None) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self.wal = wal
        self._frames: dict[int, Frame] = {}
        self._tick = 0
        if metrics is not None:
            self._hits = metrics.counter("bufferpool.hits")
            self._misses = metrics.counter("bufferpool.misses")
            self._evictions = metrics.counter("bufferpool.evictions")
            self._writebacks = metrics.counter("bufferpool.writebacks")
            self._forced_syncs = metrics.counter("bufferpool.wal_syncs_forced")
            self._pinned = metrics.gauge("bufferpool.pinned")
        else:
            from repro.obs.registry import Counter, Gauge

            self._hits = Counter("bufferpool.hits")
            self._misses = Counter("bufferpool.misses")
            self._evictions = Counter("bufferpool.evictions")
            self._writebacks = Counter("bufferpool.writebacks")
            self._forced_syncs = Counter("bufferpool.wal_syncs_forced")
            self._pinned = Gauge("bufferpool.pinned")

    # ------------------------------------------------------------------
    # Pin / unpin / write
    # ------------------------------------------------------------------
    def pin(self, page_no: int) -> Frame:
        """Fetch (and pin) the frame for *page_no*, faulting it in on miss."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self._hits.inc()
        else:
            self._misses.inc()
            if len(self._frames) >= self.capacity:
                self._evict_one()
            frame = Frame(page_no)
            frame.payload = self.disk.read_page(page_no)
            self._frames[page_no] = frame
        frame.pin_count += 1
        self._tick += 1
        frame.last_used = self._tick
        self._pinned.inc()
        return frame

    def unpin(self, page_no: int, dirty: bool = False, lsn: int = 0) -> None:
        """Drop one pin; optionally mark the frame dirty up to *lsn*."""
        frame = self._require_frame(page_no)
        if frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_no} is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True
            frame.page_lsn = max(frame.page_lsn, lsn)
        self._pinned.dec()

    def put(self, page_no: int, payload: bytes, lsn: int = 0) -> None:
        """Replace a *pinned* frame's payload (marks it dirty)."""
        frame = self._require_frame(page_no)
        if frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_no} must be pinned to write")
        frame.payload = payload
        frame.dirty = True
        frame.page_lsn = max(frame.page_lsn, lsn)

    def _require_frame(self, page_no: int) -> Frame:
        frame = self._frames.get(page_no)
        if frame is None:
            raise BufferPoolError(f"page {page_no} is not resident")
        return frame

    # ------------------------------------------------------------------
    # Eviction / writeback
    # ------------------------------------------------------------------
    def _evict_one(self) -> None:
        victim: Optional[Frame] = None
        for frame in self._frames.values():
            if frame.pin_count > 0:
                continue
            if victim is None or frame.last_used < victim.last_used:
                victim = frame
        if victim is None:
            raise BufferPoolError(
                f"all {self.capacity} frames are pinned; cannot evict"
            )
        if victim.dirty:
            self._write_back(victim)
        self._evictions.inc()
        del self._frames[victim.page_no]

    def _write_back(self, frame: Frame) -> None:
        """Flush one dirty frame, enforcing WAL-before-data."""
        assert frame.dirty
        if self.wal is not None and frame.page_lsn > self.wal.durable_lsn:
            self.wal.sync_to(frame.page_lsn)
            self._forced_syncs.inc()
        self.disk.write_page(frame.page_no, frame.payload or b"")
        self._writebacks.inc()
        frame.dirty = False

    def flush_page(self, page_no: int) -> None:
        frame = self._require_frame(page_no)
        if frame.dirty:
            self._write_back(frame)

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay resident)."""
        for frame in sorted(self._frames.values(), key=lambda f: f.page_no):
            if frame.dirty:
                self._write_back(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        return len(self._frames)

    @property
    def pinned_pages(self) -> list[int]:
        return sorted(no for no, f in self._frames.items() if f.pin_count > 0)

    @property
    def dirty_pages(self) -> list[int]:
        return sorted(no for no, f in self._frames.items() if f.dirty)

    def frame(self, page_no: int) -> Optional[Frame]:
        return self._frames.get(page_no)

    def check_invariants(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        assert len(self._frames) <= self.capacity, (
            f"{len(self._frames)} resident frames exceed capacity {self.capacity}"
        )
        for page_no, frame in self._frames.items():
            assert frame.page_no == page_no, f"frame keyed {page_no} claims {frame.page_no}"
            assert frame.pin_count >= 0, f"negative pin count on page {page_no}"
            assert frame.last_used <= self._tick, f"frame tick from the future on {page_no}"
            if frame.dirty:
                assert frame.payload is not None, f"dirty page {page_no} with no payload"
