"""Durable storage: the file-backed WAL and the page-file storage manager.

Two classes turn the in-memory simulation into something that survives a
real process death:

* :class:`DurableWriteAheadLog` — a drop-in :class:`~repro.recovery.wal.
  WriteAheadLog` that additionally appends every record to an
  append-only file in the checksummed frame format of
  :mod:`repro.storage.walformat`, with **group commit**: ``fsync`` is
  issued per writer commit by default (a read-only transaction forces
  nothing), but with a configurable window/batch the commits arriving
  close together share one sync (the classical throughput trade).  The
  ``wal.group_commit.*`` metrics family counts syncs, batched commits,
  and bytes.
* :class:`DurableStorageManager` — the existing
  :class:`~repro.storage.manager.StorageManager` interface backed by a
  real page file through a :class:`~repro.storage.bufferpool.BufferPool`
  (pin/unpin, LRU eviction, dirty writeback, WAL-before-data).  Page
  images persist the slot directory, so a surviving file can be reopened
  and its record map rebuilt without the process that wrote it.

The in-memory classes remain the default everywhere; virtual-time runs
opt into durability explicitly (the torture harness's ``--durable``
mode, the durability bench).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.objects.oid import Oid
from repro.recovery.wal import (
    LogRecord,
    SubtxnCommitRecord,
    TxnStatusRecord,
    UpdateRecord,
    WriteAheadLog,
)
from repro.storage.bufferpool import BufferPool
from repro.storage.manager import StorageManager
from repro.storage.page import Page
from repro.storage.pagefile import PageFile
from repro.storage.record import RecordId
from repro.storage.walformat import WAL_MAGIC, encode_record, is_wal_file, iter_frames

#: Histogram bounds for commits-per-fsync batch sizes.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _NullInstrument:
    """Stands in for counters/gauges/histograms before metrics binding."""

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class DurableWriteAheadLog(WriteAheadLog):
    """A write-ahead log that is also an append-only checksummed file.

    Args:
        path: The log file.  An existing durable file is *continued*
            (its records are loaded and appends resume after them);
            anything else is truncated and started fresh.
        group_commit_window: Seconds a commit may wait for companions
            before forcing its fsync.  ``0.0`` (default) syncs every
            forced commit/abort record immediately — the no-surprises mode
            the crash harness uses.  Only a transaction that appended an
            update or subcommit record forces its outcome; a read-only
            one's is written and becomes durable with the next sync.
        group_commit_max: Batch cap: once this many forced commit/abort records
            are pending, sync regardless of the window.
        clock: Injectable time source for the window (tests).
        buffering: User-space write-buffer size passed to :func:`open`.
            The default (platform buffer, typically 8 KiB) rarely spills
            a partial frame to the OS; the crash harness passes a tiny
            value so a SIGKILL genuinely leaves torn frames behind.
    """

    def __init__(
        self,
        path: str,
        group_commit_window: float = 0.0,
        group_commit_max: int = 8,
        clock: Callable[[], float] = time.monotonic,
        buffering: int = -1,
    ) -> None:
        super().__init__()
        if group_commit_window < 0:
            raise ValueError("group_commit_window must be >= 0")
        if group_commit_max < 1:
            raise ValueError("group_commit_max must be >= 1")
        self.path = path
        self.group_commit_window = group_commit_window
        self.group_commit_max = group_commit_max
        self._clock = clock
        self._durable_lsn = 0
        self._appended_lsn = 0
        self._pending_commits = 0
        self._pending_bytes = 0
        self._window_opened = 0.0
        # Transactions with an update or subcommit record and no outcome yet.
        self._writers: set[str] = set()
        self._appends = _NULL
        self._bytes_written = _NULL
        self._gc_syncs = _NULL
        self._gc_commits = _NULL
        self._gc_deferred = _NULL
        self._gc_bytes_synced = _NULL
        self._gc_batch = _NULL
        # The threaded kernel appends from several worker threads; every
        # mutation of the LSN counter, the in-memory record list, and the
        # file handle happens under this reentrant lock.
        self._wal_lock = threading.RLock()
        resume = self._try_resume(path)
        self._fh = open(path, "ab" if resume else "wb", buffering=buffering)
        if not resume:
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _try_resume(self, path: str) -> bool:
        if not os.path.exists(path):
            return False
        with open(path, "rb") as fh:
            if not is_wal_file(fh.read(len(WAL_MAGIC))):
                return False
        scan = load_wal_file(path)
        self.records = scan.log.records
        self._next_lsn = scan.log.last_lsn
        self._durable_lsn = self._appended_lsn = self._next_lsn
        if scan.torn:
            # Truncate the torn tail so appends continue from clean state.
            with open(path, "r+b") as fh:
                fh.truncate(scan.valid_bytes)
        return True

    def bind_metrics(self, registry) -> None:
        """Record WAL activity into *registry* (``wal.*`` instruments)."""
        self._appends = registry.counter("wal.appends")
        self._bytes_written = registry.counter("wal.bytes_written")
        self._gc_syncs = registry.counter("wal.group_commit.syncs")
        self._gc_commits = registry.counter("wal.group_commit.commits")
        self._gc_deferred = registry.counter("wal.group_commit.deferred")
        self._gc_bytes_synced = registry.counter("wal.group_commit.bytes_synced")
        self._gc_batch = registry.histogram("wal.group_commit.batch_size", _BATCH_BUCKETS)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def next_lsn(self) -> int:
        with self._wal_lock:
            return super().next_lsn()

    def append(self, record: LogRecord) -> None:
        with self._wal_lock:
            super().append(record)
            if record.lsn > self._appended_lsn:
                self._appended_lsn = record.lsn
            frame = encode_record(record)
            self._fh.write(frame)
            self._pending_bytes += len(frame)
            self._appends.inc()
            self._bytes_written.inc(len(frame))
            if isinstance(record, (UpdateRecord, SubtxnCommitRecord)):
                self._writers.add(record.txn)
            elif (
                isinstance(record, TxnStatusRecord)
                and record.status in ("commit", "abort")
                and record.txn in self._writers
            ):
                # Only a transaction that logged a change forces its
                # outcome.  The kernel appends a commit record before it
                # releases the locks, so a reader can only have seen
                # effects already forced; its own record rides the next sync.
                self._writers.discard(record.txn)
                self._gc_commits.inc()
                self._pending_commits += 1
                if self._pending_commits == 1:
                    self._window_opened = self._clock()
                if (
                    self.group_commit_window <= 0.0
                    or self._pending_commits >= self.group_commit_max
                    or self._clock() - self._window_opened >= self.group_commit_window
                ):
                    self.sync()
                else:
                    self._gc_deferred.inc()

    def flush_if_due(self) -> None:
        """Sync pending commits whose group-commit window has expired."""
        with self._wal_lock:
            if (
                self._pending_commits > 0
                and self._clock() - self._window_opened >= self.group_commit_window
            ):
                self.sync()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    def sync(self) -> None:
        """Flush buffered frames and fsync; everything appended is durable."""
        with self._wal_lock:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._durable_lsn = self._appended_lsn
            self._gc_syncs.inc()
            if self._pending_commits:
                self._gc_batch.observe(self._pending_commits)
            self._gc_bytes_synced.inc(self._pending_bytes)
            self._pending_commits = 0
            self._pending_bytes = 0

    def sync_to(self, lsn: int) -> None:
        with self._wal_lock:
            if lsn > self._durable_lsn:
                self.sync()

    def close(self) -> None:
        with self._wal_lock:
            if not self._fh.closed:
                self.sync()
                self._fh.close()

    def __enter__(self) -> "DurableWriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class WalFileScan:
    """A torn-tolerant read of a durable WAL file."""

    log: WriteAheadLog
    valid_bytes: int
    torn_bytes: int
    torn_reason: str = ""

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def load_wal_file(path: str) -> WalFileScan:
    """Read a durable WAL file, discarding any torn tail.

    The one reader of the format — the analyzer's entry point after a
    real crash, and what :meth:`WriteAheadLog.load` and a resuming
    :class:`DurableWriteAheadLog` call: every complete, checksum-valid
    record frame becomes a log record; the first incomplete or corrupt
    frame ends the scan.  Never raises on torn input; ``ValueError`` if
    *path* is not a WAL file at all.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not is_wal_file(data):
        raise ValueError(f"{path} is not a durable WAL file")
    scan = iter_frames(data)
    # Frames can land on disk out of LSN order under threaded appenders
    # (LSN draw and file write are separate steps); LSN order is the
    # true update order.
    records = sorted(
        (pickle.loads(payload) for payload in scan.payloads), key=lambda r: r.lsn
    )
    log = WriteAheadLog(records=records)
    log._next_lsn = max((r.lsn for r in records), default=0)
    return WalFileScan(
        log=log,
        valid_bytes=scan.valid_bytes,
        torn_bytes=scan.torn_bytes,
        torn_reason=scan.torn_reason,
    )


# ----------------------------------------------------------------------
# The durable storage manager
# ----------------------------------------------------------------------
PAGES_FILENAME = "pages.db"


@dataclass
class DurableOpenReport:
    """What reopening a surviving page file found."""

    pages: int = 0
    records: int = 0
    torn_pages: list[int] = field(default_factory=list)


class DurableStorageManager(StorageManager):
    """A :class:`StorageManager` whose page images live in a page file.

    Every allocation/release updates the owning page's on-disk image
    through the buffer pool: the slot directory (which OIDs occupy which
    slots) is pickled into the page payload, stamped with the WAL
    position describing it, and written back under WAL-before-data on
    eviction or flush.
    """

    def __init__(
        self,
        directory: str,
        records_per_page: int = 8,
        page_size: int = 4096,
        pool_capacity: int = 64,
        wal: Optional[WriteAheadLog] = None,
        metrics=None,
    ) -> None:
        super().__init__(records_per_page)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.wal = wal
        self.pagefile = PageFile(os.path.join(directory, PAGES_FILENAME), page_size)
        self.pool = BufferPool(self.pagefile, capacity=pool_capacity, wal=wal, metrics=metrics)

    # ------------------------------------------------------------------
    # Write-through allocation
    # ------------------------------------------------------------------
    def _page_payload(self, page: Page) -> bytes:
        slots = [
            (oid.type_name, oid.number) if (oid := page.owner_of(i)) is not None else None
            for i in range(page.capacity)
        ]
        return pickle.dumps(
            {"capacity": page.capacity, "slots": slots},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _write_page_image(self, page_no: int) -> None:
        lsn = self.wal.last_lsn if self.wal is not None else 0
        self.pool.pin(page_no)
        try:
            self.pool.put(page_no, self._page_payload(self._pages[page_no]), lsn=lsn)
        finally:
            self.pool.unpin(page_no)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back every dirty page and fsync the page file."""
        self.pool.flush_all()
        self.pagefile.sync()

    def close(self) -> None:
        self.flush()
        self.pagefile.close()

    @classmethod
    def adopt(
        cls,
        manager: StorageManager,
        directory: str,
        wal: Optional[WriteAheadLog] = None,
        page_size: int = 4096,
        pool_capacity: int = 64,
        metrics=None,
    ) -> "DurableStorageManager":
        """Take over an in-memory manager's state and make it durable.

        Copies the page/record maps, persists a durable base image of
        every page, and returns the durable manager — the caller
        installs it as ``db.storage`` so all subsequent allocations go
        through the page file.  This is how a database built by ordinary
        in-memory construction enters the durable world without
        re-threading a storage handle through every factory.
        """
        durable = cls(
            directory,
            records_per_page=manager.records_per_page,
            page_size=page_size,
            pool_capacity=pool_capacity,
            wal=wal,
            metrics=metrics,
        )
        durable._pages = manager._pages
        durable._record_of = manager._record_of
        durable._index_holes()
        for page in durable._pages:
            durable._write_page_image(page.number)
        durable.flush()
        return durable

    @classmethod
    def open(
        cls,
        directory: str,
        records_per_page: int = 8,
        page_size: int = 4096,
        pool_capacity: int = 64,
        wal: Optional[WriteAheadLog] = None,
        metrics=None,
    ) -> tuple["DurableStorageManager", DurableOpenReport]:
        """Reopen a surviving page file and rebuild the record map.

        Torn pages (killed mid-write) are *detected* via their checksums,
        reported, and treated as empty — their logical content is the
        WAL's job to restore.  Free-slot order within rebuilt pages is
        canonical (descending), not the historical allocation order.
        """
        durable = cls(
            directory,
            records_per_page=records_per_page,
            page_size=page_size,
            pool_capacity=pool_capacity,
            wal=wal,
            metrics=metrics,
        )
        report = DurableOpenReport()
        images, report.torn_pages = durable.pagefile.scan()
        highest = max(images, default=-1)
        for page_no in range(highest + 1):
            payload = images.get(page_no)
            capacity = durable.records_per_page
            slots: list[Optional[tuple[str, int]]] = [None] * capacity
            if payload is not None:
                decoded = pickle.loads(payload)
                capacity = decoded["capacity"]
                slots = decoded["slots"]
            page = Page(page_no, capacity)
            for index, owner in enumerate(slots):
                if owner is None:
                    continue
                oid = Oid(owner[0], owner[1])
                page._slots[index] = oid
                durable._record_of[oid] = RecordId(page_no, index)
            page._free = [i for i in range(capacity - 1, -1, -1) if slots[i] is None]
            durable._pages.append(page)
        durable._index_holes()
        report.pages = len(durable._pages)
        report.records = len(durable._record_of)
        return durable, report
