"""Durable storage: the file-backed WAL and the page-file storage manager.

:class:`DurableWriteAheadLog` is what turns the in-memory simulation into
something that survives a real process death; recovery reads the log and
nothing else.

* :class:`DurableWriteAheadLog` — a drop-in :class:`~repro.recovery.wal.
  WriteAheadLog` that additionally frames every record in the
  checksummed format of :mod:`repro.storage.walformat` into an
  in-memory buffer, and writes the buffer with one ``O_DSYNC``
  ``pwrite`` per force into zeros written ahead of the last frame, so
  a force neither grows the file nor needs an ``fsync``.  A writer's
  commit forces by default (a read-only transaction forces nothing);
  with a configurable window/batch the commits arriving close together
  share one force (the classical throughput trade), and a commit whose
  frames a concurrent force already covered shares that one.  The ``wal.group_commit.*``
  metrics family counts syncs, batched commits, and bytes; the append
  counts (``wal.appends``, ``wal.bytes_written``) are plain integers
  under the append lock, read by a registry collector at snapshot.
* :class:`DurableStorageManager` — the existing
  :class:`~repro.storage.manager.StorageManager` interface backed by a
  real page file through a :class:`~repro.storage.bufferpool.BufferPool`
  (pin/unpin, LRU eviction, dirty writeback, WAL-before-data).  Page
  images persist the slot directory and are never read back: no
  recovery path opens the page file.  Nothing under ``src/`` adopts this
  manager; only the benchmark's ``wire_durable`` stack still does.

The in-memory classes remain the default everywhere; virtual-time runs
opt into a durable WAL explicitly (the torture harness's ``--durable``
mode, the durability bench), and so does every cluster shard.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

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
from repro.storage.walformat import FRAME_HEADER, WAL_MAGIC, encode_record, is_wal_file, iter_frames

#: Histogram bounds for commits-per-force batch sizes.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: Zero bytes a log keeps written ahead of its last frame.  A force
#: overwrites them in place, so an ``O_DSYNC`` write flushes its data
#: and no file size: no journal commit.  They are written, never
#: ``fallocate``d: an unwritten extent is converted on its first write,
#: which is a journal commit again.
PREALLOCATE = 256 * 1024


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
    """A write-ahead log that is also a checksummed file.

    An append encodes its frame into an in-memory log buffer and makes
    no system call.  A *force* writes the whole buffer at the log's end
    with one ``pwrite`` on a file opened ``O_DSYNC``, which returns once
    the bytes are on disk: a writer's commit/abort record forces
    (subject to the group-commit window), and so do :meth:`sync`,
    :meth:`sync_to`, :meth:`flush_if_due` and :meth:`close`.  Until a
    force, frames live only in this process; a SIGKILL loses them.
    The file keeps :data:`PREALLOCATE` zero bytes past its last frame
    (the force that would eat into them writes the next segment's
    zeros after its frames, in the same ``pwrite``), and :meth:`close`
    truncates them.

    Two locks, taken in this order when both are held: ``_io_lock``
    serialises forces, and ``_wal_lock`` guards the LSN counter, the
    record list, the buffer and the force bookkeeping.  ``_wal_lock`` is
    never held across a system call, so an append never waits on a
    force's write.  A force that a concurrent one already
    covered returns without its own write; coverage is judged by append
    order, never by LSN, because an LSN is drawn before its append and a
    lower one can be appended after a higher one was forced.

    Args:
        path: The log file.  An existing durable file is *continued*
            (its records are loaded, a torn tail is cut, and appends
            resume after them); a log of another format version raises
            ``ValueError`` and is left as it is; anything else is
            truncated and started fresh.
        group_commit_window: Seconds a commit may wait for companions
            before forcing.  ``0.0`` (default) forces every
            writer's commit/abort record before its append returns — the
            no-surprises mode the crash harness uses.  Only a transaction
            that appended an update or subcommit record forces its
            outcome; a read-only one's is buffered, and becomes durable
            with the next force.
        group_commit_max: Batch cap: once this many forced commit/abort records
            are pending, force regardless of the window.
        clock: Injectable time source for the window (tests).
        buffering: Has no effect.  Frames wait in the log's own buffer
            and reach the OS only at a force, in one write; the argument
            stays so that callers passing it (the benchmark stacks'
            ``wal_buffering``) need no change.
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
        # Append order: frames appended so far, and how many of them the
        # last completed force covers.
        self._appended_seq = 0
        self._synced_seq = 0
        self._buffer: list[bytes] = []
        self._pending_commits = 0
        self._window_opened = 0.0
        # Transactions with an update or subcommit record and no outcome yet.
        self._writers: set[str] = set()
        # Frames and their bytes appended; collected at snapshot.
        self._appends = 0
        self._bytes_written = 0
        self._gc_syncs = _NULL
        self._gc_commits = _NULL
        self._gc_deferred = _NULL
        self._gc_bytes_synced = _NULL
        self._gc_batch = _NULL
        self._io_lock = threading.Lock()
        self._wal_lock = threading.Lock()
        # The end of the last frame, where the next force writes.
        self._end = self._resume(path)
        flags = os.O_WRONLY | os.O_CREAT | os.O_DSYNC | (0 if self._end else os.O_TRUNC)
        self._fd: Optional[int] = os.open(path, flags, 0o666)
        # Cut a torn tail and old zeros; the first write lays new ones.
        os.ftruncate(self._fd, self._end)
        self._allocated = self._end  # the file's size
        self._write(b"" if self._end else WAL_MAGIC)

    def _resume(self, path: str) -> int:
        """Load an existing log's records; its valid length, or 0 to
        start the file fresh."""
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as fh:
            if not is_wal_file(fh.read(len(WAL_MAGIC))):
                return 0
        scan = load_wal_file(path)
        self.records = scan.log.records
        self._next_lsn = scan.log.last_lsn
        self._durable_lsn = self._appended_lsn = self._next_lsn
        return scan.valid_bytes

    def bind_metrics(self, registry) -> None:
        """Record WAL activity into *registry* (``wal.*`` instruments):
        the append counts are collected, the group-commit ones pushed."""
        registry.add_collector(self._collect)
        self._gc_syncs = registry.counter("wal.group_commit.syncs")
        self._gc_commits = registry.counter("wal.group_commit.commits")
        self._gc_deferred = registry.counter("wal.group_commit.deferred")
        self._gc_bytes_synced = registry.counter("wal.group_commit.bytes_synced")
        self._gc_batch = registry.histogram("wal.group_commit.batch_size", _BATCH_BUCKETS)

    def _collect(self) -> dict:
        with self._wal_lock:
            return {"wal.appends": self._appends, "wal.bytes_written": self._bytes_written}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def next_lsn(self) -> int:
        with self._wal_lock:
            return super().next_lsn()

    def append(self, record: LogRecord) -> None:
        frame = encode_record(record)
        force_to = 0
        with self._wal_lock:
            super().append(record)
            if record.lsn > self._appended_lsn:
                self._appended_lsn = record.lsn
            self._buffer.append(frame)
            self._appended_seq += 1
            self._appends += 1
            self._bytes_written += len(frame)
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
                    force_to = self._appended_seq
                else:
                    self._gc_deferred.inc()
        if force_to:
            self._force(force_to)

    def flush_if_due(self) -> None:
        """Sync pending commits whose group-commit window has expired."""
        with self._wal_lock:
            due = (
                self._pending_commits > 0
                and self._clock() - self._window_opened >= self.group_commit_window
            )
            force_to = self._appended_seq
        if due:
            self._force(force_to)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    def sync(self) -> None:
        """Force the buffer; everything appended is durable."""
        self._force(self._appended_seq)

    def sync_to(self, lsn: int) -> None:
        if lsn > self._durable_lsn:
            self.sync()

    def _force(self, seq: int) -> None:
        """Make the first *seq* appended frames durable, unless a force
        that finished while this one waited already did."""
        with self._io_lock:
            if self._synced_seq < seq:
                self._write_buffer()

    def _write_buffer(self) -> None:
        """One durable write of everything buffered (holding ``_io_lock``)."""
        with self._wal_lock:
            frames, self._buffer = self._buffer, []
            seq, lsn = self._appended_seq, self._appended_lsn
            batch, self._pending_commits = self._pending_commits, 0
        data = b"".join(frames)
        self._write(data)
        self._synced_seq = seq
        self._durable_lsn = lsn
        self._gc_syncs.inc()
        if batch:
            self._gc_batch.observe(batch)
        self._gc_bytes_synced.inc(len(data))

    def _write(self, data: bytes) -> None:
        """Write *data* at the valid end, durably.  If it would leave less
        than a frame header of zeros after it, write the next segment's
        zeros after it in the same call: the scan must meet a whole zero
        header where the frames end."""
        end = self._end + len(data)
        if end + FRAME_HEADER.size > self._allocated:
            data += bytes(PREALLOCATE)
            self._allocated = end + PREALLOCATE
        view, offset = memoryview(data), self._end
        while view:
            written = os.pwrite(self._fd, view, offset)
            view, offset = view[written:], offset + written
        self._end = end

    def close(self) -> None:
        with self._io_lock:
            if self._fd is not None:
                if self._synced_seq < self._appended_seq:
                    self._write_buffer()
                os.ftruncate(self._fd, self._end)
                os.close(self._fd)
                self._fd = None

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
    *path* is not a WAL file at all, is one of another format version
    (:func:`~repro.storage.walformat.is_wal_file`), or holds a
    checksummed frame of an unknown record kind.
    """
    # The cluster's record kinds are imported when a log is read: the
    # cluster package sits above storage and loads the server with it.
    from repro.cluster.records import (
        ClusterAckRecord,
        ClusterDecisionRecord,
        ClusterPrepareRecord,
    )

    with open(path, "rb") as fh:
        data = fh.read()
    if not is_wal_file(data):
        raise ValueError(f"{path} is not a durable WAL file")
    scan = iter_frames(data)
    kinds = {
        cls.KIND: cls
        for cls in (
            UpdateRecord,
            SubtxnCommitRecord,
            TxnStatusRecord,
            ClusterPrepareRecord,
            ClusterDecisionRecord,
            ClusterAckRecord,
        )
    }
    records = []
    for payload in scan.payloads:
        kind, *fields = pickle.loads(payload)
        if kind not in kinds:
            raise ValueError(f"{path}: a checksummed frame has unknown record kind {kind!r}")
        records.append(kinds[kind]._make(fields))
    # Frames can land on disk out of LSN order under threaded appenders
    # (LSN draw and file write are separate steps); LSN order is the
    # true update order.
    records.sort(key=lambda r: r.lsn)
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
