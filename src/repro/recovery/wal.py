"""The write-ahead log.

Record kinds:

* :class:`UpdateRecord` — one physical state change: a ``Put`` (before
  and after values), ``Insert`` (key + member snapshot) or ``Remove``
  (key + member snapshot, for undo) on a logically addressed object,
  tagged with the acting transaction and the full node-id path of the
  action (root → leaf) so the undo pass can tell which changes a
  logically-compensated subtransaction covers;
* :class:`SubtxnCommitRecord` — a committed non-read-only method
  subtransaction: target address, invocation, its registered inverse
  invocation (None for structural-undo-only methods), the node ids of
  its whole subtree, and — for compensations — the node id of the
  action it compensates;
* :class:`TxnStatusRecord` — transaction begin / commit / abort.

Each kind is a :class:`typing.NamedTuple`: immutable, built at tuple
cost, and framed on disk as the plain tuple ``(KIND, *fields)``
(:func:`repro.storage.walformat.encode_record`), where ``KIND`` is the
class's frame tag.  The kernel's kinds take tags 0-2; the cluster's
2PC records (:mod:`repro.cluster.records`) take 3-5.

The log is in-memory (this is a simulation of durable storage); it can
be saved to a file in the durable frame format to simulate surviving the
crash, and its list of records is treated as the durable truth during
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional, Union

from repro.recovery.addresses import Address


class UpdateRecord(NamedTuple):
    """A physical change to the database state."""

    KIND = 0  # frame tag

    lsn: int
    txn: str
    node_path: tuple[str, ...]  # node ids from transaction root to the leaf
    operation: str  # "Put" | "Insert" | "Remove"
    target: Address
    # Put:
    before: Any = None
    after: Any = None
    # Insert / Remove:
    key: Any = None
    member_snapshot: Optional[dict] = None


class SubtxnCommitRecord(NamedTuple):
    """A committed method subtransaction (non-read-only)."""

    KIND = 1  # frame tag

    lsn: int
    txn: str
    node_id: str
    subtree_ids: tuple[str, ...]
    target: Address
    operation: str
    args: tuple[Any, ...]
    inverse_operation: Optional[str] = None
    inverse_args: tuple[Any, ...] = ()
    compensates: Optional[str] = None  # node id this compensation undoes


class TxnStatusRecord(NamedTuple):
    """Transaction lifecycle: begin / commit / abort."""

    KIND = 2  # frame tag

    lsn: int
    txn: str
    status: str  # "begin" | "commit" | "abort"


LogRecord = Union[UpdateRecord, SubtxnCommitRecord, TxnStatusRecord]


@dataclass
class WriteAheadLog:
    """Append-only record list with monotone LSNs."""

    records: list[LogRecord] = field(default_factory=list)
    _next_lsn: int = 0

    def next_lsn(self) -> int:
        self._next_lsn += 1
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """The highest LSN handed out so far (0 before the first)."""
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """The highest LSN guaranteed to survive a crash.

        The in-memory log *is* the durable medium of the simulation, so
        everything appended counts; the file-backed subclass
        (:class:`repro.storage.durable.DurableWriteAheadLog`) overrides
        this with the last *fsynced* LSN.
        """
        return self._next_lsn

    def bind_metrics(self, registry) -> None:
        """Meter log activity into *registry* (nothing to meter here; the
        file-backed subclass records its ``wal.*`` instruments)."""

    def sync(self) -> None:
        """Force durability of everything appended so far (no-op here)."""

    def sync_to(self, lsn: int) -> None:
        """Force durability up to *lsn* — the WAL-before-data hook.

        The buffer pool calls this before writing back a dirty page
        whose ``page_lsn`` exceeds :attr:`durable_lsn`.  In-memory logs
        are always durable, so this is a no-op.
        """

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def prefix(self, length: int) -> "WriteAheadLog":
        """The log as it would look after a crash at record *length*.

        Used by the crash-point sweep tests: every prefix of the log is
        a legal crash state.
        """
        clone = WriteAheadLog(records=list(self.records[:length]))
        clone._next_lsn = self._next_lsn
        return clone

    def outcomes(self) -> dict[str, str]:
        """``{txn: "commit" | "abort" | "in-flight"}`` in first-appearance
        order — the analysis pass, in one walk of the log."""
        outcome: dict[str, str] = {}
        for record in self.records:
            if isinstance(record, TxnStatusRecord):
                if record.status == "begin":
                    outcome.setdefault(record.txn, "in-flight")
                else:
                    outcome[record.txn] = record.status
        return outcome

    def status_of(self, txn: str) -> str:
        """The transaction's durable outcome: committed/aborted/in-flight."""
        return self.outcomes().get(txn, "unknown")

    def transactions(self) -> list[str]:
        return list(self.outcomes())

    # ------------------------------------------------------------------
    # Durable media
    # ------------------------------------------------------------------
    def save_durable(self, path: str) -> None:
        """Write the on-disk format: magic + checksummed record frames.

        The same framing :class:`repro.storage.durable.DurableWriteAheadLog`
        appends incrementally; files written either way are
        interchangeable.
        """
        from repro.storage.walformat import WAL_MAGIC, encode_record

        with open(path, "wb") as fh:
            fh.write(WAL_MAGIC)
            for record in self.records:
                fh.write(encode_record(record))
            fh.flush()

    @staticmethod
    def load(path: str) -> "WriteAheadLog":
        """Read a saved log in LSN order; ``ValueError`` if *path* is not one.

        A partial trailing record (crash mid-append) is detected by its
        length/checksum frame and discarded, never raising.
        """
        from repro.storage.durable import load_wal_file

        return load_wal_file(path).log
