"""Crash recovery: redo by repeating history, multi-level undo of losers.

:func:`recover` takes a *restored initial database* (the "backup" — in
this in-memory simulation, a fresh database built by the same
deterministic construction as the crashed one) and the surviving
write-ahead log, and brings the database to a transaction-consistent
state:

1. **Analysis** — each logged transaction is classified by its durable
   outcome, in one walk of the log (:meth:`WriteAheadLog.outcomes`):
   ``commit`` / ``abort`` (winners — an aborted transaction's
   compensations are themselves logged and redone, so it is already
   clean) or *in-flight* (losers).
2. **Redo** — every physical update record is replayed in LSN order,
   repeating history exactly: value Puts, set Inserts (members rebuilt
   from their logged snapshots), Removes.
3. **Undo** — losers are rolled back newest-first at the highest
   possible level, the multi-level recovery rule of [WHBM90, HW91]:

   * a *committed subtransaction* of a loser is compensated
     **logically** by executing its registered inverse method on the
     recovered database (under a fresh kernel), and its whole subtree
     is marked covered — its leaf updates must *not* also be undone
     physically;
   * a committed *compensation* found in the log (the crash hit during
     an abort) stands, and marks the action it compensated as covered;
   * remaining uncovered physical updates are undone physically, in
     reverse order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import CompensationError
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.recovery.addresses import rebuild_snapshot, resolve_address
from repro.recovery.wal import (
    SubtxnCommitRecord,
    TxnStatusRecord,
    UpdateRecord,
    WriteAheadLog,
)


@dataclass
class RecoveryReport:
    """What recovery did, for assertions and operator visibility."""

    winners: list[str] = field(default_factory=list)
    aborted: list[str] = field(default_factory=list)
    losers: list[str] = field(default_factory=list)
    redone: int = 0
    compensated: int = 0
    physically_undone: int = 0
    # Wall-clock pass durations (seconds), for the perf trajectory.
    analysis_seconds: float = 0.0
    redo_seconds: float = 0.0
    undo_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.analysis_seconds + self.redo_seconds + self.undo_seconds

    def __str__(self) -> str:
        return (
            f"recovery: {len(self.winners)} committed, {len(self.aborted)} cleanly "
            f"aborted, {len(self.losers)} losers; {self.redone} updates redone, "
            f"{self.compensated} subtransactions compensated, "
            f"{self.physically_undone} updates physically undone "
            f"({self.total_seconds * 1e3:.2f} ms)"
        )


def _apply_redo(db: Database, record: UpdateRecord, type_specs) -> None:
    target = resolve_address(db, record.target)
    if record.operation == "Put":
        target.raw_put(record.after)
    elif record.operation == "Insert":
        assert record.member_snapshot is not None
        member = rebuild_snapshot(db, record.member_snapshot, type_specs)
        target.raw_insert(record.key, member)
    elif record.operation == "Remove":
        member = target.raw_remove(record.key)
        db.destroy(member)
    else:  # pragma: no cover - malformed log
        raise ValueError(f"unknown update operation {record.operation!r}")


def _apply_physical_undo(db: Database, record: UpdateRecord, type_specs) -> None:
    target = resolve_address(db, record.target)
    if record.operation == "Put":
        target.raw_put(record.before)
    elif record.operation == "Insert":
        member = target.raw_remove(record.key)
        db.destroy(member)
    elif record.operation == "Remove":
        assert record.member_snapshot is not None
        member = rebuild_snapshot(db, record.member_snapshot, type_specs)
        target.raw_insert(record.key, member)
    else:  # pragma: no cover - malformed log
        raise ValueError(f"unknown update operation {record.operation!r}")


def _run_inverse(
    db: Database, record: SubtxnCommitRecord, type_specs
) -> None:
    """Execute a loser subtransaction's inverse under a fresh kernel."""
    from repro.core.kernel import run_transactions

    target = resolve_address(db, record.target)
    operation = record.inverse_operation
    args = tuple(record.inverse_args)
    assert operation is not None

    async def compensate(tx):
        return await tx.call(target, operation, *args)

    kernel = run_transactions(db, {f"recovery-{record.lsn}": compensate})
    handle = kernel.handles[f"recovery-{record.lsn}"]
    if not handle.committed:  # pragma: no cover - defensive
        raise CompensationError(
            f"recovery compensation {operation}{args} failed: {handle.error}"
        )


def recover(
    db: Database,
    wal: WriteAheadLog,
    type_specs: Optional[Mapping[str, TypeSpec]] = None,
    metrics=None,
) -> RecoveryReport:
    """Recover *db* (a restored initial state) from *wal*; see module doc.

    When *metrics* (a :class:`~repro.obs.MetricsRegistry`) is given the
    pass counts are also recorded as ``recovery.*`` counters — two
    recoveries of the same log must produce identical counts, which the
    determinism regression test asserts by diffing snapshots.
    """
    report = RecoveryReport()

    # ----- analysis -----
    started = time.perf_counter()
    for txn, status in wal.outcomes().items():
        if status == "commit":
            report.winners.append(txn)
        elif status == "abort":
            report.aborted.append(txn)
        else:
            report.losers.append(txn)
    losers = set(report.losers)
    report.analysis_seconds = time.perf_counter() - started

    # ----- redo: repeat history -----
    started = time.perf_counter()
    for record in wal:
        if isinstance(record, UpdateRecord):
            _apply_redo(db, record, type_specs)
            report.redone += 1
    report.redo_seconds = time.perf_counter() - started

    # ----- undo losers, newest first, highest level first -----
    started = time.perf_counter()
    covered: set[str] = set()
    for record in reversed(list(wal)):
        if isinstance(record, TxnStatusRecord) or record.txn not in losers:
            continue
        if isinstance(record, SubtxnCommitRecord):
            if record.compensates is not None:
                # A compensation that committed before the crash stands;
                # the action it compensated is already undone.
                covered.add(record.node_id)
                covered.update(record.subtree_ids)
                covered.add(record.compensates)
                continue
            if record.node_id in covered:
                covered.update(record.subtree_ids)
                continue
            if record.inverse_operation is not None:
                _run_inverse(db, record, type_specs)
                report.compensated += 1
                covered.update(record.subtree_ids)
            # no inverse: the subtransaction's leaves are undone
            # physically below (structural undo)
            continue
        if not isinstance(record, UpdateRecord):
            # Foreign record types (e.g. cluster 2PC prepare/decision
            # frames) carry no physical state to undo.
            continue
        if any(node_id in covered for node_id in record.node_path):
            continue
        _apply_physical_undo(db, record, type_specs)
        report.physically_undone += 1
    report.undo_seconds = time.perf_counter() - started

    if metrics is not None:
        metrics.counter("recovery.runs").inc()
        metrics.counter("recovery.winners").inc(len(report.winners))
        metrics.counter("recovery.aborted").inc(len(report.aborted))
        metrics.counter("recovery.losers").inc(len(report.losers))
        metrics.counter("recovery.redone").inc(report.redone)
        metrics.counter("recovery.compensated").inc(report.compensated)
        metrics.counter("recovery.physically_undone").inc(report.physically_undone)
    return report
