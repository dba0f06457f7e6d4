"""Tests for transaction-consistent checkpoints."""

from __future__ import annotations

import pytest

from repro.core.kernel import TransactionManager, run_transactions
from repro.faults.torture import state_of
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.recovery import WriteAheadLog
from repro.recovery.checkpoint import (
    CheckpointError,
    recover_from_checkpoint,
    restore_checkpoint,
    take_checkpoint,
)
from repro.runtime.scheduler import Scheduler


TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}


def run_logged(built, programs, wal, max_steps=None):
    kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
    for name, program in programs.items():
        kernel.spawn(name, program)
    finished = kernel.scheduler.run(max_steps=max_steps)
    if not finished:
        kernel.scheduler.shutdown()
    return kernel, finished


class TestCheckpointLifecycle:
    def test_restore_reproduces_state(self):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        wal = WriteAheadLog()
        run_logged(built, {"T1": make_t1(built.item(0), 1, built.item(1), 2)}, wal)
        checkpoint = take_checkpoint(built.db, wal)
        restored = restore_checkpoint(checkpoint, TYPE_SPECS)
        assert state_of(restored, exclude=()) == state_of(
            built.db, exclude=()
        )

    def test_checkpoint_requires_quiescence(self):
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        wal = WriteAheadLog()
        kernel, finished = run_logged(
            built, {"T2": make_t2(built.item(0), 1, built.item(0), 1)}, wal, max_steps=6
        )
        assert not finished
        with pytest.raises(CheckpointError, match="quiescence"):
            take_checkpoint(built.db, wal, kernel=kernel)

    def test_checkpoint_records_wal_position(self):
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        wal = WriteAheadLog()
        run_logged(built, {"T2": make_t2(built.item(0), 1, built.item(0), 1)}, wal)
        checkpoint = take_checkpoint(built.db, wal)
        assert checkpoint.lsn == max(r.lsn for r in wal)


class TestRecoveryFromCheckpoint:
    def test_suffix_only_replay(self):
        """Run T1, checkpoint, run T2 + an in-flight N1, crash, recover
        from the checkpoint: T1 comes from the snapshot, T2 from redo,
        N1 is compensated."""
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        wal = WriteAheadLog()
        run_logged(built, {"T1": make_t1(built.item(0), 1, built.item(1), 2)}, wal)
        checkpoint = take_checkpoint(built.db, wal)
        pre_checkpoint_records = len(wal)

        # phase 1: T2 runs to completion on the same kernel/log
        kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
        assert wal.status_of("T2") == "commit"

        # phase 2: N1 starts, commits its NewOrder subtransaction, and
        # the process crashes while it lingers before top-level commit
        async def n1(tx):
            await tx.call(built.item(0), "NewOrder", 900, 2)
            for __ in range(50):
                await tx.pause()

        kernel.spawn("N1", n1)
        finished = kernel.scheduler.run(max_steps=30)
        kernel.scheduler.shutdown()
        assert not finished  # N1 in flight at the crash
        assert wal.status_of("N1") == "in-flight"

        recovered, report = recover_from_checkpoint(checkpoint, wal, TYPE_SPECS)
        # only the suffix was replayed
        assert report.redone < len(wal)
        assert report.redone == sum(
            1
            for r in wal
            if r.lsn > checkpoint.lsn and type(r).__name__ == "UpdateRecord"
        )
        # expected state: T1 and T2 applied, N1 gone
        oracle = build_order_entry_database(n_items=2, orders_per_item=2)
        run_transactions(oracle.db, {"T1": make_t1(oracle.item(0), 1, oracle.item(1), 2)})
        run_transactions(oracle.db, {"T2": make_t2(oracle.item(0), 1, oracle.item(1), 2)})
        assert state_of(recovered) == state_of(oracle.db)
        if wal.status_of("N1") == "in-flight":
            assert "N1" in report.losers

    def test_recover_from_checkpoint_with_clean_suffix(self):
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        wal = WriteAheadLog()
        run_logged(built, {"T2": make_t2(built.item(0), 1, built.item(0), 1)}, wal)
        checkpoint = take_checkpoint(built.db, wal)
        recovered, report = recover_from_checkpoint(checkpoint, wal, TYPE_SPECS)
        assert report.redone == 0
        assert not report.losers
        assert state_of(recovered) == state_of(built.db)
