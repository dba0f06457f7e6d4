"""Tests for multi-level crash recovery (WAL + redo + logical undo)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import TransactionManager, run_transactions
from repro.errors import UnknownObjectError
from repro.faults.torture import serial_replay, state_of
from repro.orderentry.schema import (
    ITEM_TYPE,
    ORDER_TYPE,
    build_order_entry_database,
)
from repro.orderentry.transactions import make_new_order_txn, make_t1, make_t2
from repro.recovery import (
    WriteAheadLog,
    address_of,
    rebuild_snapshot,
    recover,
    resolve_address,
    snapshot,
)
from repro.recovery.wal import SubtxnCommitRecord, TxnStatusRecord, UpdateRecord
from repro.runtime.scheduler import Scheduler
from tests.helpers import examples

TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}


class TestAddresses:
    def test_roundtrip_all_objects(self, order_entry):
        for obj in order_entry.db.subtree():
            if obj is order_entry.db:
                continue
            address = address_of(obj)
            assert resolve_address(order_entry.db, address) is obj

    @settings(max_examples=examples(25), deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["place", "place-abort", "cancel"]),
                st.integers(0, 1),
                st.integers(0, 15),
            ),
            max_size=10,
        )
    )
    def test_walk_agrees_with_resolve_after_place_cancel_programs(self, steps):
        """Places (committed, or aborted and compensated by
        ``CancelOrder``) and generic removes add and drop order members;
        afterwards every attached object's address resolves back to it,
        and the address a removed member had raises."""
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        db = built.db
        members: dict[int, tuple] = {}  # id -> (member, its address while attached)

        def note_members() -> None:
            for i in range(2):
                for __, member in built.item(i).impl_component("Orders").raw_scan():
                    members[id(member)] = (member, address_of(member))

        note_members()
        for n, (op, i, pick) in enumerate(steps):
            item = built.item(i)
            orders = item.impl_component("Orders")
            if op == "cancel":
                keys = [key for key, __ in orders.raw_scan()]
                if not keys:
                    continue
                key = keys[pick % len(keys)]

                async def program(tx, orders=orders, key=key):
                    await tx.remove(orders, key)

            elif op == "place":
                program = make_new_order_txn(item, n, 1)
            else:

                async def program(tx, item=item, n=n):
                    await tx.call(item, "NewOrder", n, 1)
                    tx.abort()

            kernel = run_transactions(db, {f"T{n}": program})
            assert kernel.handles[f"T{n}"].committed == (op != "place-abort")
            note_members()

        for obj in db.subtree():
            if obj is not db:
                assert resolve_address(db, address_of(obj)) is obj
        for member, address in members.values():
            if member.parent is not None:
                continue
            assert member.key_in_parent is None
            with pytest.raises(UnknownObjectError):
                resolve_address(db, address)

    def test_stale_key_raises(self, order_entry):
        """A child whose parent no longer files it under its recorded
        key is not silently addressed."""
        order = order_entry.order(0, 0)
        order.key_in_parent = "no such key"
        with pytest.raises(UnknownObjectError):
            address_of(order)
        with pytest.raises(UnknownObjectError):
            address_of(order.impl_component("Status"))

    def test_snapshot_rebuild_order(self, order_entry):
        order = order_entry.order(0, 0)
        description = snapshot(order)
        rebuilt = rebuild_snapshot(order_entry.db, description, TYPE_SPECS)
        assert rebuilt.spec is ORDER_TYPE
        assert rebuilt.impl_component("OrderNo").raw_get() == 1
        assert rebuilt.impl_component("Status").raw_get().events == frozenset()

    def test_rebuild_unknown_spec_rejected(self, order_entry):
        from repro.errors import UnknownObjectError

        description = snapshot(order_entry.order(0, 0))
        with pytest.raises(UnknownObjectError):
            rebuild_snapshot(order_entry.db, description, {})


class TestWalContent:
    def run_logged(self, programs, builder=None, max_steps=None):
        built = (builder or (lambda: build_order_entry_database(2, 2)))()
        wal = WriteAheadLog()
        kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
        for name, factory in programs(built).items():
            kernel.spawn(name, factory)
        finished = kernel.scheduler.run(max_steps=max_steps)
        if not finished:
            kernel.scheduler.shutdown()
        return built, wal, kernel

    @staticmethod
    def ship_pay(built):
        return {
            "T1": make_t1(built.item(0), 1, built.item(1), 2),
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
        }

    def test_commit_records_present(self):
        __, wal, __k = self.run_logged(self.ship_pay)
        statuses = [r for r in wal if isinstance(r, TxnStatusRecord)]
        assert [r.status for r in statuses if r.txn == "T1"] == ["begin", "commit"]
        assert wal.status_of("T1") == "commit"

    def test_subtxn_commits_carry_inverses(self):
        __, wal, __k = self.run_logged(self.ship_pay)
        ships = [
            r
            for r in wal
            if isinstance(r, SubtxnCommitRecord) and r.operation == "ShipOrder"
        ]
        assert len(ships) == 2
        assert all(r.inverse_operation == "UnshipOrder" for r in ships)
        assert all(r.subtree_ids for r in ships)

    def test_readonly_methods_not_logged(self):
        def progs(built):
            async def t5(tx):
                return await tx.call(built.item(0), "TotalPayment")

            return {"T5": t5}

        __, wal, __k = self.run_logged(progs)
        assert not [r for r in wal if isinstance(r, SubtxnCommitRecord)]
        assert not [r for r in wal if isinstance(r, UpdateRecord)]

    def test_insert_logs_member_snapshot(self):
        def progs(built):
            return {"N": make_new_order_txn(built.item(0), 700, 2)}

        __, wal, __k = self.run_logged(progs)
        inserts = [
            r for r in wal if isinstance(r, UpdateRecord) and r.operation == "Insert"
        ]
        assert len(inserts) == 1
        assert inserts[0].member_snapshot is not None
        assert inserts[0].member_snapshot["kind"] == "encapsulated"

    def test_detached_object_changes_not_logged(self):
        """NewOrder initialises atoms of the order before inserting it;
        those changes live inside the Insert snapshot, not as records."""

        def progs(built):
            return {"N": make_new_order_txn(built.item(0), 700, 2)}

        __, wal, __k = self.run_logged(progs)
        puts = [r for r in wal if isinstance(r, UpdateRecord) and r.operation == "Put"]
        # only the NextOrderNo counter update is an attached Put
        assert len(puts) == 1

    def test_status_of_in_flight(self):
        __, wal, __k = self.run_logged(self.ship_pay, max_steps=12)
        assert "in-flight" in {wal.status_of(t) for t in wal.transactions()}

    def test_save_load_roundtrip(self, tmp_path):
        __, wal, __k = self.run_logged(self.ship_pay)
        path = str(tmp_path / "wal.log")
        wal.save_durable(path)
        loaded = WriteAheadLog.load(path)
        assert len(loaded) == len(wal)
        assert loaded.status_of("T2") == "commit"


def run_crash(programs_factory, builder, max_steps):
    built = builder()
    wal = WriteAheadLog()
    kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
    for name, program in programs_factory(built).items():
        kernel.spawn(name, program)
    finished = kernel.scheduler.run(max_steps=max_steps)
    if not finished:
        kernel.scheduler.shutdown()
    return built, wal, kernel


class TestRecovery:
    BUILDER = staticmethod(lambda: build_order_entry_database(2, 2))

    @staticmethod
    def programs(built):
        return {
            "T1": make_t1(built.item(0), 1, built.item(1), 2),
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
            "N1": make_new_order_txn(built.item(0), 777, 3),
        }

    def oracle(self, winners):
        fresh = self.BUILDER()
        serial_replay(fresh.db, winners, self.programs(fresh).__getitem__)
        return state_of(fresh.db)

    def test_recovery_of_complete_run_reproduces_state(self):
        built, wal, __ = run_crash(self.programs, self.BUILDER, None)
        restored = self.BUILDER()
        report = recover(restored.db, wal, TYPE_SPECS)
        assert not report.losers
        assert state_of(restored.db) == state_of(built.db)
        assert report.redone == sum(isinstance(r, UpdateRecord) for r in wal)

    @pytest.mark.parametrize("crash_at", range(0, 140, 5))
    def test_crash_point_sweep(self, crash_at):
        """At every crash point: recovered state == serial execution of
        exactly the durably-committed transactions."""
        built, wal, __ = run_crash(self.programs, self.BUILDER, crash_at)
        restored = self.BUILDER()
        report = recover(restored.db, wal, TYPE_SPECS)
        winners = [
            r.txn
            for r in wal
            if isinstance(r, TxnStatusRecord) and r.status == "commit"
        ]
        assert state_of(restored.db) == self.oracle(winners), report

    def test_loser_new_order_disappears(self):
        """Crash right after NewOrder's subtransaction committed but
        before N1's top-level commit: recovery cancels the order."""
        def programs(built):
            async def n1(tx):
                order_no = await tx.call(built.item(0), "NewOrder", 777, 3)
                for __ in range(20):
                    await tx.pause()  # a wide window before the commit
                return order_no

            return {"N1": n1}

        found = False
        for crash_at in range(4, 40, 2):
            built, wal, __ = run_crash(programs, self.BUILDER, crash_at)
            n1_inserts = [
                r
                for r in wal
                if isinstance(r, UpdateRecord)
                and r.txn == "N1"
                and r.operation == "Insert"
            ]
            if n1_inserts and wal.status_of("N1") == "in-flight":
                found = True
                restored = self.BUILDER()
                report = recover(restored.db, wal, TYPE_SPECS)
                orders = restored.item(0).impl_component("Orders")
                assert orders.raw_size() == 2  # the pre-existing orders only
                assert report.compensated >= 1
        assert found, "no crash point hit the committed-subtxn window"

    def test_crash_during_abort_completes_the_abort(self):
        """A transaction that aborted in-flight (compensations partially
        logged, no abort record) is finished off by recovery."""
        def programs(built):
            async def doomed(tx):
                await tx.call(built.item(0), "PayOrder", 1)
                tx.abort("business rule")

            return {"D": doomed}

        # sweep crash points through the abort path
        for crash_at in range(5, 60, 2):
            built, wal, __ = run_crash(programs, self.BUILDER, crash_at)
            if wal.status_of("D") != "in-flight":
                continue
            restored = self.BUILDER()
            recover(restored.db, wal, TYPE_SPECS)
            status = restored.status_atom(0, 0).raw_get()
            assert "paid" not in status, f"crash@{crash_at}"
        # and the completed abort also recovers clean
        built, wal, __ = run_crash(programs, self.BUILDER, None)
        assert wal.status_of("D") == "abort"
        restored = self.BUILDER()
        report = recover(restored.db, wal, TYPE_SPECS)
        assert "paid" not in restored.status_atom(0, 0).raw_get()
        assert not report.losers

    def test_report_string(self):
        built, wal, __ = run_crash(self.programs, self.BUILDER, 40)
        restored = self.BUILDER()
        report = recover(restored.db, wal, TYPE_SPECS)
        text = str(report)
        assert "recovery:" in text and "redone" in text


class CountingRecords(list):
    """A record list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def synthetic_log(n: int) -> WriteAheadLog:
    """*n* transactions, a third each committed, aborted and in flight."""
    records = CountingRecords()
    for i in range(n):
        records.append(TxnStatusRecord(lsn=len(records) + 1, txn=f"T{i}", status="begin"))
        if i % 3 != 2:
            outcome = "commit" if i % 3 == 0 else "abort"
            records.append(TxnStatusRecord(lsn=len(records) + 1, txn=f"T{i}", status=outcome))
    return WriteAheadLog(records=records)


class TestAnalysisPass:
    def test_outcomes_in_first_appearance_order(self):
        wal = synthetic_log(4)
        assert wal.outcomes() == {"T0": "commit", "T1": "abort", "T2": "in-flight", "T3": "commit"}
        assert wal.transactions() == ["T0", "T1", "T2", "T3"]
        assert [wal.status_of(t) for t in wal.transactions()] == list(wal.outcomes().values())
        assert wal.status_of("nobody") == "unknown"

    def test_recover_walks_the_log_a_constant_number_of_times(self):
        from repro.objects.database import Database

        walks = {}
        for n in (10, 1000):
            wal = synthetic_log(n)
            report = recover(Database(), wal)
            assert len(report.winners) + len(report.aborted) + len(report.losers) == n
            walks[n] = wal.records.walks
        assert walks[10] == walks[1000], walks
