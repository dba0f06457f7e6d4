"""Phantom protection through set-operation semantics.

The generic set matrix makes ``Scan`` conflict with ``Insert``/``Remove``
and keyed operations conflict exactly on equal keys — so repeatable
scans (no phantoms) fall out of ordinary semantic locking, without a
separate predicate-lock mechanism.
"""

from __future__ import annotations

from repro.core.serializability import is_semantically_serializable
from repro.orderentry.schema import build_order_entry_database
from repro.orderentry.transactions import make_new_order_txn

from tests.helpers import run_programs


class TestRepeatableScan:
    def test_double_scan_sees_no_phantom(self):
        """A transaction scanning Orders twice must count the same
        members both times, despite a concurrent NewOrder."""
        for seed in range(8):
            built = build_order_entry_database(n_items=1, orders_per_item=2)
            orders_set = built.item(0).impl_component("Orders")

            async def double_scan(tx):
                first = len(await tx.scan(orders_set))
                for __ in range(6):
                    await tx.pause()
                second = len(await tx.scan(orders_set))
                return (first, second)

            kernel = run_programs(
                built.db,
                {
                    "SCAN": double_scan,
                    "NEW": make_new_order_txn(built.item(0), 500, 1),
                },
                policy="random",
                seed=seed,
            )
            result = kernel.handles["SCAN"].result
            if result is not None:
                first, second = result
                assert first == second, f"phantom under seed {seed}: {result}"
            assert is_semantically_serializable(kernel.history(), db=built.db).serializable

    def test_scan_blocks_insert_until_scanner_done(self):
        """Direct Scan (bypassing TotalPayment) vs a NewOrder's Insert:
        the insert must wait for the scanner's commit (the Scan lock is
        held by a top-level action — no commutative ancestor relief)."""
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        orders_set = built.item(0).impl_component("Orders")

        async def scanner(tx):
            members = await tx.scan(orders_set)
            for __ in range(8):
                await tx.pause()
            return len(members)

        kernel = run_programs(
            built.db,
            {
                "SCAN": scanner,
                "NEW": make_new_order_txn(built.item(0), 500, 1),
            },
        )
        insert_blocks = [
            e
            for e in kernel.trace.of_kind("block")
            if e.txn == "NEW" and "Insert" in str(e.detail.get("mode"))
        ]
        assert insert_blocks, "Insert should have waited for the scan"
        assert insert_blocks[0].detail["waits_for"] == ["SCAN"]
        assert kernel.handles["SCAN"].result == 1  # saw the old state

    def test_totalpayment_scan_gets_ancestor_relief(self):
        """The same Scan/Insert conflict *inside* TotalPayment/NewOrder
        is relieved at the Item level (both methods on the same item,
        TotalPayment/NewOrder compatible): the insert waits only for the
        TotalPayment *subtransaction*, not the whole transaction."""
        from repro.core.kernel import TransactionManager
        from repro.runtime.scheduler import Scheduler

        built = build_order_entry_database(n_items=1, orders_per_item=1)
        scheduler = Scheduler()
        kernel = TransactionManager(built.db, scheduler=scheduler)
        gate = scheduler.create_signal()

        def probe(node, phase):
            # suspend T5 between its Scan and its status reads — with
            # TotalPayment itself still active...
            if (
                phase == "post"
                and node.invocation.operation == "Scan"
                and node.top_level_name == "T5"
                and not gate.done
            ):
                return gate
            # ...and release it the moment NEW's Insert files its lock
            # request (same scheduler step: the request queues first).
            if (
                phase == "pre"
                and node.invocation.operation == "Insert"
                and node.top_level_name == "NEW"
            ):
                gate.fire()
            return None

        kernel.probe = probe

        async def t5(tx):
            return await tx.call(built.item(0), "TotalPayment")

        async def newer(tx):
            return await tx.call(built.item(0), "NewOrder", 500, 1)

        kernel.spawn("T5", t5)
        kernel.spawn("NEW", newer)
        kernel.run()

        insert_blocks = [
            e
            for e in kernel.trace.of_kind("block")
            if e.txn == "NEW" and "Insert" in str(e.detail.get("mode"))
        ]
        assert insert_blocks
        history = kernel.history()
        total = next(r for r in history.records if r.operation == "TotalPayment")
        # case 2: the blocker is the TotalPayment subtransaction
        assert insert_blocks[0].detail["waits_for"] == [total.node_id]
        assert kernel.handles["NEW"].committed
        assert kernel.handles["T5"].committed
