"""The one restart budget, ``TransactionManager.MAX_RESTARTS``, and its
escalation to a top-level abort."""

from __future__ import annotations

import pytest

from repro.core.kernel import TransactionManager, run_transactions
from repro.errors import RetryExhausted
from repro.faults import FaultPlan, FaultSpec
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.orderentry.schema import build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.runtime.threaded import ThreadedKernel


class TestOneRestartBudget:
    def test_policy_sets_the_budget(self, db, monkeypatch):
        monkeypatch.setattr(TransactionManager, "MAX_RESTARTS", 7)
        assert TransactionManager(db).MAX_RESTARTS == 7
        assert ThreadedKernel(db).MAX_RESTARTS == 7

    def test_default_matches_historical_constant(self, db):
        assert TransactionManager(db).MAX_RESTARTS == TransactionManager.MAX_RESTARTS == 25

    def test_second_spelling_is_gone(self, db):
        for spelling in ("max_subtxn_restarts", "retry_policy"):
            with pytest.raises(TypeError):
                TransactionManager(db, **{spelling: 7})
            with pytest.raises(TypeError):
                run_transactions(db, {}, **{spelling: 7})
            with pytest.raises(TypeError):
                ThreadedKernel(db, **{spelling: 7})
            assert not hasattr(TransactionManager(db), spelling)

    def test_victim_resolution_reads_the_policy(self, monkeypatch):
        # Two commuting Adds deadlock on the counter's value atom; the
        # victim's Add is restarted while the budget allows, aborted
        # once it does not.
        def outcome():
            spec = TypeSpec("RCounter")

            @spec.method
            async def Add(ctx, counter, amount):
                atom = counter.impl_component("value")
                await ctx.put(atom, await ctx.get(atom) + amount)

            spec.matrix.allow("Add", "Add")
            db = Database()
            obj = db.new_encapsulated(spec, "c")
            db.attach_child(obj)
            impl = db.new_tuple("impl")
            impl.add_component("value", db.new_atom("value", 0))
            obj.set_implementation(impl)

            def adder(amount):
                async def program(tx):
                    await tx.call(obj, "Add", amount)

                return program

            kernel = run_transactions(db, {"A": adder(2), "B": adder(3)})
            return kernel.metrics.subtxn_restarts, kernel.metrics.aborts

        restarts, aborts = outcome()
        assert restarts >= 1 and aborts == 0
        monkeypatch.setattr(TransactionManager, "MAX_RESTARTS", 0)
        restarts, aborts = outcome()
        assert restarts == 0 and aborts == 1


class TestExhaustionEscalation:
    def storm(self, max_fires=0):
        """T1 with a restart storm on its ShipOrder actions (0: unlimited)."""
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        plan = FaultPlan(
            specs=(FaultSpec(site="pre-acquire", action="restart",
                             txn="T1", operation="ShipOrder",
                             probability=1.0, max_fires=max_fires),)
        )
        return run_transactions(
            built.db,
            {"T1": make_t1(built.item(0), 1, built.item(1), 2)},
            faults=plan,
        )

    def test_unbounded_restarts_escalate_to_abort(self, monkeypatch):
        monkeypatch.setattr(TransactionManager, "MAX_RESTARTS", 4)
        # A storm that ends within the budget: the retry succeeds.
        kernel = self.storm(max_fires=3)
        assert kernel.handles["T1"].committed
        assert kernel.handles["T1"].restarts == 3
        assert kernel.obs.snapshot().counter("retry.exhausted") == 0
        # An unbounded one escalates once the budget is spent.
        kernel = self.storm()
        handle = kernel.handles["T1"]
        assert handle.aborted and not handle.committed
        assert isinstance(handle.error, RetryExhausted)
        assert handle.restarts == 5  # budget of 4 + the exhausting attempt
        assert kernel.obs.snapshot().counter("retry.exhausted") == 1
        # escalation went through the normal abort path: no debris
        assert not kernel.locks.locks_held_by_tree(handle.root)
        assert not kernel.locks.pending_of_tree(handle.root)

    def test_compensations_never_capped(self, order_entry, monkeypatch):
        # An aborting transaction's compensations must run to completion
        # even when the restart budget is already spent: the cap checks
        # handle.aborting.
        monkeypatch.setattr(TransactionManager, "MAX_RESTARTS", 2)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="pre-acquire", action="restart",
                          txn="T1", operation="ShipOrder", max_fires=0),
            )
        )
        kernel = run_transactions(
            order_entry.db,
            {
                "T1": make_t1(order_entry.item(0), 1, order_entry.item(1), 2),
                "T2": make_t2(order_entry.item(0), 1, order_entry.item(1), 2),
            },
            faults=plan,
        )
        assert kernel.handles["T1"].aborted
        assert isinstance(kernel.handles["T1"].error, RetryExhausted)
        assert kernel.handles["T2"].committed
        for handle in kernel.handles.values():
            assert not kernel.locks.locks_held_by_tree(handle.root)
