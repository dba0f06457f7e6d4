"""RetryPolicy: backoff math, the one restart budget, exhaustion escalation."""

from __future__ import annotations

import pytest

from repro.core.kernel import TransactionManager, run_transactions
from repro.errors import RetryExhausted, WorkloadError
from repro.faults import FaultPlan, FaultSpec
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.orderentry.transactions import make_t1, make_t2
from repro.runtime.threaded import ThreadedKernel
from repro.txn.retry import DEFAULT_MAX_RESTARTS, RetryPolicy


class TestBackoffMath:
    def test_disabled_by_default(self):
        policy = RetryPolicy()
        assert policy.max_restarts == DEFAULT_MAX_RESTARTS == 25
        assert [policy.backoff_for(a) for a in (1, 2, 10)] == [0.0, 0.0, 0.0]
        assert policy.delay_for(3, base_cost=1.5) == 1.5

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(initial_backoff=1.0, backoff_factor=2.0, max_backoff=10.0)
        assert [policy.backoff_for(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]
        assert policy.backoff_for(5) == 10.0  # capped, not 16
        assert policy.backoff_for(50) == 10.0
        assert policy.delay_for(2, base_cost=1.0) == 3.0

    def test_zeroth_attempt_is_free(self):
        policy = RetryPolicy(initial_backoff=1.0)
        assert policy.backoff_for(0) == 0.0

    def test_exhaustion_predicate(self):
        policy = RetryPolicy(max_restarts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RetryPolicy(max_restarts=-1)
        with pytest.raises(WorkloadError):
            RetryPolicy(initial_backoff=-0.5)
        with pytest.raises(WorkloadError):
            RetryPolicy(backoff_factor=0.5)


class TestOneRestartBudget:
    def test_policy_sets_the_budget(self, db):
        kernel = TransactionManager(db, retry_policy=RetryPolicy(max_restarts=7))
        assert kernel.retry_policy.max_restarts == 7

    def test_default_matches_historical_constant(self, db):
        kernel = TransactionManager(db)
        assert kernel.retry_policy == RetryPolicy()
        assert kernel.retry_policy.max_restarts == DEFAULT_MAX_RESTARTS

    def test_second_spelling_is_gone(self, db):
        with pytest.raises(TypeError):
            TransactionManager(db, max_subtxn_restarts=7)
        with pytest.raises(TypeError):
            run_transactions(db, {}, max_subtxn_restarts=7)
        with pytest.raises(TypeError):
            ThreadedKernel(db, max_subtxn_restarts=7)
        assert not hasattr(TransactionManager(db), "max_subtxn_restarts")

    def test_victim_resolution_reads_the_policy(self):
        # Two commuting Adds deadlock on the counter's value atom; the
        # victim's Add is restarted while the budget allows, aborted
        # once it does not.
        def outcome(policy):
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

            kernel = run_transactions(db, {"A": adder(2), "B": adder(3)}, retry_policy=policy)
            return kernel.metrics.subtxn_restarts, kernel.metrics.aborts

        restarts, aborts = outcome(RetryPolicy())
        assert restarts >= 1 and aborts == 0
        restarts, aborts = outcome(RetryPolicy(max_restarts=0))
        assert restarts == 0 and aborts == 1


class TestExhaustionEscalation:
    def storm(self, order_entry, policy):
        """T1 with an unlimited restart storm on its ShipOrder actions."""
        plan = FaultPlan(
            specs=(FaultSpec(site="pre-acquire", action="restart",
                             txn="T1", operation="ShipOrder",
                             probability=1.0, max_fires=0),)
        )
        return run_transactions(
            order_entry.db,
            {"T1": make_t1(order_entry.item(0), 1, order_entry.item(1), 2)},
            faults=plan,
            retry_policy=policy,
        )

    def test_unbounded_restarts_escalate_to_abort(self, order_entry):
        kernel = self.storm(order_entry, RetryPolicy(max_restarts=4))
        handle = kernel.handles["T1"]
        assert handle.aborted and not handle.committed
        assert isinstance(handle.error, RetryExhausted)
        assert handle.restarts == 5  # budget of 4 + the exhausting attempt
        assert kernel.obs.snapshot().counter("retry.exhausted") == 1
        # escalation went through the normal abort path: no debris
        assert not kernel.locks.locks_held_by_tree(handle.root)
        assert not kernel.locks.pending_of_tree(handle.root)

    def test_backoff_spaces_retries_in_virtual_time(self, order_entry):
        limited = FaultPlan(
            specs=(FaultSpec(site="pre-acquire", action="restart",
                             txn="T1", operation="ShipOrder", max_fires=3),)
        )
        kernel = run_transactions(
            order_entry.db,
            {"T1": make_t1(order_entry.item(0), 1, order_entry.item(1), 2)},
            faults=limited,
            retry_policy=RetryPolicy(initial_backoff=4.0, backoff_factor=2.0),
        )
        assert kernel.handles["T1"].committed  # storm ends, retry succeeds
        snapshot = kernel.obs.snapshot()
        assert snapshot.counter("retry.backoff_pauses") == 3
        hist = snapshot.histogram("retry.backoff_delay")
        assert hist.count == 3
        assert hist.sum == pytest.approx(4.0 + 8.0 + 16.0)
        backoffs = kernel.trace.of_kind("retry-backoff")
        assert [e.detail["delay"] for e in backoffs] == [4.0, 8.0, 16.0]

    def test_no_backoff_trace_without_configuration(self, order_entry):
        limited = FaultPlan(
            specs=(FaultSpec(site="pre-acquire", action="restart",
                             txn="T1", operation="ShipOrder", max_fires=2),)
        )
        kernel = run_transactions(
            order_entry.db,
            {"T1": make_t1(order_entry.item(0), 1, order_entry.item(1), 2)},
            faults=limited,
        )
        assert kernel.handles["T1"].committed
        assert not kernel.trace.of_kind("retry-backoff")
        assert kernel.obs.snapshot().counter("retry.backoff_pauses") == 0

    def test_compensations_never_capped(self, order_entry):
        # An aborting transaction's compensations must run to completion
        # even when the restart budget is already spent: the cap checks
        # handle.aborting.
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
            retry_policy=RetryPolicy(max_restarts=2),
        )
        assert kernel.handles["T1"].aborted
        assert isinstance(kernel.handles["T1"].error, RetryExhausted)
        assert kernel.handles["T2"].committed
        for handle in kernel.handles.values():
            assert not kernel.locks.locks_held_by_tree(handle.root)
