"""Lock-wait budgets beside cycle detection, plus injected timers.

A ``lock_timeout`` arms a virtual-clock timer on every blocking lock
wait; expiry resolves the waiter through the existing victim machinery
(restart the blocked subtransaction if possible, abort with
:class:`LockTimeout` otherwise).  A per-transaction ``lock_timeout_fn``
or a `lock-wait` fault spec arms the same timer.  Cycles are still
resolved by detection, before any timer fires.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import TransactionManager, run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.errors import LockTimeout
from repro.faults import FaultPlan, FaultSpec
from repro.objects.database import Database
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.runtime.scheduler import Pause


@pytest.fixture
def two_atoms():
    db = Database()
    x = db.new_atom("x", 0)
    y = db.new_atom("y", 0)
    db.attach_child(x)
    db.attach_child(y)
    return db, x, y


def opposing(x, y):
    async def ab(tx):
        await tx.put(x, "A")
        await tx.pause()
        await tx.put(y, "A")
        return "A"

    async def ba(tx):
        await tx.put(y, "B")
        await tx.pause()
        await tx.put(x, "B")
        return "B"

    return {"A": ab, "B": ba}


def holder_then_waiter(x, hold: float):
    """H takes x and keeps it for *hold* virtual units; W asks for x one
    step later, so W's wait is an ordinary wait, not a cycle."""

    async def holder(tx):
        await tx.put(x, "H")
        await Pause(hold)
        return "H"

    async def waiter(tx):
        await tx.pause()  # let H grab x
        await tx.put(x, "W")
        return "W"

    return {"H": holder, "W": waiter}


class TestTimeoutPolicy:
    def test_timeout_fires_at_virtual_deadline(self, two_atoms):
        from repro.runtime.scheduler import Pause

        db, x, __ = two_atoms

        async def holder(tx):
            await tx.put(x, "H")
            for __ in range(30):
                await Pause(5.0)  # hold x far past the budget
            return "H"

        async def waiter(tx):
            await tx.pause()  # let H grab x
            await tx.put(x, "W")
            return "W"

        kernel = run_transactions(db, {"H": holder, "W": waiter}, lock_timeout=20.0)
        events = kernel.trace.of_kind("timeout")
        assert events and events[0].txn == "W"
        assert events[0].detail["waited"] == 20.0
        # Top-level Put has no enclosing subtransaction to restart: the
        # waiter aborts with LockTimeout.
        assert kernel.handles["W"].aborted
        assert isinstance(kernel.handles["W"].error, LockTimeout)
        assert kernel.handles["H"].committed
        assert kernel.obs.snapshot().counter("timeout.aborts") == 1

    def test_granted_before_deadline_cancels_timer(self, two_atoms):
        from repro.runtime.scheduler import Pause

        db, x, __ = two_atoms

        async def brief_holder(tx):
            await tx.put(x, "H")
            await Pause(2.0)
            return "H"

        async def waiter(tx):
            await tx.pause()
            await tx.put(x, "W")
            return "W"

        kernel = run_transactions(db, {"H": brief_holder, "W": waiter}, lock_timeout=50.0)
        assert kernel.handles["W"].committed
        assert kernel.obs.snapshot().counter("timeout.fired") == 0
        assert not kernel.trace.of_kind("timeout")

    def test_subtransaction_waiter_restarts_not_aborts(self, order_entry):
        # R reads item 0's quantity-on-hand directly and holds it past
        # two budgets; T1's ShipOrder blocks on that atom inside the
        # ShipOrder subtransaction, which is restartable — so each
        # expiry restarts it, and both commit once R is done.
        from repro.orderentry.transactions import make_t1

        async def rival(tx):
            on_hand = await tx.get(order_entry.item(0).impl_component("QOH"))
            await Pause(12.0)
            return on_hand

        kernel = run_transactions(
            order_entry.db,
            {
                "R": rival,
                "T1": make_t1(order_entry.item(0), 1, order_entry.item(1), 2),
            },
            lock_timeout=5.0,
        )
        assert kernel.handles["R"].committed and kernel.handles["T1"].committed
        snapshot = kernel.obs.snapshot()
        assert snapshot.counter("timeout.fired") == snapshot.counter("timeout.restarts") == 2
        assert snapshot.counter("timeout.aborts") == 0
        assert kernel.handles["T1"].restarts == 2

    def test_contended_workload_all_decided_and_serializable(self):
        workload = OrderEntryWorkload(
            WorkloadConfig(n_items=2, orders_per_item=2, seed=3)
        )
        programs = dict(workload.take(8))
        kernel = run_transactions(workload.db, programs, lock_timeout=15.0, policy="random", seed=3)
        assert all(h.committed or h.aborted for h in kernel.handles.values())
        assert is_semantically_serializable(
            kernel.history(), db=workload.db
        ).serializable
        for handle in kernel.handles.values():
            assert not kernel.locks.locks_held_by_tree(handle.root)
            assert not kernel.locks.pending_of_tree(handle.root)


class TestTimeoutConfiguration:
    def test_detect_arms_budget_and_grant_cancels_it(self, two_atoms):
        """Beside cycle detection a blocked wait arms one timer, and the
        grant cancels it unfired."""
        db, x, __ = two_atoms
        kernel = TransactionManager(db, lock_timeout=50.0)
        armed = []
        call_later = kernel.scheduler.call_later

        def recording_call_later(delay, callback):
            armed.append((delay, call_later(delay, callback)))
            return armed[-1][1]

        kernel.scheduler.call_later = recording_call_later
        for name, program in holder_then_waiter(x, hold=2.0).items():
            kernel.spawn(name, program)
        kernel.run()
        assert [delay for delay, __ in armed] == [50.0]
        assert armed[0][1].cancelled and not armed[0][1].fired
        assert kernel.handles["W"].committed
        assert kernel.obs.snapshot().counter("timeout.fired") == 0

    def test_budget_expiry_under_detect_is_lock_timeout(self, two_atoms):
        db, x, __ = two_atoms
        kernel = run_transactions(db, holder_then_waiter(x, hold=150.0), lock_timeout=20.0)
        assert isinstance(kernel.handles["W"].error, LockTimeout)
        assert kernel.handles["H"].committed
        assert kernel.obs.snapshot().counter("timeout.aborts") == 1

    def test_cycle_under_detect_with_budget_is_detected_not_timed_out(self, two_atoms):
        db, x, y = two_atoms
        kernel = run_transactions(db, opposing(x, y), lock_timeout=10.0)
        assert kernel.metrics.deadlocks >= 1
        assert kernel.obs.snapshot().counter("timeout.fired") == 0

    def test_lock_timeout_must_be_positive(self, db):
        with pytest.raises(ValueError, match="positive"):
            TransactionManager(db, lock_timeout=0.0)

    def test_counters_exist_but_zero_under_other_policies(self, two_atoms):
        """No budget armed: the timeout counters are registered and stay
        zero while detection resolves the cycle."""
        db, x, y = two_atoms
        kernel = run_transactions(db, opposing(x, y))
        snapshot = kernel.obs.snapshot()
        assert snapshot.counter("timeout.fired") == 0
        assert snapshot.counter("timeout.restarts") == 0
        assert snapshot.counter("timeout.aborts") == 0


class TestInjectedTimeout:
    def test_injected_timeout_under_detect_policy(self, two_atoms):
        """A lock-wait fault arms a timer without a ``lock_timeout``."""
        from repro.runtime.scheduler import Pause

        db, x, __ = two_atoms

        async def holder(tx):
            await tx.put(x, "H")
            for __ in range(20):
                await Pause(5.0)
            return "H"

        async def waiter(tx):
            await tx.pause()
            await tx.put(x, "W")
            return "W"

        plan = FaultPlan(
            specs=(FaultSpec(site="lock-wait", action="timeout",
                             txn="W", delay=7.0),)
        )
        kernel = run_transactions(db, {"H": holder, "W": waiter}, faults=plan)
        events = kernel.trace.of_kind("timeout")
        assert events and events[0].detail["waited"] == 7.0
        assert kernel.handles["W"].aborted
        assert isinstance(kernel.handles["W"].error, LockTimeout)
        assert kernel.handles["H"].committed


class TestLockTimeoutFn:
    """The per-transaction override passed at construction, in the order
    ``_lock_wait_timeout`` documents: injected fault, override, uniform."""

    UNIFORM = 20.0

    def waited(self, two_atoms, **kernel_options) -> dict[str, float]:
        """H holds x past every budget; W1 and W2 both wait for it.
        Returns each waiter's virtual wait when its timer fired."""
        db, x, __ = two_atoms
        kernel = TransactionManager(db, lock_timeout=self.UNIFORM, **kernel_options)
        pair = holder_then_waiter(x, hold=150.0)
        for name, program in {"H": pair["H"], "W1": pair["W"], "W2": pair["W"]}.items():
            kernel.spawn(name, program)
        kernel.run()
        assert kernel.handles["H"].committed
        for name in ("W1", "W2"):
            assert isinstance(kernel.handles[name].error, LockTimeout)
        return {e.txn: e.detail["waited"] for e in kernel.trace.of_kind("timeout")}

    @staticmethod
    def five_for_w1(node):
        return 5.0 if node.top_level_name == "W1" else None

    def test_override_bounds_one_wait_and_none_falls_back(self, two_atoms):
        waited = self.waited(two_atoms, lock_timeout_fn=self.five_for_w1)
        assert waited == {"W1": 5.0, "W2": self.UNIFORM}

    def test_injected_fault_takes_precedence_over_the_override(self, two_atoms):
        plan = FaultPlan(
            specs=(FaultSpec(site="lock-wait", action="timeout", txn="W1", delay=3.0),)
        )
        waited = self.waited(two_atoms, lock_timeout_fn=self.five_for_w1, faults=plan)
        assert waited == {"W1": 3.0, "W2": self.UNIFORM}
