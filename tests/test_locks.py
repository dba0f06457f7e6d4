"""Unit tests for the lock table: grants, FCFS queues, release modes."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolViolation
from repro.objects.oid import Oid
from repro.runtime.scheduler import Scheduler
from repro.semantics.invocation import Invocation
from repro.txn.locks import Disposition, LockTable
from repro.txn.transaction import TransactionNode

X = Oid("Atom", 1)
Y = Oid("Atom", 2)


def node(tree_id: str, parent: TransactionNode | None = None, op: str = "Op") -> TransactionNode:
    target = X
    return TransactionNode(tree_id, parent, target, Invocation(op, (tree_id,)))


def root_and_child(name: str) -> tuple[TransactionNode, TransactionNode]:
    root = TransactionNode(name, None, Oid("Database", 0), Invocation("Transaction", (name,)))
    child = TransactionNode(f"{name}.1", root, X, Invocation("Op", (name,)))
    return root, child


def never_conflicts(holder, h_inv, requester, r_inv, target):
    return None


def always_conflicts(holder, h_inv, requester, r_inv, target):
    return holder.root()


def make_signal():
    return Scheduler().create_signal()


class TestGrantAndBlock:
    def test_grant_and_inspect(self):
        table = LockTable()
        __, child = root_and_child("T1")
        lock = table.grant(child, X, child.invocation)
        assert table.locks_on(X) == (lock,)
        assert table.lock_count == 1
        assert table.total_grants == 1

    def test_compute_blockers_against_held(self):
        table = LockTable()
        r1, c1 = root_and_child("T1")
        __, c2 = root_and_child("T2")
        table.grant(c1, X, c1.invocation)
        blockers = table.compute_blockers(c2, X, c2.invocation, always_conflicts)
        assert blockers == {r1}
        assert not table.compute_blockers(c2, X, c2.invocation, never_conflicts)

    def test_blockers_include_earlier_queued_requests(self):
        """FCFS: a request conflicts with earlier queued requests too."""
        table = LockTable()
        r1, c1 = root_and_child("T1")
        __, c2 = root_and_child("T2")
        table.enqueue(c1, X, c1.invocation, make_signal())
        blockers = table.compute_blockers(c2, X, c2.invocation, always_conflicts)
        assert blockers == {r1}

    def test_before_seq_limits_queue_check(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        __, c2 = root_and_child("T2")
        p1 = table.enqueue(c1, X, c1.invocation, make_signal())
        table.enqueue(c2, X, c2.invocation, make_signal())
        # re-testing p1 must not see the later request
        blockers = table.compute_blockers(
            c1, X, c1.invocation, always_conflicts, before_seq=p1.enqueue_seq
        )
        assert blockers == set()


class TestReevaluate:
    def test_grant_in_fcfs_order(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        __, c2 = root_and_child("T2")

        # conflict tester: everyone conflicts with everyone else
        table.enqueue(c1, X, c1.invocation, make_signal())
        table.enqueue(c2, X, c2.invocation, make_signal())

        granted = table.reevaluate(never_conflicts)
        # With no conflicts both are granted, in FCFS order.
        assert [p.node for p in granted] == [c1, c2]
        assert table.pending_count == 0
        assert table.lock_count == 2

    def test_no_overtaking_past_conflicting_earlier_request(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        __, c2 = root_and_child("T2")
        __, blocker = root_and_child("T0")
        table.grant(blocker, X, blocker.invocation)

        def tester(holder, h_inv, requester, r_inv, target):
            # T1 conflicts with the held lock; T2 conflicts with T1 only.
            if requester is c1 and holder is blocker:
                return holder.root()
            if requester is c2 and holder is c1:
                return holder.root()
            return None

        table.enqueue(c1, X, c1.invocation, make_signal())
        table.enqueue(c2, X, c2.invocation, make_signal())
        granted = table.reevaluate(tester)
        # T1 still blocked by the held lock; T2 must not overtake T1.
        assert granted == []
        assert table.pending_count == 2

    def test_granted_signal_fires(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        signal = make_signal()
        table.enqueue(c1, X, c1.invocation, signal)
        table.reevaluate(never_conflicts)
        assert signal.done


class TestRelease:
    def test_release_tree(self):
        table = LockTable()
        r1, c1 = root_and_child("T1")
        r2, c2 = root_and_child("T2")
        table.grant(r1, Oid("Database", 0), r1.invocation)
        table.grant(c1, X, c1.invocation)
        table.grant(c2, X, c2.invocation)
        released = table.release_tree(r1)
        assert len(released) == 2
        assert table.lock_count == 1
        assert table.locks_on(X)[0].node is c2

    def test_release_descendant_locks_keeps_own(self):
        table = LockTable()
        root, mid = root_and_child("T1")
        leaf = TransactionNode("T1.1.1", mid, Y, Invocation("Get"))
        table.grant(mid, X, mid.invocation)
        table.grant(leaf, Y, leaf.invocation)
        released = table.release_descendant_locks(mid)
        assert [lk.node for lk in released] == [leaf]
        assert table.locks_on(X)[0].node is mid  # own lock kept

    def test_reassign_locks_to_parent(self):
        table = LockTable()
        root, mid = root_and_child("T1")
        leaf = TransactionNode("T1.1.1", mid, Y, Invocation("Get"))
        table.grant(leaf, Y, leaf.invocation)
        moved = table.reassign_locks_to_parent(mid)
        # the leaf's lock now belongs to mid's parent (the root)
        assert table.locks_on(Y)[0].node is root
        assert len(moved) == 1

    def test_reassign_toplevel_rejected(self):
        table = LockTable()
        root, __ = root_and_child("T1")
        with pytest.raises(ProtocolViolation):
            table.reassign_locks_to_parent(root)

    def test_release_unknown_lock_rejected(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        lock = table.grant(c1, X, c1.invocation)
        table.release_lock(lock)
        with pytest.raises(ProtocolViolation):
            table.release_lock(lock)

    def test_cancel_pending(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        pending = table.enqueue(c1, X, c1.invocation, make_signal())
        table.cancel(pending)
        assert table.pending_count == 0
        table.cancel(pending)  # idempotent


class TestGrantClockStamping:
    def test_grant_before_bind_metrics_does_not_inflate_hold_time(self):
        """Regression: grant_clock was only stamped when metrics were
        already bound, so a lock granted before ``bind_metrics`` kept
        grant_clock = 0.0 and its later release recorded the full run
        time as the hold time."""
        from repro.obs import MetricsRegistry

        now = {"t": 5.0}
        table = LockTable(clock=lambda: now["t"])
        __, c1 = root_and_child("T1")
        lock = table.grant(c1, X, c1.invocation)
        assert lock.grant_clock == 5.0  # stamped even without metrics

        now["t"] = 100.0
        registry = MetricsRegistry()
        table.bind_metrics(registry)
        now["t"] = 103.0
        table.release_lock(lock)

        hist = registry.histogram("lock.hold_time", LockTable.HOLD_TIME_BUCKETS)
        assert hist.count == 1
        assert hist.sum == 103.0 - 5.0  # not 103.0 - 0.0

    def test_grant_clock_with_metrics_bound_from_start(self):
        now = {"t": 2.0}
        from repro.obs import MetricsRegistry

        table = LockTable(metrics=MetricsRegistry(), clock=lambda: now["t"])
        __, c1 = root_and_child("T1")
        assert table.grant(c1, X, c1.invocation).grant_clock == 2.0


class TestBlockerIndexAndCancel:
    def test_cancel_clears_blockers_and_blocker_index(self):
        """Regression: cancel used to leave pending.blockers populated,
        which would feed stale waits-for edges."""
        table = LockTable()
        r0, c0 = root_and_child("T0")
        __, c1 = root_and_child("T1")
        table.grant(c0, X, c0.invocation)
        pending = table.enqueue(c1, X, c1.invocation, make_signal())
        table.set_blockers(pending, {r0})
        assert pending.blockers == {r0}

        events = []
        table.on_waits_changed = lambda p: events.append(set(p.blockers))
        table.cancel(pending)
        assert pending.blockers == set()
        assert events == [set()]  # waiter's edges cleared through the hook
        table.check_invariants()  # no stale blocker-index entries

    def test_set_blockers_replaces_reverse_index_entries(self):
        table = LockTable()
        r0, __ = root_and_child("T0")
        r2, __ = root_and_child("T2")
        __, c1 = root_and_child("T1")
        pending = table.enqueue(c1, X, c1.invocation, make_signal())
        table.set_blockers(pending, {r0})
        table.set_blockers(pending, {r2})  # r0 entry must be dropped
        table.check_invariants()
        table.cancel(pending)
        table.check_invariants()

    def test_cancel_dirties_target_for_later_requests(self):
        """Entries queued behind a cancelled request were conflict-tested
        against it; the queue must be re-tested after the cancel."""
        table = LockTable()
        __, h = root_and_child("T0")
        __, d1 = root_and_child("T1")
        __, d2 = root_and_child("T2")
        table.grant(h, X, h.invocation)

        def tester(holder, h_inv, requester, r_inv, target):
            if requester is d1:
                return holder.root()  # d1 conflicts with the holder
            if holder is d1:
                return holder.root()  # d2 conflicts with queued d1 only
            return None

        q1 = table.enqueue(d1, X, d1.invocation, make_signal())
        table.enqueue(d2, X, d2.invocation, make_signal())
        assert table.reevaluate(tester) == []  # d1 on T0, d2 on T1 (FCFS)

        # Cancelling q1 dirties X; d2's blocker (d1) is gone on re-test.
        table.cancel(q1)
        granted = table.reevaluate(tester)
        assert [p.node for p in granted] == [d2]
        table.check_invariants()

    def test_pending_of_tree_in_enqueue_order(self):
        table = LockTable()
        r1, c1 = root_and_child("T1")
        d1 = TransactionNode("T1.2", r1, Y, Invocation("Get"))
        __, c2 = root_and_child("T2")
        p_a = table.enqueue(c1, X, c1.invocation, make_signal())
        table.enqueue(c2, X, c2.invocation, make_signal())
        p_b = table.enqueue(d1, Y, d1.invocation, make_signal())
        assert table.pending_of_tree(r1) == [p_a, p_b]
        table.cancel(p_a)
        assert table.pending_of_tree(r1) == [p_b]


class TestReevaluateSkipsUntouchedQueues:
    """The dirty-mark contract: a queue is only re-tested when its
    granted set changed, its queue changed, or a recorded blocker
    completed — otherwise its prior outcome is provably unchanged."""

    def test_unrelated_release_skips_queue(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        table = LockTable(metrics=registry)
        r0, c0 = root_and_child("T0")
        __, c1 = root_and_child("T1")
        __, other = root_and_child("T9")
        table.grant(c0, X, c0.invocation)
        lock_y = table.grant(other, Y, other.invocation)

        pending = table.enqueue(c1, X, c1.invocation, make_signal())
        assert table.reevaluate(always_conflicts) == []
        tests_before = table.total_conflict_tests

        # Releasing an unrelated lock must not re-test the X queue.
        table.release_lock(lock_y)
        assert table.reevaluate(always_conflicts) == []
        assert table.total_conflict_tests == tests_before
        snapshot = registry.snapshot()
        assert snapshot.counter("lock.reeval_queues_skipped") >= 1
        assert pending.blockers == {r0}

    def test_notify_node_completed_retests_blocked_queue(self):
        table = LockTable()
        r0, c0 = root_and_child("T0")
        __, c1 = root_and_child("T1")
        table.grant(c0, X, c0.invocation)
        table.enqueue(c1, X, c1.invocation, make_signal())
        assert table.reevaluate(always_conflicts) == []

        # Queue untouched: even a now-permissive tester is not consulted.
        assert table.reevaluate(never_conflicts) == []

        # The recorded blocker completing flags the queue for re-test.
        moved, granted = table.complete_node(r0, Disposition.RETAIN, never_conflicts)
        assert moved == [] and [p.node for p in granted] == [c1]
        table.check_invariants()

    def test_notify_node_completed_dirties_own_lock_targets(self):
        """A completing node's lock targets are re-dirtied: its state
        changes become visible to state-dependent conflict tests."""
        table = LockTable()
        __, c0 = root_and_child("T0")
        __, c1 = root_and_child("T1")
        table.grant(c0, X, c0.invocation)
        table.enqueue(c1, X, c1.invocation, make_signal())
        assert table.reevaluate(always_conflicts) == []
        # c0 holds a lock on X
        __, granted = table.complete_node(c0, Disposition.RETAIN, never_conflicts)
        assert [p.node for p in granted] == [c1]


class TestOwnerIndices:
    def test_locks_held_by_tree_and_node(self):
        table = LockTable()
        r1, c1 = root_and_child("T1")
        leaf = TransactionNode("T1.1.1", c1, Y, Invocation("Get"))
        r2, c2 = root_and_child("T2")
        l_c1 = table.grant(c1, X, c1.invocation)
        l_leaf = table.grant(leaf, Y, leaf.invocation)
        table.grant(c2, X, c2.invocation)
        assert table.locks_held_by_tree(r1) == [l_c1, l_leaf]
        assert table.locks_held_by_node(c1) == [l_c1]
        assert table.locks_held_by_tree(r2) != []
        table.check_invariants()

    def test_indices_consistent_across_release_and_reassign(self):
        table = LockTable()
        r1, mid = root_and_child("T1")
        leaf = TransactionNode("T1.1.1", mid, Y, Invocation("Get"))
        table.grant(mid, X, mid.invocation)
        table.grant(leaf, Y, leaf.invocation)
        table.check_invariants()
        table.reassign_locks_to_parent(mid)
        table.check_invariants()
        assert table.locks_held_by_node(r1) and not table.locks_held_by_node(mid)
        table.release_tree(r1)
        table.check_invariants()
        assert table.lock_count == 0
        assert table.locks_held_by_tree(r1) == []

    def test_release_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        table = LockTable(metrics=registry)
        r1, c1 = root_and_child("T1")
        table.grant(c1, X, c1.invocation)
        table.release_tree(r1)
        table.release_subtree(c1)  # no-op but counted as an operation
        snapshot = registry.snapshot()
        assert snapshot.counter("lock.release_ops") == 2
        assert table.total_release_ops == 2

    def test_no_entry_outlives_its_last_lock_or_request(self):
        """``_granted`` / ``_queues`` hold no empty list for an object
        once locked or queued on (``reevaluate`` walks ``_queues``)."""
        table = LockTable()
        r1, c1 = root_and_child("T1")
        r2, c2 = root_and_child("T2")
        r3, c3 = root_and_child("T3")
        lock = table.grant(c1, X, c1.invocation)
        table.grant(c1, Y, Invocation("Get"))
        table.enqueue(c2, X, c2.invocation, make_signal())
        cancelled = table.enqueue(c3, Y, c3.invocation, make_signal())
        table.cancel(cancelled)  # the only request on Y
        assert set(table._queues) == {X}
        table.release_lock(lock)
        assert set(table._granted) == {Y}
        moved, granted = table.complete_node(r1, Disposition.RELEASE_TREE, never_conflicts)
        assert len(moved) == 1 and [p.node for p in granted] == [c2]
        assert not table._queues and set(table._granted) == {X}  # c2's grant
        table.release_tree(r2)
        assert not table._granted and not table._queues
        table.check_invariants()

    @pytest.mark.parametrize("index", ["_granted", "_queues"])
    def test_invariants_reject_an_empty_entry(self, index):
        table = LockTable()
        getattr(table, index)[X]  # the defaultdict leaves an empty list behind
        with pytest.raises(AssertionError, match="empty"):
            table.check_invariants()


class TestRetainedProperty:
    def test_lock_becomes_retained_when_parent_commits(self):
        table = LockTable()
        root, mid = root_and_child("T1")
        leaf = TransactionNode("T1.1.1", mid, Y, Invocation("Get"))
        lock = table.grant(leaf, Y, leaf.invocation)
        assert not lock.retained  # mid still active
        mid.status = mid.status.__class__.COMMITTED
        assert lock.retained

    def test_toplevel_own_lock_never_retained(self):
        table = LockTable()
        root, __ = root_and_child("T1")
        lock = table.grant(root, Oid("Database", 0), root.invocation)
        assert not lock.retained

    def test_high_water_mark(self):
        table = LockTable()
        __, c1 = root_and_child("T1")
        l1 = table.grant(c1, X, c1.invocation)
        l2 = table.grant(c1, Y, Invocation("Get"))
        table.release_lock(l1)
        table.release_lock(l2)
        assert table.max_locks_held == 2
        assert table.lock_count == 0
