"""Tests for the real-concurrency runtime: striped lock table, threaded
kernel, deadlock resolution under wall-clock time, and concurrent Fig. 9
conflict tests on one hot object.

Threaded runs are nondeterministic by design, so the assertions are
outcome invariants — final state, serializability, a clean lock table,
``check_invariants`` — never specific interleavings.  The heavyweight
stress sweep is marked ``slow`` (run by the nightly workflow).
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types

import pytest

from repro.core.kernel import CostModel
from repro.core.protocol import SemanticLockingProtocol
from repro.core.serializability import is_semantically_serializable
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.objects.oid import Oid
from repro.obs.registry import MetricsRegistry
from repro.orderentry.schema import PAID, SHIPPED, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.runtime import threaded
from repro.runtime.scheduler import Pause, Scheduler, Task
from repro.runtime.threaded import (
    ConcurrentLockTable,
    ThreadedKernel,
    WallClockScheduler,
    run_threaded_transactions,
)
from repro.semantics.invocation import Invocation
from repro.server.admission import AdmissionConfig
from repro.server.core import TransactionServer
from repro.server.requests import Request
from repro.txn.locks import Disposition, LockTable
from repro.txn.transaction import TransactionNode
from repro.util.tracelog import TraceEvent, TraceLog


def make_counter_db(n_counters: int = 1):
    """A database of encapsulated counters whose Adds commute."""
    spec = TypeSpec("StressCounter")

    @spec.method(inverse=lambda result, args: ("Add", (-args[0],)))
    async def Add(ctx, counter, amount):
        atom = counter.impl_component("value")
        await ctx.put(atom, await ctx.get(atom) + amount)
        return None

    spec.matrix.allow("Add", "Add")
    db = Database()
    counters = []
    for i in range(n_counters):
        counter = db.new_encapsulated(spec, f"c{i}")
        db.attach_child(counter)
        impl = db.new_tuple(f"impl{i}")
        impl.add_component("value", db.new_atom("value", 0))
        counter.set_implementation(impl)
        counters.append(counter)
    return db, counters


class TestConcurrentLockTable:
    def test_stripes_get_disjoint_id_residues(self):
        table = ConcurrentLockTable(n_stripes=4)
        offsets = [stripe.table._next_lock_id for stripe in table._stripes]
        assert offsets == [0, 1, 2, 3]
        assert all(s.table._id_stride == 4 for s in table._stripes)

    def test_rejects_bad_stripe_count(self):
        with pytest.raises(ValueError):
            ConcurrentLockTable(n_stripes=0)

    def test_empty_table_invariants(self):
        table = ConcurrentLockTable(n_stripes=3)
        table.check_invariants()
        assert table.lock_count == 0
        assert table.pending_count == 0

    def test_stripe_index_is_stable(self):
        table = ConcurrentLockTable(n_stripes=5)
        db = Database()
        atom = db.new_atom("x", 0)
        first = table.stripe_index_of(atom.oid)
        assert all(table.stripe_index_of(atom.oid) == first for __ in range(10))
        assert 0 <= first < 5

    def test_lock_ids_unique_across_stripes(self):
        # Drive a real workload and check global uniqueness of the ids
        # handed out by different stripes (the invariant the residue
        # classes exist for).
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = ThreadedKernel(built.db, n_threads=4, n_stripes=4)
        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 2))
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
        kernel.locks.check_invariants()  # includes id-uniqueness checks
        assert kernel.locks.total_grants > 0


class TestRegistryMirror:
    """The striped table mirrors its stripes into the same ``lock.*``
    instruments the plain table keeps, by delta."""

    @staticmethod
    def _scenario(table):
        """Three roots on two objects: one queue grants on the second
        re-evaluation pass, one lock is still held at the end.  Two
        tree releases and one completion: three release operations."""
        x, y = Oid("Atom", 1), Oid("Atom", 2)

        def child(name, target):
            root = TransactionNode(
                name, None, Oid("Database", 0), Invocation("Transaction", (name,))
            )
            return TransactionNode(f"{name}.1", root, target, Invocation("Op", (name,)))

        def conflicts_on_x(holder, h_inv, requester, r_inv, target):
            return holder.root() if target == x else None

        a, b, c = child("A", x), child("B", x), child("C", y)
        assert not table.try_acquire(a, x, a.invocation, conflicts_on_x)
        assert not table.try_acquire(c, y, c.invocation, conflicts_on_x)
        blockers = table.try_acquire(b, x, b.invocation, conflicts_on_x)
        pending, __ = table.enqueue_if_blocked(
            b, x, b.invocation, Scheduler().create_signal(), blockers, conflicts_on_x
        )
        assert pending is not None
        assert table.reevaluate(conflicts_on_x) == []  # A still holds x
        table.release_tree(a.root())
        assert table.reevaluate(conflicts_on_x) == [pending]
        moved, granted = table.complete_node(b.root(), Disposition.RELEASE_TREE, conflicts_on_x)
        assert [lock.node for lock in moved] == [b] and granted == []
        assert table.release_tree(b.root()) == []

    def test_counters_and_gauges_match_plain_table(self):
        plain_obs, striped_obs = MetricsRegistry(), MetricsRegistry(thread_safe=True)
        self._scenario(LockTable(metrics=plain_obs))
        striped = ConcurrentLockTable(n_stripes=4, metrics=striped_obs)
        self._scenario(striped)
        plain, mirrored = plain_obs.snapshot(), striped_obs.snapshot()
        assert plain.counter("lock.reeval_passes") == 3
        assert plain.counter("lock.release_ops") == 3  # per operation, not per stripe
        for name in ("lock.reeval_passes", "lock.release_ops", "lock.grants", "lock.blocks"):
            assert mirrored.counter(name) == plain.counter(name), name
        # One tick per all-stripes hold: two re-evaluations, two
        # releases, and the completion (which is all three steps).
        assert mirrored.counter("stripe.cross_ops") == 5
        for name in ("lock.held", "lock.queue_depth"):
            assert mirrored.gauges[name] == plain.gauges[name], name
        assert mirrored.gauges["lock.held"] == {"value": 1, "hwm": 2}  # C's lock on y
        assert striped.lock_count == 1 and striped.pending_count == 0


class TestThreadedKernel:
    def test_single_transaction(self):
        db = Database()
        atom = db.new_atom("x", 1)
        db.attach_child(atom)
        kernel = ThreadedKernel(db, n_threads=2)

        async def program(tx):
            await tx.put(atom, 2)
            return await tx.get(atom)

        kernel.spawn("T", program)
        kernel.run()
        assert kernel.handles["T"].committed
        assert kernel.handles["T"].result == 2

    def test_ship_and_pay(self):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = ThreadedKernel(built.db, n_threads=4)
        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 2))
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
        assert kernel.handles["T1"].committed
        assert kernel.handles["T2"].committed
        assert built.status_atom(0, 0).raw_get().events == frozenset({SHIPPED, PAID})
        assert kernel.locks.lock_count == 0
        kernel.locks.check_invariants()
        assert is_semantically_serializable(kernel.history(), db=built.db).serializable

    def test_thread_and_stripe_metrics(self):
        db, (counter,) = make_counter_db()
        kernel = ThreadedKernel(db, n_threads=2, n_stripes=4)

        async def program(tx):
            await tx.call(counter, "Add", 1)

        kernel.spawn("A", program)
        kernel.spawn("B", program)
        kernel.run()
        snap = kernel.obs.snapshot()
        assert snap.counters["thread.steps"] > 0
        assert snap.counters["thread.spawned"] == 2
        assert snap.counters["stripe.ops"] > 0
        assert snap.counters["lock.grants"] > 0
        assert snap.gauges["stripe.count"]["value"] == 4
        assert snap.gauges["lock.held"]["value"] == 0  # all released

    def test_level_gauges_track_the_table_through_a_contended_run(self):
        workload = OrderEntryWorkload(WorkloadConfig(n_items=1, orders_per_item=3, seed=5))
        kernel = run_threaded_transactions(
            workload.db, dict(workload.take(8)), n_threads=4, n_stripes=4
        )
        kernel.locks.check_invariants()
        gauges = kernel.obs.snapshot().gauges
        assert gauges["lock.held"]["value"] == kernel.locks.lock_count
        assert gauges["lock.queue_depth"]["value"] == kernel.locks.pending_count
        assert gauges["lock.held"]["hwm"] >= max(1, gauges["lock.held"]["value"])
        assert gauges["lock.queue_depth"]["hwm"] >= gauges["lock.queue_depth"]["value"]

    def test_rejects_unsafe_registry(self):
        db = Database()
        with pytest.raises(ValueError):
            ThreadedKernel(db, obs=MetricsRegistry())  # not thread-safe

    def test_commuting_adds_no_lost_updates(self):
        db, (counter,) = make_counter_db()
        n = 8

        def make(amount):
            async def program(tx):
                await tx.call(counter, "Add", amount)

            return program

        kernel = run_threaded_transactions(
            db, {f"T{i}": make(i) for i in range(1, n + 1)}, n_threads=4
        )
        committed = sum(1 for h in kernel.handles.values() if h.committed)
        assert committed == n
        assert counter.impl_component("value").raw_get() == n * (n + 1) // 2


class TestZeroCostPause:
    """A zero-cost ``Pause`` yields the processor; it arms no timer."""

    @staticmethod
    def _ship_and_pay(**kwargs):
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = run_threaded_transactions(
            built.db,
            {
                "T1": make_t1(built.item(0), 1, built.item(1), 2),
                "T2": make_t2(built.item(0), 1, built.item(1), 2),
            },
            n_threads=2,
            **kwargs,
        )
        assert kernel.handles["T1"].committed and kernel.handles["T2"].committed
        return kernel

    @pytest.mark.skipif(not hasattr(os, "sched_yield"), reason="no sched_yield: sleep(0) it is")
    def test_no_sleep_at_time_scale_zero(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"time.sleep({seconds}) on a zero-cost Pause")

        monkeypatch.setattr(time, "sleep", no_sleep)
        kernel = self._ship_and_pay()  # a worker that slept would have failed the run
        assert kernel.obs.snapshot().counters["thread.steps"] > 2  # it did pause

    def test_a_positive_cost_still_sleeps_for_it(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        self._ship_and_pay(time_scale=0.001, cost_model=CostModel(generic_op=2.0))
        assert 0.002 in slept and all(seconds > 0 for seconds in slept)

    def test_a_yielding_task_lets_the_other_one_run(self):
        """Liveness, not timing: the spinner only ends once the second
        task has run, so a yield that kept the GIL would hang it."""
        scheduler = WallClockScheduler(n_threads=2, stall_timeout=30.0)
        flag = threading.Event()
        spins = 0

        async def spinner():
            nonlocal spins
            while not flag.is_set():
                spins += 1
                await Pause(0)

        async def setter():
            await Pause(0)
            flag.set()

        scheduler.spawn("spinner", spinner())
        scheduler.spawn("setter", setter())
        runner = threading.Thread(target=scheduler.run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        flag.set()  # let a hung spinner go before failing
        assert not runner.is_alive() and scheduler.all_finished and spins >= 1

    def test_the_yield_is_picked_from_what_os_provides(self, monkeypatch):
        if hasattr(os, "sched_yield"):
            assert threaded._yield_thread is os.sched_yield
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        fallback = threaded._pick_yield(types.SimpleNamespace())  # an os without sched_yield
        fallback()
        assert slept == [0]
        assert threaded._pick_yield(types.SimpleNamespace(sched_yield=len)) is len


class TestDeadlockPoliciesWallClock:
    @staticmethod
    def _cycle_programs(x, y):
        async def ab(tx):
            await tx.put(x, "A")
            for __ in range(3):
                await tx.pause()
            await tx.put(y, "A")

        async def ba(tx):
            await tx.put(y, "B")
            for __ in range(3):
                await tx.pause()
            await tx.put(x, "B")

        return ab, ba

    @pytest.mark.parametrize("lock_timeout", [None, 0.2], ids=["detect", "timeout"])
    def test_cycle_is_broken(self, lock_timeout):
        """Cycle detection breaks the cycle with or without a wait budget
        armed beside it."""
        db = Database()
        x = db.new_atom("x", 0)
        y = db.new_atom("y", 0)
        db.attach_child(x)
        db.attach_child(y)
        ab, ba = self._cycle_programs(x, y)
        kernel = ThreadedKernel(db, n_threads=2, stall_timeout=15.0, lock_timeout=lock_timeout)
        kernel.spawn("A", ab)
        kernel.spawn("B", ba)
        kernel.run()
        outcomes = {n: (h.committed, h.aborted) for n, h in kernel.handles.items()}
        assert all(c or a for c, a in outcomes.values()), outcomes
        assert any(c for c, __ in outcomes.values()), outcomes
        assert kernel.locks.lock_count == 0
        kernel.locks.check_invariants()

    def test_forced_cycle_is_resolved_at_block_time_not_by_the_poll(self):
        """a->b / b->a with each side holding its first lock until the
        other has taken its own: the cycle is certain.  Under "detect"
        with a wait budget it is resolved when the closing edge is
        recorded — the stall poll (pushed out to 5 s) and the 2 s timer
        are never needed."""
        db = Database()
        x = db.new_atom("x", 0)
        y = db.new_atom("y", 0)
        db.attach_child(x)
        db.attach_child(y)
        holding = set()

        def crossing(name, first, second):
            async def program(tx):
                await tx.put(first, name)
                holding.add(name)
                give_up = time.monotonic() + 2.0
                while len(holding) < 2 and time.monotonic() < give_up:
                    await tx.pause()
                await tx.put(second, name)

            return program

        kernel = ThreadedKernel(db, n_threads=2, lock_timeout=2.0)
        kernel.scheduler.stall_check = 5.0
        kernel.spawn("A", crossing("A", x, y))
        kernel.spawn("B", crossing("B", y, x))
        started = time.monotonic()
        kernel.run()
        assert time.monotonic() - started < 1.0
        assert holding == {"A", "B"}
        snapshot = kernel.obs.snapshot()
        assert kernel.metrics.deadlocks >= 1
        assert snapshot.counter("thread.stall_checks") == 0
        assert snapshot.counter("timeout.fired") == 0
        outcomes = sorted((h.committed, h.aborted) for h in kernel.handles.values())
        assert outcomes == [(False, True), (True, False)], outcomes
        assert kernel.locks.lock_count == 0
        kernel.locks.check_invariants()

    def test_timeout_uses_wall_clock_default(self):
        """The kernel arms no budget unless asked; the server's cap
        defaults to 2 wall seconds (a virtual-time budget of 50 units
        would be 50 s)."""
        assert ThreadedKernel(Database()).lock_timeout is None
        server = TransactionServer(build_order_entry_database(n_items=1, orders_per_item=1))
        assert server.LOCK_TIMEOUT_CAP == server.tk.lock_timeout == 2.0


def wait_until(predicate, timeout: float = 5.0) -> None:
    """Poll *predicate* until it holds; fail after *timeout* seconds."""
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "timed out waiting"
        time.sleep(0.001)


class TestTargetedWakeups:
    """A notify reaches only the thread that can act on it: a spawn one
    idle worker, a grant or an interrupt only the blocked task's own
    worker.  Each test pushes the stall poll out to 5 s, so a lost
    notify would show as a multi-second wait and a stall check."""

    def test_idle_workers_wake_only_for_work(self):
        """4 workers, 2 submitting threads, 200 zero-cost requests: at
        most one idle wake-up per spawned task (waking every worker on
        every signal gave about 9 per request)."""
        server = TransactionServer(
            build_order_entry_database(n_items=4, orders_per_item=4),
            n_threads=4,
            default_deadline=10.0,
        )
        server.tk.scheduler.stall_check = 5.0
        server.start()
        responses = []

        def client(offset):
            for i in range(100):
                op = ("place", "stock-check", "restock")[i % 3]
                responses.append(server.submit(Request(op=op, item=(offset + i) % 4)))

        try:
            clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in clients)
            counters = server.obs.snapshot().counters
        finally:
            assert server.shutdown().clean
        assert len(responses) == 200 and all(r.ok for r in responses)
        assert counters["thread.spawned"] == 200
        assert counters["thread.idle_wakeups"] <= counters["thread.spawned"], counters
        assert counters["thread.stall_checks"] == 0

    def test_idle_wait_timeouts_are_not_wakeups(self):
        """An idle pool whose stall poll times out every 10 ms counts no
        idle wake-up: only a notify that found nothing to run counts."""
        server = TransactionServer(
            build_order_entry_database(n_items=1, orders_per_item=1), n_threads=4
        )
        server.tk.scheduler.stall_check = 0.01
        server.start()
        try:
            time.sleep(0.2)
            counters = server.obs.snapshot().counters
        finally:
            assert server.shutdown().clean
        assert counters.get("thread.idle_wakeups", 0) == 0, counters

    def test_each_grant_reaches_its_waiter(self):
        """A holder keeps a hot atom until five writers have queued on
        it; every later grant must wake its waiter by notify."""
        db = Database()
        hot = db.new_atom("hot", 0)
        db.attach_child(hot)
        kernel = ThreadedKernel(db, n_threads=6)
        kernel.scheduler.stall_check = 5.0
        took = threading.Event()

        async def holder(tx):
            await tx.put(hot, 0)
            took.set()
            give_up = time.monotonic() + 2.0
            while kernel.locks.pending_count < 5 and time.monotonic() < give_up:
                await tx.pause()

        def writer(value):
            async def program(tx):
                while not took.is_set():
                    await tx.pause()
                await tx.put(hot, value)

            return program

        kernel.spawn("holder", holder)
        for value in range(1, 6):
            kernel.spawn(f"W{value}", writer(value))
        started = time.monotonic()
        kernel.run()
        assert time.monotonic() - started < 1.5
        snapshot = kernel.obs.snapshot()
        assert all(handle.committed for handle in kernel.handles.values())
        assert snapshot.counter("lock.blocks") >= 5
        assert snapshot.counter("thread.stall_checks") == 0
        assert kernel.locks.lock_count == 0

    def test_stop_drains_a_blocked_waiter_at_once(self):
        db = Database()
        hot = db.new_atom("hot", 0)
        db.attach_child(hot)
        kernel = ThreadedKernel(db, n_threads=2)
        kernel.scheduler.stall_check = 5.0
        parked = kernel.scheduler.create_signal("never-fired")
        took = threading.Event()

        async def holder(tx):
            await tx.put(hot, 1)
            took.set()
            await parked  # keeps the lock until shutdown

        async def waiter(tx):
            await tx.put(hot, 2)

        kernel.start()
        try:
            kernel.spawn("holder", holder)
            assert took.wait(5.0)
            kernel.spawn("waiter", waiter)
            wait_until(lambda: kernel.handles["waiter"].task.state == Task.BLOCKED)
        finally:
            started = time.monotonic()
            wedged = kernel.stop(timeout=3.0)
            elapsed = time.monotonic() - started
        assert wedged == [] and elapsed < 1.0, (wedged, elapsed)
        assert all(handle.task.finished for handle in kernel.handles.values())


class TestBoundedRetention:
    """A served kernel keeps only its in-flight transactions' trace
    events and history records: reaping a transaction drops its own.
    Counts, not timings."""

    def test_served_kernel_keeps_only_inflight_transactions(self):
        """2 000 requests from 2 clients: the trace never holds more
        transactions than admission lets in, and a quiescent server
        holds no trace event and no history record."""
        max_inflight = 4
        server = TransactionServer(
            build_order_entry_database(n_items=4, orders_per_item=4),
            n_threads=4,
            admission=AdmissionConfig(max_inflight=max_inflight),
            default_deadline=10.0,
        )
        server.start()
        responses, samples = [], []
        served = threading.Event()

        def client(offset):
            for i in range(1000):
                op = ("place", "stock-check", "restock")[i % 3]
                responses.append(server.submit(Request(op=op, item=(offset + i) % 4)))

        def sampler():
            while not served.is_set():
                samples.append(len({event.txn for event in server.tk.trace}))
                time.sleep(0.005)

        try:
            watcher = threading.Thread(target=sampler)
            watcher.start()
            clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120.0)
            served.set()
            watcher.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in clients + [watcher])
            retained_events = len(server.tk.trace)
            retained_records = server.tk.history().records
        finally:
            served.set()
            assert server.shutdown().clean
        assert len(responses) == 2000 and all(r.ok for r in responses)
        assert samples and max(samples) <= max_inflight, max(samples, default=None)
        assert retained_events == 0
        assert retained_records == []

    def test_discard_while_workers_emit(self):
        """Four threads emit for transactions of their own while a fifth
        iterates the log and discards a finished transaction: no event
        is lost or reordered, exactly the discarded transaction's events
        go, and iterating never trips over a concurrent emit."""
        log = TraceLog()
        txns = {k: [f"T{k}.{j}" for j in range(500)] for k in range(4)}
        for i in range(500):
            log.emit(TraceEvent(seq=i, kind="grant", node="n", txn="done"))
        start = threading.Barrier(5)
        errors: list[Exception] = []

        def emitter(k):
            start.wait()
            for txn in txns[k]:
                for i in range(4):
                    log.emit(TraceEvent(seq=i, kind="grant", node="n", txn=txn))

        def reader():
            start.wait()
            try:
                rounds = 0
                while rounds < 6 or any(thread.is_alive() for thread in emitters):
                    events = iter(log)  # takes the snapshot a concurrent emit races
                    if rounds % 50 == 0:
                        seen: dict[str, int] = {}
                        for event in events:
                            assert seen.get(event.txn, -1) < event.seq, event
                            seen[event.txn] = event.seq
                    rounds += 1
                    if rounds == 5:
                        log.discard("done")
            except Exception as exc:  # noqa: BLE001 - asserted by the main thread
                errors.append(exc)

        emitters = [threading.Thread(target=emitter, args=(k,)) for k in txns]
        threads = emitters + [threading.Thread(target=reader)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside emit and iteration
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        events = list(log)
        assert len(log) == len(events) == 4 * 500 * 4
        by_txn: dict[str, list[int]] = {}
        for event in events:
            by_txn.setdefault(event.txn, []).append(event.seq)
        assert sorted(by_txn) == sorted(sum(txns.values(), []))
        assert all(seqs == list(range(4)) for seqs in by_txn.values())


class TestConflictUnderThreads:
    def test_no_torn_verdicts_under_concurrent_tests(self):
        # Regression: every worker runs the Fig. 9 test concurrently
        # against the same held locks; a torn read would surface as a
        # wrong verdict (lost update / false block).  Hammer one hot
        # counter so every conflict test races on the same matrix cells,
        # then check the arithmetic and the history.
        db, (counter,) = make_counter_db()
        protocol = SemanticLockingProtocol()
        n, bumps = 10, 3

        def make():
            async def program(tx):
                for __ in range(bumps):
                    await tx.call(counter, "Add", 1)

            return program

        kernel = run_threaded_transactions(
            db,
            {f"T{i}": make() for i in range(n)},
            protocol=protocol,
            n_threads=4,
        )
        committed = sum(1 for h in kernel.handles.values() if h.committed)
        assert committed == n
        assert counter.impl_component("value").raw_get() == n * bumps
        assert is_semantically_serializable(kernel.history(), db=db).serializable
        kernel.locks.check_invariants()


@pytest.mark.slow
class TestThreadedStress:
    SEEDS = range(8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_order_entry_stress(self, seed):
        workload = OrderEntryWorkload(
            WorkloadConfig(n_items=2, orders_per_item=2, seed=seed)
        )
        programs = dict(workload.take(8))
        kernel = run_threaded_transactions(
            workload.db, programs, n_threads=6, n_stripes=4
        )
        kernel.locks.check_invariants()
        assert kernel.locks.lock_count == 0
        finished = sum(
            1 for h in kernel.handles.values() if h.committed or h.aborted
        )
        assert finished == len(programs)
        assert is_semantically_serializable(
            kernel.history(), db=workload.db
        ).serializable

    def test_counter_swarm(self):
        db, counters = make_counter_db(n_counters=3)
        n = 24

        def make(i):
            async def program(tx):
                await tx.call(counters[i % 3], "Add", 1)
                await tx.call(counters[(i + 1) % 3], "Add", 1)

            return program

        kernel = run_threaded_transactions(
            db, {f"T{i}": make(i) for i in range(n)}, n_threads=8
        )
        kernel.locks.check_invariants()
        committed = sum(1 for h in kernel.handles.values() if h.committed)
        total = sum(c.impl_component("value").raw_get() for c in counters)
        assert total == committed * 2
