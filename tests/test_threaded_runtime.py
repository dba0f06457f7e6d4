"""Tests for the real-concurrency runtime: the lock table under the
kernel lock, threaded kernel, deadlock resolution under wall-clock time, and concurrent Fig. 9
conflict tests on one hot object.

Threaded runs are nondeterministic by design, so the assertions are
outcome invariants — final state, serializability, a clean lock table,
``check_invariants`` — never specific interleavings.  The heavyweight
stress sweep is marked ``slow`` (run by the nightly workflow).
"""

from __future__ import annotations

import collections
import gc
import inspect
import os
import sys
import threading
import time
import types

import pytest

import repro.core.kernel as kernel_module
from repro.cluster.participant import ClusterParticipant
from repro.core.kernel import CostModel, TransactionManager
from repro.core.protocol import SemanticLockingProtocol
from repro.core.serializability import is_semantically_serializable
from repro.errors import LockTimeout, RuntimeEngineError, TransactionAborted
from repro.objects.database import Database
from repro.objects.encapsulated import TypeSpec
from repro.objects.oid import Oid
from repro.obs.registry import MetricsRegistry
from repro.orderentry.schema import PAID, SHIPPED, build_order_entry_database
from repro.orderentry.transactions import (
    make_restock_txn,
    make_stock_check_txn,
    make_t1,
    make_t2,
)
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.protocols import protocol_by_name
from repro.recovery import WriteAheadLog
from repro.runtime import threaded
from repro.runtime.scheduler import Pause, Scheduler, Task
from repro.runtime.threaded import (
    ThreadedKernel,
    WallClockScheduler,
    run_threaded_transactions,
)
from repro.semantics.invocation import Invocation
from repro.server.admission import AdmissionConfig
from repro.server.core import TransactionServer
from repro.server.requests import Request
from repro.server.wire import TCPClient, WireServer
from repro.txn.locks import Disposition, LockTable
from repro.txn.transaction import TransactionNode
from repro.util.tracelog import TraceEvent, TraceLog
from tests.helpers import Caller, ReferenceLockTable, record_thread_starts, wait_until


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


class TestThreadedLockTable:
    def test_empty_table_invariants(self):
        table = ThreadedKernel(Database()).locks
        assert type(table) is LockTable
        table.check_invariants()
        assert table.lock_count == 0
        assert table.pending_count == 0

    def test_lock_ids_unique_under_threads(self):
        # Drive a real workload on four threads; the table's invariants
        # key every lock by its id, so a duplicate id would fail them.
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = ThreadedKernel(built.db, n_threads=4)
        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 2))
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
        kernel.locks.check_invariants()
        assert kernel.locks.total_grants > 0


class TestRegistryMirror:
    """The threaded kernel's table — a ``LockTable`` built without a
    clock — reports the same ``lock.*`` figures as a clocked one, read
    at snapshot time, and no hold/wait-time histogram; under threads
    the kernel lock keeps every count exact."""

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
        signal = Scheduler().create_signal()
        pending = table.enqueue_if_blocked(b, x, b.invocation, signal, blockers)
        assert pending.blockers == blockers
        assert table.reevaluate(conflicts_on_x) == []  # A still holds x
        table.release_tree(a.root())
        assert table.reevaluate(conflicts_on_x) == [pending]
        moved, granted = table.complete_node(b.root(), Disposition.RELEASE_TREE, conflicts_on_x)
        assert [lock.node for lock in moved] == [b] and granted == []
        assert table.release_tree(b.root()) == []

    def test_counters_and_gauges_match_plain_table(self):
        clocked_obs = MetricsRegistry()
        self._scenario(LockTable(metrics=clocked_obs, clock=lambda: 0.0))
        threaded_obs = MetricsRegistry(thread_safe=True)
        table = ThreadedKernel(Database(), obs=threaded_obs).locks
        self._scenario(table)
        clocked, threaded = clocked_obs.snapshot(), threaded_obs.snapshot()
        assert clocked.counter("lock.reeval_passes") == 3
        assert clocked.counter("lock.release_ops") == 3  # per operation
        for name in ("lock.reeval_passes", "lock.release_ops", "lock.grants", "lock.blocks"):
            assert threaded.counter(name) == clocked.counter(name), name
        for name in ("lock.held", "lock.queue_depth"):
            assert threaded.gauges[name] == clocked.gauges[name], name
        assert threaded.gauges["lock.held"] == {"value": 1, "hwm": 2}  # C's lock on y
        assert table.lock_count == 1 and table.pending_count == 0
        assert {"lock.hold_time", "lock.wait_time"} <= set(clocked.histograms)
        assert not {"lock.hold_time", "lock.wait_time"} & set(threaded.histograms)

    def test_no_update_lost_under_threads(self, monkeypatch):
        """Six client threads (more than cores, with a shortened switch
        interval) drive a served burst: the table's grant count is
        exact and the held level returns to zero, because the kernel
        makes every table call under its lock."""
        server = burst_server()
        grants = []
        original = LockTable.grant

        def counted(table, *args):
            grants.append(1)  # list.append is atomic
            return original(table, *args)

        monkeypatch.setattr(LockTable, "grant", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        server.start()
        try:
            responses = served_burst(server, clients=6, requests=50)
        finally:
            sys.setswitchinterval(interval)
            assert server.shutdown().clean
        assert sum(response.ok for response in responses) == 300
        snapshot = server.tk.obs.snapshot()
        assert snapshot.counter("lock.grants") == len(grants) > 300
        assert snapshot.gauges["lock.held"]["value"] == 0 == server.tk.locks.lock_count


class _CountingLock:
    """A reentrant lock that counts its acquisitions (reentrant ones
    too), in all and per thread, under itself, so the counts are exact."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.acquisitions = 0
        self._by_thread: dict[int, int] = {}

    def acquire(self, *args) -> bool:
        acquired = self._lock.acquire(*args)
        if acquired:
            self.acquisitions += 1
            me = threading.get_ident()
            self._by_thread[me] = self._by_thread.get(me, 0) + 1
        return acquired

    def mine(self) -> int:
        """Acquisitions made so far by the calling thread."""
        return self._by_thread.get(threading.get_ident(), 0)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def served_burst(server, clients: int = 2, requests: int = 300, disjoint: bool = False) -> list:
    """*clients* threads each submit *requests* uniform order-entry
    requests to a started server over 64 items (with *disjoint*, client
    k only those congruent to k modulo *clients*, so no request can wait
    for another); returns the responses."""
    ops = ("place", "pay", "ship", "restock", "stock-check", "total-payment")
    responses: list = []

    def client(k):
        for i in range(requests):
            item = (clients * 37 * i + k if disjoint else 37 * i + 11 * k) % 64
            request = Request(op=ops[(i + k) % len(ops)], item=item, order_no=1 + i % 8)
            responses.append(server.submit(request))

    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    return responses


def burst_server() -> TransactionServer:
    return TransactionServer(
        build_order_entry_database(n_items=64, orders_per_item=8),
        admission=AdmissionConfig(max_inflight=4, queue_cap=16),
        default_deadline=10.0,
    )


def two_atoms():
    db = Database()
    x = db.new_atom("x", 0)
    y = db.new_atom("y", 0)
    db.attach_child(x)
    db.attach_child(y)
    return db, x, y


def crossing(holding: set, name: str, first, second):
    """Write *first*, wait (up to 2 s) until both crossing transactions
    hold their first lock, then write *second*: a certain cycle."""

    async def program(tx):
        await tx.put(first, name)
        holding.add(name)
        give_up = time.monotonic() + 2.0
        while len(holding) < 2 and time.monotonic() < give_up:
            await tx.pause()
        await tx.put(second, name)

    return program


#: The ``LockTable`` methods the kernel calls, and the server's drain
#: check (the protocol's state views add ``locks_on``, from inside a
#: conflict test).
KERNEL_TABLE_CALLS = (
    "try_acquire",
    "enqueue_if_blocked",
    "cancel",
    "complete_node",
    "reevaluate",
    "release_tree",
    "release_subtree",
    "pending_of_tree",
    "check_invariants",
)


def checked_table_calls(monkeypatch, kernel):
    """Patch every public ``LockTable`` method to note, for each call on
    *kernel*'s table, whether the calling thread holds the kernel lock.
    Returns ``(calls seen per method, names of calls made without it)``."""
    lock = kernel.scheduler.coordination()
    seen: dict[str, int] = {}
    unlocked: list[str] = []
    for name, member in list(vars(LockTable).items()):
        if name.startswith("_") or not inspect.isfunction(member):
            continue

        def checked(table, *args, _original=member, _name=name, **kwargs):
            if table is kernel.locks:
                seen[_name] = seen.get(_name, 0) + 1
                if not lock._is_owned():
                    unlocked.append(_name)
            return _original(table, *args, **kwargs)

        monkeypatch.setattr(LockTable, name, checked)
    return seen, unlocked


class TestOneKernelLock:
    """The threaded kernel calls its plain ``LockTable`` only under the
    kernel lock, which is the scheduler's ``coordination()`` lock: a node
    completion takes it once, a blocked lock request is one hold, and a
    completion runs ``dispose`` / ``reevaluate`` only when
    ``completion_has_work`` says they can change something.  Counts,
    not timings."""

    @staticmethod
    def _spy(monkeypatch):
        """Count the plain table's ``dispose`` and ``reevaluate`` calls."""
        calls = {"dispose": 0, "reevaluate": 0}
        for name in calls:
            original = getattr(LockTable, name)

            def spy(table, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(table, *args)

            monkeypatch.setattr(LockTable, name, spy)
        return calls

    def test_kernel_lock_is_the_coordinator_lock(self):
        """The threaded kernel's table is the plain one and holds no lock
        of its own; the kernel lock is a bare reentrant lock, reentrant
        because a conflict test run under it reads the table through the
        protocol."""
        kernel = ThreadedKernel(Database())
        assert type(kernel.locks) is LockTable
        lock_types = (type(threading.Lock()), type(threading.RLock()))
        assert not [v for v in vars(kernel.locks).values() if isinstance(v, lock_types)]
        lock = kernel.scheduler.coordination()
        assert type(lock) is type(threading.RLock())
        with kernel.scheduler.coordination():
            with kernel.scheduler.coordination():
                assert lock._is_owned()
                assert kernel.locks.locks_on(Oid("Atom", 1)) == ()
        assert not lock._is_owned()

    def _check_completion_skips(self, monkeypatch, table_cls):
        obs = MetricsRegistry()
        table = table_cls(metrics=obs)
        x, y, z = Oid("Atom", 1), Oid("Atom", 2), Oid("Atom", 3)
        roots = {
            name: TransactionNode(
                name, None, Oid("Database", 0), Invocation("Transaction", (name,))
            )
            for name in "ABCD"
        }

        def child(name, target):
            return TransactionNode(f"{name}.{target.number}", roots[name], target, Invocation("Op"))

        def other_trees_conflict(holder, h_inv, requester, r_inv, target):
            return holder.root() if holder.root() is not requester.root() else None

        def acquire(node):
            blockers = table.try_acquire(node, node.target, node.invocation, other_trees_conflict)
            if not blockers:
                return None
            signal = Scheduler().create_signal()
            return table.enqueue_if_blocked(node, node.target, node.invocation, signal, blockers)

        calls = self._spy(monkeypatch)

        def complete(node, disposition):
            for name in calls:
                calls[name] = 0
            has_work = table.completion_has_work(node, disposition)
            counted = obs.snapshot().counters
            moved, granted = table.complete_node(node, disposition, other_trees_conflict)
            after = obs.snapshot().counters
            assert after["lock.reeval_passes"] - counted.get("lock.reeval_passes", 0) == 1
            releases = after["lock.release_ops"] - counted.get("lock.release_ops", 0)
            assert releases == (disposition is not Disposition.RETAIN)
            assert calls == {"dispose": int(has_work), "reevaluate": int(has_work)}
            return has_work, moved, granted

        a_x, a_y, c_z = child("A", x), child("A", y), child("C", z)
        for node in (a_x, a_y, c_z):
            assert acquire(node) is None
        # No queued request: a retaining completion runs nothing.
        assert complete(a_x, Disposition.RETAIN) == (False, [], [])
        # A tree without locks releases nothing: no pass either.
        assert complete(roots["D"], Disposition.RELEASE_TREE) == (False, [], [])
        # One waiter on x: the completion runs.
        waiter = acquire(child("B", x))
        assert waiter is not None
        assert complete(a_y, Disposition.RETAIN) == (True, [], [])
        # A's tree holds locks on x and y: its release runs, and grants.
        has_work, moved, granted = complete(roots["A"], Disposition.RELEASE_TREE)
        assert has_work and {lock.node for lock in moved} == {a_x, a_y}
        assert granted == [waiter]
        table.check_invariants()

    def test_completion_takes_the_kernel_lock_once(self, monkeypatch):
        """Both tables skip a completion that can change nothing, with
        the counters a full pass would leave; on the threaded kernel
        every node completion takes the kernel lock exactly once."""
        for table_cls in (LockTable, ReferenceLockTable):
            with monkeypatch.context() as patched:
                self._check_completion_skips(patched, table_cls)

        db, (counter,) = make_counter_db()
        kernel = ThreadedKernel(db, n_threads=1)
        lock = _CountingLock()
        kernel.scheduler._kernel_lock = lock
        takes: list[int] = []
        original = TransactionManager._complete_node

        def counted(manager, node):
            before = lock.mine()
            original(manager, node)
            takes.append(lock.mine() - before)

        monkeypatch.setattr(TransactionManager, "_complete_node", counted)

        async def program(tx):
            await tx.call(counter, "Add", 1)

        kernel.spawn("A", program)
        kernel.spawn("B", program)
        kernel.run()
        # Each transaction: Get, Put, Add and the root complete.
        assert takes == [1] * 8

    def test_blocked_acquire_is_one_hold(self, monkeypatch):
        """A request that blocks enters the kernel lock once for its
        conflict test, enqueue and deadlock check, and is conflict-tested
        once before it waits."""
        db, x, __ = two_atoms()
        kernel = ThreadedKernel(db, n_threads=2)
        lock = _CountingLock()
        kernel.scheduler._kernel_lock = lock
        first_tests: list[str] = []
        compute_blockers = LockTable.compute_blockers

        def counted(table, node, target, invocation, tester, before_seq=None):
            if before_seq is None:  # not a re-evaluation's re-test
                first_tests.append(node.node_id)
            return compute_blockers(table, node, target, invocation, tester, before_seq)

        monkeypatch.setattr(LockTable, "compute_blockers", counted)
        at_request: dict[str, int] = {}
        blocked: list[str] = []
        takes: list[int] = []
        trace = kernel._trace

        def watched(node, kind, **detail):
            if kind == "request":
                at_request[node.node_id] = lock.mine()
            elif kind == "block":
                blocked.append(node.node_id)
            elif kind == "wake":
                takes.append(lock.mine() - at_request[node.node_id])
            trace(node, kind, **detail)

        kernel._trace = watched
        holding: set = set()

        async def holder(tx):
            await tx.put(x, "H")
            holding.add("H")
            give_up = time.monotonic() + 2.0
            while not blocked and time.monotonic() < give_up:
                await tx.pause()

        async def waiter(tx):
            give_up = time.monotonic() + 2.0
            while not holding and time.monotonic() < give_up:
                await tx.pause()
            await tx.put(x, "W")

        kernel.spawn("H", holder)
        kernel.spawn("W", waiter)
        kernel.run()
        assert all(handle.committed for handle in kernel.handles.values())
        assert len(blocked) == 1 and takes == [1]
        assert first_tests.count(blocked[0]) == 1

    @pytest.mark.parametrize("scenario", ["deadlock", "lock-timeout", "served-burst"])
    def test_every_table_call_holds_the_kernel_lock(self, monkeypatch, scenario):
        """Whatever thread makes it — a driver, a timer's callback, the
        server's drain — every call on the threaded kernel's table holds
        the kernel lock: the table needs no lock of its own."""
        if scenario == "served-burst":
            server = burst_server()
            seen, unlocked = checked_table_calls(monkeypatch, server.tk)
            server.start()
            try:
                responses = served_burst(server, requests=100)
            finally:
                assert server.shutdown().clean
            assert sum(response.ok for response in responses) == 200
        else:
            db, x, y = two_atoms()
            budget = 0.1 if scenario == "lock-timeout" else None
            kernel = ThreadedKernel(db, n_threads=2, lock_timeout=budget)
            seen, unlocked = checked_table_calls(monkeypatch, kernel)
            holding: set = set()
            if scenario == "deadlock":
                kernel.spawn("A", crossing(holding, "A", x, y))
                kernel.spawn("B", crossing(holding, "B", y, x))
            else:

                async def holder(tx):
                    await tx.put(x, "H")
                    holding.add("H")
                    give_up = time.monotonic() + 2.0
                    while not kernel.handles["W"].aborted and time.monotonic() < give_up:
                        await tx.pause()

                async def waiter(tx):
                    give_up = time.monotonic() + 2.0
                    while not holding and time.monotonic() < give_up:
                        await tx.pause()
                    await tx.put(x, "W")

                kernel.spawn("H", holder)
                kernel.spawn("W", waiter)
            kernel.run()
            snapshot = kernel.obs.snapshot()
            if scenario == "deadlock":
                assert kernel.metrics.deadlocks >= 1
            else:
                assert snapshot.counter("timeout.fired") == 1
                assert isinstance(kernel.handles["W"].error, LockTimeout)
        assert unlocked == []
        assert {"try_acquire", "complete_node"} <= set(seen), seen
        if scenario != "served-burst":
            assert {"enqueue_if_blocked", "cancel", "pending_of_tree"} <= set(seen), seen

    def test_served_burst_takes_the_kernel_lock_once_per_table_call(self, monkeypatch):
        """2 x 300 uniform requests: every kernel-lock take is a
        coordinated phase (``coordination()``) or a lock-wait timer's
        cancel or fire, and besides generic-operation bodies, which call
        no table method, there is at most one phase per table call."""
        server = burst_server()
        lock = _CountingLock()
        server.tk.scheduler._kernel_lock = lock
        counts = {"table": 0, "generic": 0}

        def count(cls, name, key):
            original = getattr(cls, name)

            def counted(*args, _original=original):
                counts[key] += 1  # the table and generic calls hold the lock
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)

        for name in KERNEL_TABLE_CALLS:
            count(LockTable, name, "table")
        count(TransactionManager, "_execute_generic", "generic")
        timers_armed = []
        call_later = WallClockScheduler.call_later

        def armed(scheduler, delay, callback):
            timers_armed.append(1)
            return call_later(scheduler, delay, callback)

        monkeypatch.setattr(WallClockScheduler, "call_later", armed)
        server.start()
        try:
            responses = served_burst(server)
        finally:
            assert server.shutdown().clean
        assert sum(response.ok for response in responses) == 600
        assert counts["table"] > 600
        bound = counts["table"] + counts["generic"] + 2 * len(timers_armed)
        assert 0 < lock.acquisitions <= bound, (lock.acquisitions, counts, len(timers_armed))

    def test_waits_graph_is_used_under_the_kernel_lock(self, monkeypatch):
        """Every call the threaded kernel makes on its waits-for graph
        holds the kernel lock, so the graph needs no lock of its own.
        A certain deadlock makes every kind of call."""
        from repro.txn.waits import WaitsForGraph

        db, x, y = two_atoms()
        kernel = ThreadedKernel(db, n_threads=2)
        lock = kernel.scheduler.coordination()
        seen: dict[str, int] = {}
        unlocked: list[str] = []
        for name in (
            "set_waits", "clear_waits", "remove_transaction", "waits_of",
            "edges_involving", "find_cycle_through", "find_any_cycle",
        ):
            original = getattr(WaitsForGraph, name)

            def checked(graph, *args, _original=original, _name=name):
                if graph is kernel.waits:
                    seen[_name] = seen.get(_name, 0) + 1
                    if not lock._is_owned():
                        unlocked.append(_name)
                return _original(graph, *args)

            monkeypatch.setattr(WaitsForGraph, name, checked)
        holding: set = set()
        kernel.spawn("A", crossing(holding, "A", x, y))
        kernel.spawn("B", crossing(holding, "B", y, x))
        kernel.run()
        assert kernel.metrics.deadlocks >= 1
        assert unlocked == []
        for name in ("set_waits", "clear_waits", "remove_transaction", "find_cycle_through"):
            assert seen.get(name, 0) > 0, (name, seen)


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
        """Thread instruments are reported; the ``stripe.*`` ones are gone
        with the stripes."""
        db, (counter,) = make_counter_db()
        kernel = ThreadedKernel(db, n_threads=2)

        async def program(tx):
            await tx.call(counter, "Add", 1)

        kernel.spawn("A", program)
        kernel.spawn("B", program)
        kernel.run()
        snap = kernel.obs.snapshot()
        assert snap.counters["thread.steps"] > 0
        assert snap.counters["thread.spawned"] == 2
        assert snap.counters["lock.grants"] > 0
        assert not [name for name in {**snap.counters, **snap.gauges} if name.startswith("stripe.")]
        assert snap.gauges["lock.held"]["value"] == 0  # all released

    def test_level_gauges_track_the_table_through_a_contended_run(self):
        workload = OrderEntryWorkload(WorkloadConfig(n_items=1, orders_per_item=3, seed=5))
        kernel = run_threaded_transactions(
            workload.db, dict(workload.take(8)), n_threads=4
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
        """T1 and T2 on two batch threads whose turn never runs out, so
        no transaction end hands the GIL over with a ``time.sleep(0)``
        (a loaded machine reaches a half-interval turn): every sleep
        left is a Pause's."""
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = ThreadedKernel(built.db, n_threads=2, **kwargs)
        kernel.scheduler._turn = float("inf")
        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 2))
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
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
        db, x, y = two_atoms()
        holding = set()
        kernel = ThreadedKernel(db, n_threads=2, lock_timeout=2.0)
        kernel.scheduler.stall_check = 5.0
        kernel.spawn("A", crossing(holding, "A", x, y))
        kernel.spawn("B", crossing(holding, "B", y, x))
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


class TestTargetedWakeups:
    """A notify reaches only the thread that can act on it: a grant or an
    interrupt only the blocked task's own driving thread.  Each test
    pushes the stall poll out to 5 s, so a lost notify would show as a
    multi-second wait and a stall check."""

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
        callers = [threading.Thread(target=kernel.drive, args=("holder", holder))]
        try:
            callers[0].start()
            assert took.wait(5.0)
            callers.append(threading.Thread(target=kernel.drive, args=("waiter", waiter)))
            callers[1].start()
            wait_until(
                lambda: getattr(kernel.scheduler.tasks.get("waiter"), "state", None)
                == Task.BLOCKED
            )
        finally:
            started = time.monotonic()
            wedged = kernel.stop(timeout=3.0)
            elapsed = time.monotonic() - started
            for thread in callers:
                thread.join(timeout=5.0)
        assert wedged == [] and elapsed < 1.0, (wedged, elapsed)
        assert all(handle.task.finished for handle in kernel.handles.values())


class TestYieldRule:
    """Counts, not timings: a zero-cost Pause yields the processor only
    in a batch run of several threads, which is what makes a batch run
    interleave.  Elsewhere the kernel does not await it at all, so a
    transaction that never blocks is one scheduler step: a lone batch
    thread runs like a lone caller, and a served caller hands the GIL
    over at a transaction's end instead.  Every batch task is driven
    through ``drive``."""

    @staticmethod
    def _count_yields(monkeypatch) -> list:
        yields = []
        monkeypatch.setattr(threaded, "_yield_thread", lambda: yields.append(1))
        return yields

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_a_batch_run_yields_only_on_several_threads(self, monkeypatch, n_threads):
        yields = self._count_yields(monkeypatch)
        workload = OrderEntryWorkload(WorkloadConfig(n_items=2, orders_per_item=2, seed=5))
        kernel = run_threaded_transactions(
            workload.db, dict(workload.take(8)), n_threads=n_threads
        )
        counters = kernel.obs.snapshot().counters
        if n_threads > 1:
            assert counters["thread.steps"] > 8  # the transactions did pause
        else:
            # One thread runs each transaction alone: nothing blocks, and
            # no Pause is awaited, so each one is a single step.
            assert counters["thread.steps"] == 8
        assert (len(yields) > 0) == (n_threads > 1), len(yields)
        assert counters["thread.caller_drives"] == counters["thread.spawned"] == 8

    def test_a_served_burst_never_yields(self, monkeypatch):
        """Two concurrent clients alternate over two items, so a request
        may wait for a lock.  Each request is one step, plus one for
        each lock wait it parks on (a request granted between its
        enqueue and its await does not park: ``Signal.__await__`` does
        not yield a fired signal)."""
        yields = self._count_yields(monkeypatch)
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2), n_threads=4
        ).start()
        responses = []

        def client(offset):
            for i in range(30):
                op = ("place", "stock-check", "restock")[i % 3]
                responses.append(server.submit(Request(op=op, item=(offset + i) % 2)))

        clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        assert server.shutdown().clean
        counters = server.obs.snapshot().counters
        assert len(responses) == 60 and all(r.ok for r in responses)
        assert 60 <= counters["thread.steps"] <= 60 + counters["lock.blocks"]
        assert yields == []
        assert counters["thread.caller_drives"] == counters["thread.spawned"] == 60


class TestCallerDrives:
    """A blocking submit runs its transaction on the calling thread, and
    every wake-up of a caller-driven task reaches that caller by notify.
    Counts, not timings: each test pushes the stall poll out to 5 s (or
    counts it), so a grant that missed its caller would show as a
    multi-second wait and a stall check."""

    def test_blocking_submits_run_on_their_callers(self):
        """2 submitting threads, 200 requests: every transaction is
        driven by the thread that submitted it."""
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
            stats = server.stats()
        finally:
            assert server.shutdown().clean
        assert len(responses) == 200 and all(r.ok for r in responses)
        assert counters["thread.caller_drives"] == counters["thread.spawned"] == 200
        assert counters["thread.stall_checks"] == 0
        assert stats["caller_drives"] == 200

    def test_a_served_server_starts_no_worker_thread(self, monkeypatch):
        """Mixed traffic from two callers, a 2PC compensation and a drain:
        every transaction runs on a caller, and no worker thread starts."""
        started = record_thread_starts(monkeypatch)
        wal = WriteAheadLog()
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2), n_threads=3, wal=wal
        ).start()
        participant = ClusterParticipant(server, wal)
        responses = []

        def client(offset):
            for i in range(30):
                op = ("place", "stock-check", "restock")[i % 3]
                responses.append(server.submit(Request(op=op, item=(offset + i) % 2)))

        clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        branch = Request(op="restock", item=0, quantity=5).to_dict()
        assert participant.prepare({"gtid": "g1", "branch": branch})["status"] == "prepared"
        assert participant.abort({"gtid": "g1", "seq": 1})["result"] == "aborted"
        report = server.shutdown()
        counters = server.obs.snapshot().counters
        assert report.clean, report.to_dict()
        assert len(responses) == 60 and all(r.ok for r in responses)
        assert counters["2pc.compensations"] == 1
        assert counters["thread.caller_drives"] == counters["thread.spawned"] == 62
        workers = [name for name in started if name.startswith(("cc-serve-", "cc-worker-"))]
        assert workers == [], workers
        assert "cc-deadline-reaper" in started  # the recorder saw the server's own thread

    def test_run_on_a_started_scheduler_raises_and_steps_nothing(self):
        """A started scheduler's callers drive its tasks, so a batch run
        on it raises before any step, and the task it found still waits
        for a caller."""
        kernel = ThreadedKernel(Database(), n_threads=2)
        kernel.start()

        async def program(tx):
            pass

        try:
            handle = kernel.spawn("undriven", program)
            with pytest.raises(RuntimeEngineError, match="started scheduler"):
                kernel.run()
            assert kernel.scheduler.steps == 0
            assert handle.task.state == Task.PENDING and handle.task.driver is None
            kernel.scheduler.drive(handle.task)
            assert handle.committed
        finally:
            assert kernel.stop() == []

    def test_caller_drives_are_readable_over_the_wire(self):
        """The wire handler thread drives each request it reads, and the
        ``stats`` op reports the count."""
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2)
        ).start()
        wire = WireServer(server).start()
        try:
            with TCPClient(*wire.address) as client:
                for i in range(6):
                    reply = client.request({"op": "stock-check", "item": i % 2})
                    assert reply["status"] == "ok", reply
                stats = client.stats()
        finally:
            wire.stop()
            assert server.shutdown().clean
        assert stats["caller_drives"] == 6

    def test_each_grant_reaches_its_calling_driver(self):
        """A caller-driven holder keeps a hot atom until five caller-driven
        writers have queued on it: each later grant must wake its caller
        by notify (a caller whose task had no wake-up would wait out the
        5 s poll)."""
        db = Database()
        hot = db.new_atom("hot", 0)
        db.attach_child(hot)
        kernel = ThreadedKernel(db, n_threads=1)
        kernel.scheduler.stall_check = 5.0
        took = threading.Event()
        release = kernel.scheduler.create_signal("release")

        async def holder(tx):
            await tx.put(hot, 0)
            took.set()
            await release

        def writer(value):
            async def program(tx):
                await tx.put(hot, value)

            return program

        started = time.monotonic()
        callers = [threading.Thread(target=kernel.drive, args=("holder", holder))]
        callers[0].start()
        assert took.wait(5.0)
        for value in range(1, 6):
            callers.append(
                threading.Thread(target=kernel.drive, args=(f"W{value}", writer(value)))
            )
            callers[-1].start()
        wait_until(lambda: kernel.locks.pending_count == 5)
        release.fire()  # readies the holder's caller from a thread that drives nothing
        for thread in callers:
            thread.join(timeout=10.0)
        elapsed = time.monotonic() - started
        assert not any(thread.is_alive() for thread in callers)
        assert elapsed < 1.5, elapsed
        snapshot = kernel.obs.snapshot()
        assert all(handle.committed for handle in kernel.handles.values())
        assert snapshot.counter("lock.blocks") >= 5
        assert snapshot.counter("thread.caller_drives") == 6
        assert snapshot.counter("thread.stall_checks") == 0
        assert kernel.locks.lock_count == 0

    def test_a_lone_caller_never_sleeps(self, monkeypatch):
        """With no other driver, a caller neither yields at its zero-cost
        Pauses nor hands the GIL over at its transaction's end."""
        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = ThreadedKernel(built.db, n_threads=1)
        kernel.scheduler._turn_started -= 1.0  # the turn is long up
        calls = []
        monkeypatch.setattr(time, "sleep", calls.append)
        monkeypatch.setattr(threaded, "_yield_thread", lambda: calls.append("yield"))
        handle = kernel.drive("T1", make_t1(built.item(0), 1, built.item(1), 2))
        assert handle.committed and calls == []
        counters = kernel.obs.snapshot().counters
        # Several actions, and no Pause awaited: one step.
        assert counters["kernel.actions"] > 2 and counters["thread.steps"] == 1

    def test_an_interrupt_lands_at_the_next_action(self):
        """A served transaction that never blocks awaits no zero-cost
        Pause, except when an interrupt is pending: it interrupts itself
        after its first action, and its second action must not run."""
        db = Database()
        first, second = db.new_atom("first", 0), db.new_atom("second", 0)
        db.attach_child(first)
        db.attach_child(second)
        kernel = ThreadedKernel(db, n_threads=1)
        kernel.start()
        reason = TransactionAborted("T", "interrupted")
        interrupted = []

        async def program(tx):
            await tx.put(first, 1)
            interrupted.append(kernel.interrupt_transaction("T", reason))
            await tx.put(second, 1)

        try:
            handle = kernel.drive("T", program)
        finally:
            assert kernel.stop() == []
        assert interrupted == [True]
        assert handle.aborted and not handle.committed, handle
        assert handle.error is reason
        # The transaction's own lock and the first Put's: the second Put
        # never reached its lock request.
        assert kernel.obs.snapshot().counters["lock.grants"] == 2
        assert first.raw_get() == 0 and second.raw_get() == 0

    def test_the_hand_off_rule(self, monkeypatch):
        """A caller hands the GIL over at a transaction's end only when
        another driver wants it and the turn is up; a hand-off that no
        driver took (no step while it slept) leaves the turn up."""
        scheduler = WallClockScheduler()
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        turn_up = time.monotonic() - 2 * scheduler._turn
        scheduler._turn_started = turn_up
        scheduler._end_turn()
        assert slept == []  # nobody else drives
        scheduler._driving = scheduler._blocked = 1
        scheduler._end_turn()
        assert slept == []  # the other driver is parked on a signal
        scheduler._blocked = 0
        scheduler._turn_started = time.monotonic() + 60.0  # far from up
        scheduler._end_turn()
        assert slept == []  # the turn is not up
        scheduler._turn_started = turn_up
        scheduler._end_turn()
        assert slept == [0] and scheduler._handoffs == 0
        assert time.monotonic() - scheduler._turn_started >= scheduler._turn  # nobody took it

        def the_other_driver_steps(seconds):
            slept.append(seconds)
            scheduler.steps += 1

        monkeypatch.setattr(time, "sleep", the_other_driver_steps)
        before = time.monotonic()
        scheduler._end_turn()
        assert slept == [0, 0]
        assert scheduler._turn_started >= before  # a new turn

    @staticmethod
    def _slow_server(**kwargs):
        """A server whose requests hold their locks for think time: 1 cost
        unit is 1 ms.  Lock waits get a 10 s budget, so only the deadline
        reaper or a drain can end a blocked wait."""
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2),
            time_scale=0.001,
            default_deadline=10.0,
            **kwargs,
        )
        server.tk.lock_timeout_fn = lambda node: 10.0
        server.tk.scheduler.stall_check = 5.0
        return server.start()

    @staticmethod
    def _submit_in_thread(server, request):
        out = []
        thread = threading.Thread(target=lambda: out.append(server.submit(request)))
        thread.start()
        return thread, out

    def test_deadline_interrupt_reaches_a_blocked_caller(self):
        """The reaper aborts an overdue caller-driven transaction that is
        blocked on a lock, long before the holder lets go."""
        server = self._slow_server(think_cost=800.0)
        try:
            holder, held = self._submit_in_thread(server, Request(op="restock", item=0))
            wait_until(lambda: server.tk.locks.lock_count > 0)
            started = time.monotonic()
            response = server.submit(Request(op="stock-check", item=0, deadline=0.1))
            waited = time.monotonic() - started
            holder.join(timeout=10.0)
            counters = server.obs.snapshot().counters
        finally:
            report = server.shutdown()
        assert response.status == "aborted", response
        assert response.error["code"] == "deadline-exceeded", response.error
        assert waited < 0.6, waited
        assert held and held[0].ok, held
        assert counters["server.deadline_interrupts"] == 1
        assert counters["thread.caller_drives"] == 2
        assert counters["thread.stall_checks"] == 0
        assert report.clean, report.to_dict()

    def test_a_queued_ticket_is_driven_by_its_caller(self):
        """With one in-flight slot, a second blocking submit waits in the
        admission queue; when the first ends, the ticket goes back to the
        thread that submitted it, not to the pool."""
        server = self._slow_server(
            think_cost=200.0, admission=AdmissionConfig(max_inflight=1, queue_cap=4)
        )
        drivers = {}
        finished = server.tk.scheduler.on_task_done

        def record(task):
            drivers[task.name] = (task.driver, threading.current_thread().name)
            finished(task)

        server.tk.scheduler.on_task_done = record
        try:
            first = threading.Thread(
                target=server.submit,
                args=(Request(op="restock", item=0),),
                kwargs={"name": "first"},
                name="first-caller",
            )
            first.start()
            wait_until(lambda: server.inflight_count() == 1)
            second, out = [], []

            def submit_second():
                out.append(server.submit(Request(op="restock", item=1), name="second"))

            second = threading.Thread(target=submit_second, name="second-caller")
            second.start()
            wait_until(lambda: server.admission.depth() == 1)
            for thread in (first, second):
                thread.join(timeout=10.0)
            counters = server.obs.snapshot().counters
        finally:
            assert server.shutdown().clean
        assert out and out[0].ok and out[0].queue_wait > 0.05, out
        assert drivers == {
            "first": ("first-caller", "first-caller"),
            "second": ("second-caller", "second-caller"),
        }
        assert counters["thread.caller_drives"] == counters["thread.spawned"] == 2

    def test_drain_reaches_a_blocked_caller(self):
        """Draining a server while a caller-driven transaction is blocked
        on a lock: the drain's abort reaches the blocked caller, which
        answers ``aborted``; the holder is aborted too, and the drain is
        clean."""
        server = self._slow_server(think_cost=600.0)
        holder, held = self._submit_in_thread(server, Request(op="restock", item=0))
        wait_until(lambda: server.tk.locks.lock_count > 0)
        waiter, waited = self._submit_in_thread(server, Request(op="stock-check", item=0))
        wait_until(lambda: server.tk.locks.pending_count == 1)
        report = server.shutdown(drain_deadline=0.05, grace=5.0)
        for thread in (holder, waiter):
            thread.join(timeout=10.0)
        assert report.clean, report.to_dict()
        assert report.stragglers_aborted == 2
        assert waited and waited[0].status == "aborted", waited
        assert "draining" in waited[0].error["message"], waited[0].error
        assert held and held[0].status == "aborted", held

    @pytest.mark.parametrize("budget, wedged", [(0.05, ["slow (driven by slow-caller)"]), (3.0, [])])
    def test_stop_never_closes_a_coroutine_a_caller_drives(self, budget, wedged):
        """A caller is in the middle of a 0.3 s Pause when the scheduler
        stops: a stop whose budget runs out first reports the task
        instead of closing its coroutine, a longer one waits for it; the
        transaction commits on the caller either way."""
        db = Database()
        atom = db.new_atom("a", 0)
        db.attach_child(atom)
        kernel = ThreadedKernel(db, n_threads=1, time_scale=1.0)
        kernel.start()
        pausing = threading.Event()

        async def program(tx):
            await tx.put(atom, 1)
            pausing.set()
            await Pause(0.3)  # time_scale 1.0: 0.3 s on the caller, no await

        caller = threading.Thread(target=kernel.drive, args=("slow", program), name="slow-caller")
        caller.start()
        assert pausing.wait(5.0)
        assert kernel.stop(timeout=budget) == wedged
        caller.join(timeout=5.0)
        handle = kernel.handles["slow"]
        assert handle.task.state == Task.DONE and handle.committed
        assert atom.raw_get() == 1

    def test_a_drive_after_stop_fails_without_a_step(self):
        db = Database()
        kernel = ThreadedKernel(db, n_threads=1)
        kernel.start()
        assert kernel.stop() == []
        ran = []

        async def program(tx):
            ran.append(True)

        handle = kernel.drive("late", program)
        assert handle.task.state == Task.FAILED
        assert "shut down" in str(handle.task.exception)
        assert ran == []


class TestCommutingHolder:
    """The paper's concurrency claim on real threads, as a count: a
    transaction that keeps a ``Restock`` on a hot item inside its still
    open transaction does not hold back a second ``Restock`` under
    semantic locking, because the two commute; flat object R/W 2PL
    makes the second wait for the first to end."""

    @pytest.mark.parametrize("protocol", ["semantic", "object-rw-2pl"])
    def test_a_commuting_operation_passes_a_parked_holder(self, protocol):
        built = build_order_entry_database(n_items=1, orders_per_item=1)
        kernel = ThreadedKernel(built.db, protocol=protocol_by_name(protocol)(), n_threads=1)
        kernel.scheduler.stall_check = 5.0
        item = built.item(0)
        restocked = threading.Event()
        release = kernel.scheduler.create_signal("release")

        async def holder(tx):
            await tx.call(item, "Restock", 5)
            restocked.set()
            await release  # parked with its transaction open

        callers = [threading.Thread(target=kernel.drive, args=("holder", holder))]
        callers[0].start()
        try:
            assert restocked.wait(5.0)
            callers.append(
                threading.Thread(
                    target=kernel.drive, args=("second", make_restock_txn(item, 7))
                )
            )
            callers[1].start()
            if protocol == "semantic":
                callers[1].join(timeout=5.0)
                assert kernel.handles["second"].committed
            else:
                wait_until(lambda: kernel.locks.pending_count == 1)
                assert "second" in kernel.handles
                assert not kernel.handles["second"].committed
            while_parked = kernel.obs.snapshot().counter("lock.blocks")
            assert not kernel.handles["holder"].task.finished
        finally:
            release.fire()
            for thread in callers:
                thread.join(timeout=5.0)
        assert while_parked == (0 if protocol == "semantic" else 1)
        assert kernel.handles["holder"].committed and kernel.handles["second"].committed
        assert kernel.obs.snapshot().counter("lock.blocks") == while_parked
        assert kernel.drive("check", make_stock_check_txn(item)).result == 1000 + 5 + 7
        assert kernel.locks.lock_count == 0


def cyclic_garbage(run):
    """Call *run* with the cyclic collector off, then collect once under
    ``gc.DEBUG_SAVEALL``: returns what only that collection could free
    (reference cycles and what they held), and restores the collector."""
    gc.collect()
    enabled = gc.isenabled()
    saved = len(gc.garbage)
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = gc.garbage[saved:]
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        if enabled:
            gc.enable()
    return result, found


def aborting_server() -> TransactionServer:
    """A server whose probe fails the request named ``app-error`` and
    makes the two ``cross-*`` places read the first item's order counter
    before either writes it: a certain deadlock."""
    server = TransactionServer(
        build_order_entry_database(n_items=4, orders_per_item=4),
        time_scale=0.002,
        admission=AdmissionConfig(max_inflight=4, queue_cap=16),
        default_deadline=10.0,
    )
    counter = server.built.items[0].impl_component("NextOrderNo").oid
    have_read: set = set()

    def probe(node, phase):
        if node.top_level_name == "app-error" and phase == "post":
            raise ValueError("application error")
        if node.target != counter or not node.top_level_name.startswith("cross"):
            return None
        if phase == "post" and node.invocation.operation == "Get":
            have_read.add(node.top_level_name)
        if phase != "pre" or node.invocation.operation != "Put":
            return None

        async def until_both_have_read():  # the read -> write cycle is certain
            give_up = time.monotonic() + 2.0
            while len(have_read) < 2 and time.monotonic() < give_up:
                await Pause(0.0)

        return until_both_have_read()

    server.tk.probe = probe
    return server


def aborting_burst(server):
    """On a started :func:`aborting_server`: an application-error abort,
    a deadline interrupt, a blocked request that times out, a certain
    deadlock, and a transaction driven directly (as a 2PC compensation
    is) that fails.  Returns the responses by name and the failed
    handle."""
    kernel = server.tk

    async def failing(tx):
        raise ValueError("driven directly")

    out = {"app-error": server.submit(Request(op="place", item=1), name="app-error")}
    server.think_cost = 200.0  # 0.4 s of think time, past a 0.05 s deadline
    out["deadline"] = server.submit(Request(op="place", item=0, deadline=0.05))
    holder = Caller(server, Request(op="restock", item=2))
    wait_until(lambda: kernel.locks.lock_count > 0)
    server.think_cost = 0.0
    kernel.lock_timeout_fn = lambda node: 0.05
    out["lock-timeout"] = server.submit(Request(op="stock-check", item=2))
    out["holder"] = holder.wait(10.0)
    kernel.lock_timeout_fn = server._lock_wait_budget
    crossing_places = [
        Caller(server, Request(op="place", lines=lines, deadline=5.0), name=f"cross-{k}")
        for k, lines in enumerate((((0, 1), (1, 1)), ((1, 1), (0, 1))))
    ]
    for k, caller in enumerate(crossing_places):
        out[f"cross-{k}"] = caller.wait(5.0)
    handle = kernel.drive("direct", failing)
    kernel.reap("direct")
    return out, handle


def check_aborting_outcomes(server, responses, counters) -> None:
    """Each request of :func:`aborting_burst` ended as it was built to."""
    assert responses["app-error"].error["type"] == "ValueError", responses["app-error"]
    assert responses["deadline"].error["code"] == "deadline-exceeded"
    assert responses["lock-timeout"].error["code"] == "lock-timeout"
    assert all(responses[name].ok for name in ("holder", "cross-0", "cross-1")), responses
    assert server.tk.metrics.deadlocks >= 1
    assert counters["server.deadline_interrupts"] >= 1


class TestNoServedTrace:
    """A served kernel records no trace: nothing reads a request's
    events, so none is written, and the sites on a request's
    non-blocking path (begin, request, grant, commit, release) do not
    even call ``_trace``.  A batch run keeps every event.  Counts, not
    timings."""

    @staticmethod
    def _count(monkeypatch, cls, name) -> list[int]:
        calls = [0]
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_served_burst_makes_no_trace_call(self, monkeypatch):
        """2 x 300 requests on disjoint items: no ``_trace`` call and no
        ``TraceLog.record``, and the kernel has no trace to read."""
        server = burst_server()
        traced = self._count(monkeypatch, TransactionManager, "_trace")
        recorded = self._count(monkeypatch, TraceLog, "record")
        server.start()
        try:
            responses = served_burst(server, disjoint=True)
        finally:
            assert server.shutdown().clean
        assert sum(response.ok for response in responses) == 600
        assert server.tk.metrics.blocks == 0
        assert traced == [0] and recorded == [0]
        assert server.tk.trace is None

    def test_blocked_and_aborted_requests_record_nothing(self, monkeypatch):
        """A block, a lock-wait timeout, a certain deadlock, a deadline
        interrupt and an application-error abort on a served kernel:
        their events go nowhere, so ``TraceLog.record`` is never called."""
        server = aborting_server()
        recorded = self._count(monkeypatch, TraceLog, "record")
        server.start()
        try:
            responses, __ = aborting_burst(server)
            counters = server.obs.snapshot().counters
        finally:
            server.tk.probe = None
            assert server.shutdown().clean
        check_aborting_outcomes(server, responses, counters)
        assert server.tk.metrics.blocks >= 1
        assert counters["timeout.fired"] >= 1
        assert recorded == [0]

    def test_a_batch_run_records_every_kind(self):
        """A batch run on the threaded kernel keeps its full trace: a
        certain deadlock records every event kind it passes through,
        begin to release; starting a kernel (serve mode) drops it."""
        db, x, y = two_atoms()
        holding: set = set()
        kernel = run_threaded_transactions(
            db,
            {"A": crossing(holding, "A", x, y), "B": crossing(holding, "B", y, x)},
            n_threads=2,
        )
        assert kernel.metrics.deadlocks >= 1
        kinds = {event.kind for event in kernel.trace}
        every = "begin request grant block deadlock abort undo release regrant wake commit"
        assert set(every.split()) <= kinds, kinds
        served = ThreadedKernel(Database())
        assert isinstance(served.trace, TraceLog)
        served.start()
        try:
            assert served.trace is None
        finally:
            served.stop()


class TestBoundedRetention:
    """A served kernel keeps only its in-flight transactions' trees (its
    history), and no trace: reaping a transaction drops its own tree.
    Counts, not timings."""

    def test_served_burst_leaves_no_cycle(self):
        """2 x 300 uniform requests leave nothing only the cyclic
        collector can free: a reaped tree is unlinked, no node owns a
        signal that points back at it, and a fired lock-wait timer drops
        its closure.  (Before, each request left about 35 such objects.)"""
        server = burst_server()
        server.start()
        try:
            responses, garbage = cyclic_garbage(lambda: served_burst(server))
        finally:
            assert server.shutdown().clean
        assert sum(response.ok for response in responses) == 600
        assert garbage == [], collections.Counter(type(o).__name__ for o in garbage)

    def test_reap_unlinks_under_the_kernel_lock(self, monkeypatch):
        """Reap unlinks a tree, and ``history()`` walks the trees, under
        the kernel lock: a reader running beside a served burst (switch
        interval 1e-5) sees every finished transaction whole, with the
        same record count in every snapshot that has it."""
        server = burst_server()
        kernel = server.tk
        lock = kernel.scheduler.coordination()
        unlocked: list[str] = []
        discards: list[str] = []
        history_of = kernel_module.history_of
        discard = kernel.undo.discard

        def checked_history_of(roots):
            if not lock._is_owned():
                unlocked.append("history")
            return history_of(roots)

        def checked_discard(node_id):  # called once per node reap unlinks
            discards.append(node_id)
            if not lock._is_owned():
                unlocked.append("reap")
            discard(node_id)

        monkeypatch.setattr(kernel_module, "history_of", checked_history_of)
        monkeypatch.setattr(kernel.undo, "discard", checked_discard)
        sizes: dict[str, int] = {}
        torn: list[str] = []
        errors: list[Exception] = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    records = kernel.history().records
                    per_txn = collections.Counter(record.txn for record in records)
                    for record in records:
                        if record.parent_id is None:  # a finished transaction's root
                            size = per_txn[record.txn]
                            if sizes.setdefault(record.txn, size) != size:
                                torn.append(record.txn)
            except Exception as exc:  # noqa: BLE001 - asserted by the main thread
                errors.append(exc)

        watcher = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        server.start()
        sys.setswitchinterval(1e-5)
        try:
            watcher.start()
            responses = served_burst(server)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            watcher.join(timeout=10.0)
            assert server.shutdown().clean
        assert not watcher.is_alive()
        assert sum(response.ok for response in responses) == 600
        assert errors == [] and unlocked == [] and torn == [], (errors, unlocked, torn)
        assert discards

    def test_aborted_requests_leave_no_cycle(self):
        """An application-error abort, a deadline interrupt, a lock-wait
        timeout and a certain deadlock leave no transaction node, handle,
        invocation or frame for the cyclic collector: reap drops the
        tracebacks that closed error -> frame -> handle -> error, and
        the deadlock search keeps no recursive closure.  The error stays
        readable on the handle after reap."""
        server = aborting_server()
        server.start()
        try:
            (responses, handle), garbage = cyclic_garbage(lambda: aborting_burst(server))
            counters = server.obs.snapshot().counters
        finally:
            server.tk.probe = None
            assert server.shutdown().clean
        check_aborting_outcomes(server, responses, counters)
        assert repr(handle.error) == "ValueError('driven directly')" and not handle.committed
        kinds = collections.Counter(type(o).__name__ for o in garbage)
        for kind in ("TransactionNode", "TxnHandle", "Invocation", "frame"):
            assert kinds[kind] == 0, kinds

    def test_served_kernel_keeps_only_inflight_transactions(self):
        """2 000 requests from 2 clients: the kernel never holds more
        transaction handles than admission lets in, and a quiescent
        server holds no handle, no history record, no composition chain
        and no trace."""
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
                samples.append(len(server.tk.handles))
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
            retained_handles = dict(server.tk.handles)
            retained = server.tk.history()
        finally:
            served.set()
            assert server.shutdown().clean
        assert len(responses) == 2000 and all(r.ok for r in responses)
        assert samples and max(samples) <= max_inflight, max(samples, default=None)
        assert retained_handles == {}
        assert server.tk.trace is None
        assert retained.records == []
        assert retained.composition_parent == {}

    def test_iterate_while_workers_emit(self):
        """Four threads emit for transactions of their own (as a batch
        run's workers do) while a fifth iterates the log: no event is
        lost or reordered, and iterating never trips over a concurrent
        emit."""
        log = TraceLog()
        txns = {k: [f"T{k}.{j}" for j in range(500)] for k in range(4)}
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


class TestMetricsUpdates:
    """What the lock tables, the scheduler and admission already count
    under their own locks is read at snapshot time, not copied into the
    registry on every operation.  Counts, not timings."""

    #: Locked instrument updates allowed per committed request.  What is
    #: left is the kernel's and the server's own events (actions,
    #: commits, requests, latencies, queue waits, conflict outcomes):
    #: about 15 on this burst.  Copying the lock tables' counts, steps,
    #: coordinations and queue levels as well made it about 85.
    MAX_UPDATES_PER_REQUEST = 17

    @staticmethod
    def _count_locked_updates(monkeypatch) -> list[int]:
        """Patch every locked instrument update to count itself."""
        from repro.obs import registry

        calls = [0]
        for cls, names in (
            (registry._LockedCounter, ("inc",)),
            (registry._LockedGauge, ("set", "inc", "dec")),
            (registry._LockedHistogram, ("observe",)),
        ):
            for name in names:
                original = getattr(cls, name)

                def counted(instrument, *args, _original=original):
                    calls[0] += 1
                    return _original(instrument, *args)

                monkeypatch.setattr(cls, name, counted)
        return calls

    def test_served_burst_updates_per_request(self, monkeypatch):
        """Two clients replay 300 uniform order-entry requests each on an
        in-memory server: the burst makes at most
        ``MAX_UPDATES_PER_REQUEST`` locked registry updates per commit."""
        server = burst_server()
        server.start()
        try:
            calls = self._count_locked_updates(monkeypatch)
            responses = served_burst(server)
            updates = calls[0]
        finally:
            monkeypatch.undo()
            assert server.shutdown().clean
        committed = sum(response.ok for response in responses)
        assert committed == 600, [r.to_dict() for r in responses if not r.ok][:3]
        assert updates / committed <= self.MAX_UPDATES_PER_REQUEST, updates / committed

    def test_snapshot_reads_what_the_owners_hold(self):
        """The collected figures of a served run agree with the owners'
        own state at quiescence."""
        server = TransactionServer(build_order_entry_database(n_items=4, orders_per_item=4))
        server.start()
        try:
            for i in range(20):
                assert server.submit(Request(op="place", item=i % 4)).ok
            snapshot = server.tk.obs.snapshot()
            scheduler, locks = server.tk.scheduler, server.tk.locks
            assert snapshot.counter("thread.steps") == scheduler.steps
            assert snapshot.counter("thread.spawned") == 20
            assert "shard.coordinations" not in snapshot.counters
            assert snapshot.counter("lock.grants") == locks.total_grants
            assert snapshot.counter("admission.admitted") == 20
            assert snapshot.gauges["admission.inflight"] == {"value": 0, "hwm": 1}
            assert snapshot.gauges["lock.held"]["value"] == 0
            assert snapshot.gauges["lock.held"]["hwm"] >= 1
        finally:
            assert server.shutdown().clean


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
            workload.db, programs, n_threads=6
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
