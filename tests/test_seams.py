"""Conformance tests for the kernel's two runtime seams.

The kernel has one code path over ``SchedulerAPI`` and ``LockTableAPI``;
these tests hold every implementation to the same observable behaviour:
a table-level scenario suite run against every lock table, a check
that each implementation provides every member the protocols name, an
AST check that the kernel probes for nothing, that the threaded kernel
is the same object rather than a wrapper round one (no ``.kernel.`` /
``.runtime.`` chain, no import cycle), that the wire framing and the
WAL file each have one reader, the external interrupt primitive under
both runtimes, that the Fig. 9 conflict test has one path, with no
decision cache in front of it, that a blocked wait is resolved one
way, that coroutine steps run under no execution-shard partition and the
lock table under no stripes, that a threaded task is driven one way,
and that no code path but the page store's own module reaches the page
store.
"""

from __future__ import annotations

import _thread
import ast
import importlib
import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.core.kernel as kernel_module
import repro.txn.history as history_module
from repro.core.kernel import TransactionManager
from repro.errors import TransactionAborted
from repro.objects.database import Database
from repro.objects.oid import Oid
from repro.protocols import CCProtocol, protocols_by_name
from repro.runtime.scheduler import Scheduler, SchedulerAPI
from repro.runtime.threaded import ThreadedKernel, WallClockScheduler
from repro.semantics.invocation import Invocation
from repro.txn.locks import Disposition, LockTable, LockTableAPI
from repro.txn.transaction import TransactionNode

from tests.helpers import ReferenceLockTable

SRC_REPRO = Path(kernel_module.__file__).resolve().parents[1]

X = Oid("Atom", 1)
Y = Oid("Atom", 2)
Z = Oid("Atom", 3)

def served_kernel(n_stripes: int):
    """The kernel of a server built with *n_stripes*: the argument is
    still accepted and changes nothing."""
    from repro.server.core import TransactionServer

    return TransactionServer(n_stripes=n_stripes).tk


#: Every kernel the seam tests build, by the kind of its lock table:
#: the virtual-time kernel over the indexed and the reference table,
#: the threaded kernel, and the served threaded kernel.
KERNELS = {
    "indexed": lambda: TransactionManager(Database()),
    "reference": lambda: TransactionManager(Database(), lock_table_cls=ReferenceLockTable),
    "concurrent": lambda: ThreadedKernel(Database()),
    "striped-1": lambda: served_kernel(1),
    "striped-4": lambda: served_kernel(4),
    "striped-8": lambda: served_kernel(8),
}

#: The tables alone.  A threaded kernel's table is a plain ``LockTable``
#: built without a clock.
TABLES = {
    "indexed": LockTable,
    "reference": ReferenceLockTable,
    "concurrent": lambda: ThreadedKernel(Database()).locks,
    "striped-1": lambda: served_kernel(1).locks,
    "striped-4": lambda: served_kernel(4).locks,
    "striped-8": lambda: served_kernel(8).locks,
}


# ----------------------------------------------------------------------
# (a) One scenario suite, every table
# ----------------------------------------------------------------------
def rw_tester(holder, holder_inv, requester, requester_inv, target):
    """Read/write modes between different trees.  A conflict waits for
    the holder's subtransaction while that runs and is relieved once it
    has committed (Fig. 9, cases 2 and 1); a lock held directly under
    the root — or by it, after a reassignment — waits for the root."""
    if holder.root() is requester.root():
        return None
    if holder_inv.operation == "R" and requester_inv.operation == "R":
        return None
    scope = holder.parent or holder
    if scope.is_top_level:
        return scope
    return None if scope.completed else scope


class Tree:
    """A top-level transaction whose actions are made on demand."""

    def __init__(self, name: str) -> None:
        self.root = TransactionNode(
            name, None, Oid("Database", 0), Invocation("Transaction", (name,))
        )
        self._n = 0

    def action(self, mode: str, target: Oid, parent: TransactionNode | None = None):
        self._n += 1
        return TransactionNode(
            f"{self.root.node_id}.{self._n}", parent or self.root, target, Invocation(mode)
        )


class Driver:
    """Drives a table through the seam only, logging outcomes and what
    the table told its hook."""

    def __init__(self, table) -> None:
        self.table = table
        self.scheduler = Scheduler()
        self.log: list = []
        self.pending: dict[str, object] = {}
        self.hooks: list[tuple] = []
        self._reported: dict[str, list[str]] = {}
        table.on_waits_changed = self._waits_changed

    def _waits_changed(self, pending) -> None:
        blockers = sorted(b.node_id for b in pending.blockers)
        # Only changes: the reference table re-tests (and re-reports)
        # queues the indexed ones can prove unchanged.
        if self._reported.get(pending.node.node_id) != blockers:
            self._reported[pending.node.node_id] = blockers
            self.hooks.append((str(pending.target), pending.node.node_id, blockers))

    def acquire(self, node: TransactionNode, target: Oid) -> None:
        blockers = self.table.try_acquire(node, target, node.invocation, rw_tester)
        if blockers:
            signal = self.scheduler.create_signal(node.node_id)
            pending = self.table.enqueue_if_blocked(node, target, node.invocation, signal, blockers)
            assert pending.blockers == blockers
            self.pending[node.node_id] = pending
        self.log.append(("acquire", node.node_id, sorted(b.node_id for b in blockers)))
        self.observe()

    def step(self, label: str, result=None) -> None:
        self.log.append((label, sorted(self._describe(item) for item in result or ())))
        self.observe()

    def reevaluate(self) -> None:
        self.step("reevaluate", self.table.reevaluate(rw_tester))

    def complete(self, node: TransactionNode, disposition: Disposition) -> tuple[list, list]:
        """What the kernel's completion step asks of the table; returns
        the targets of the locks it moved and the trees it woke."""
        node.mark_committed(len(self.log))
        moved, granted = self.table.complete_node(node, disposition, rw_tester)
        self.log.append(("moved", sorted(self._describe(lock) for lock in moved)))
        self.step(f"complete {disposition.value}", granted)
        return sorted(str(lock.target) for lock in moved), [p.node.root().node_id for p in granted]

    def drain(self) -> None:
        """Commit, one after the other, every tree that still holds a lock."""
        while self.table.lock_count:
            held = (lock for target in (X, Y, Z) for lock in self.table.locks_on(target))
            self.complete(next(held).node.root(), Disposition.RELEASE_TREE)

    @staticmethod
    def _describe(item) -> tuple:
        return (item.node.node_id, item.invocation.operation, str(item.target))

    def observe(self) -> None:
        self.table.check_invariants()
        for target in (X, Y, Z):
            self.log.append(
                (
                    str(target),
                    [self._describe(lock) for lock in self.table.locks_on(target)],
                    [
                        (*self._describe(p), sorted(b.node_id for b in p.blockers))
                        for p in self.table.queue_on(target)
                    ],
                )
            )
        self.log.append(("counts", self.table.lock_count, self.table.pending_count))
        self.log.append(
            ("woken", sorted(name for name, p in self.pending.items() if p.signal.done))
        )
        self._observe_hooks()

    def _observe_hooks(self) -> None:
        """The re-tests since the last step, in one order *per target*
        (the reference table visits targets in its own order, so only
        that much is comparable)."""
        hooks, self.hooks = self.hooks, []
        # stable: the order within one target is the table's
        self.last_hooks = sorted(hooks, key=lambda event: event[0])
        self.log.append(("hooks", self.last_hooks))


def scenario_grant_block_release(d: Driver) -> None:
    t1, t2, t3 = Tree("T1"), Tree("T2"), Tree("T3")
    d.acquire(t1.action("W", X), X)
    d.acquire(t2.action("R", X), X)  # blocked by T1
    d.acquire(t3.action("R", Y), Y)  # unrelated object: granted
    d.acquire(t1.action("R", Y), Y)  # readers share
    d.step("release_tree", d.table.release_tree(t1.root))
    d.reevaluate()  # T2's read is granted and woken
    d.step("release_tree", d.table.release_tree(t2.root))
    d.step("release_tree", d.table.release_tree(t3.root))
    d.reevaluate()


def scenario_fcfs_no_overtaking(d: Driver) -> None:
    t1, t2, t3 = Tree("T1"), Tree("T2"), Tree("T3")
    d.acquire(t1.action("R", X), X)
    d.acquire(t2.action("W", X), X)  # waits for the reader
    d.acquire(t3.action("R", X), X)  # compatible with T1, but queued behind T2
    d.step("release_tree", d.table.release_tree(t1.root))
    d.reevaluate()  # T2 first; T3 keeps waiting, now for T2
    d.step("release_tree", d.table.release_tree(t2.root))
    d.reevaluate()  # now T3
    d.step("release_tree", d.table.release_tree(t3.root))


def scenario_cancel(d: Driver) -> None:
    t1, t2, t3 = Tree("T1"), Tree("T2"), Tree("T3")
    d.acquire(t1.action("W", X), X)
    victim = t2.action("W", X)
    d.acquire(victim, X)
    d.acquire(t3.action("W", X), X)  # blocked by T1 and by T2's queued request
    d.table.cancel(d.pending.pop(victim.node_id))
    d.step("cancel")
    d.reevaluate()  # T3 re-tested: only T1 blocks it now
    d.step("release_tree", d.table.release_tree(t1.root))
    d.reevaluate()  # T3 is granted; the cancelled request never is
    d.step("release_tree", d.table.release_tree(t3.root))


def scenario_subtree_operations(d: Driver) -> None:
    t1, t2 = Tree("T1"), Tree("T2")
    method = t1.action("W", X)
    leaf = t1.action("W", Y, parent=method)
    d.acquire(method, X)
    d.acquire(leaf, Y)
    d.acquire(t2.action("W", Y), Y)  # blocked by T1
    d.complete(method, Disposition.RELEASE_DESCENDANTS)  # T2 gets Y; T1 keeps X
    d.step("release_tree", d.table.release_tree(t2.root))
    again = t1.action("W", Y)
    retry = t1.action("W", Z, parent=again)
    d.acquire(again, Y)
    d.acquire(retry, Z)
    d.complete(again, Disposition.REASSIGN_TO_PARENT)  # root owns both
    d.step("release_subtree", d.table.release_subtree(again))  # nothing left below
    d.acquire(t2.action("R", Z), Z)  # still blocked: the root holds Z
    d.step("release_tree", d.table.release_tree(t1.root))
    d.reevaluate()
    d.step("release_tree", d.table.release_tree(t2.root))


def scenario_completion_notice(d: Driver) -> None:
    t1, t2 = Tree("T1"), Tree("T2")
    holder = t1.action("W", X)
    d.acquire(holder, X)
    d.acquire(t2.action("W", X), X)
    d.reevaluate()  # nothing changed: still blocked
    d.complete(t1.root, Disposition.RETAIN)  # re-tested because its recorded blocker completed
    d.table.release_lock(d.table.locks_on(X)[0])
    d.step("release_lock")
    d.reevaluate()
    d.step("release_tree", d.table.release_tree(t2.root))


# One scenario per disposition.  Each has two waiters queued on the
# completing node (the regrant order on one target), and a bystander
# blocked on another target by another tree, which nothing may touch.
def _completion_setting(d: Driver):
    t1, t2, t3, t4, t5 = (Tree(f"T{i}") for i in range(1, 6))
    method = t1.action("W", X)
    d.acquire(method, X)
    d.acquire(t1.action("W", Y, parent=method), Y)
    d.acquire(t2.action("R", Y), Y)  # waits for T1's method ...
    d.acquire(t3.action("R", Y), Y)  # ... and so does T3, behind T2
    d.acquire(t4.action("W", Z), Z)
    d.acquire(t5.action("W", Z), Z)  # the bystander
    return t1, method


def _bystander_untouched(d: Driver) -> None:
    assert not any(event[0] == str(Z) for event in d.last_hooks), d.last_hooks
    assert d.table.queue_on(Z)[0].blockers


def scenario_complete_retain(d: Driver) -> None:
    t1, method = _completion_setting(d)
    # Nothing moves; relieved, both readers share Y with the retained lock.
    assert d.complete(method, Disposition.RETAIN) == ([], ["T2", "T3"])
    _bystander_untouched(d)
    assert len(d.table.locks_on(Y)) == 3
    d.drain()


def scenario_complete_release_descendants(d: Driver) -> None:
    t1, method = _completion_setting(d)
    # The leaf's lock goes, the method's own stays.
    assert d.complete(method, Disposition.RELEASE_DESCENDANTS) == ([str(Y)], ["T2", "T3"])
    _bystander_untouched(d)
    assert len(d.table.locks_on(Y)) == 2 and len(d.table.locks_on(X)) == 1
    d.drain()


def scenario_complete_reassign_to_parent(d: Driver) -> None:
    t1, method = _completion_setting(d)
    assert d.complete(method, Disposition.REASSIGN_TO_PARENT) == ([str(X), str(Y)], [])
    # Both readers were re-tested and now wait for the root that owns Y.
    assert d.last_hooks == [(str(Y), "T2.1", ["T1"]), (str(Y), "T3.1", ["T1"])]
    assert {lock.node for lock in d.table.locks_on(X) + d.table.locks_on(Y)} == {t1.root}
    d.drain()


def scenario_complete_release_tree(d: Driver) -> None:
    t1, method = _completion_setting(d)
    d.complete(method, Disposition.RETAIN)
    d.acquire(t1.action("W", X), X)  # T1 already owns X through the method
    d.acquire(Tree("T6").action("R", X), X)  # waits for T1's root ...
    d.acquire(Tree("T7").action("W", X), X)  # ... and so does T7, and for T6
    moved, woken = d.complete(t1.root, Disposition.RELEASE_TREE)
    assert moved == [str(X), str(X), str(Y)] and woken == ["T6"]
    assert d.last_hooks == [(str(X), "T6.1", []), (str(X), "T7.1", ["T6"])]
    _bystander_untouched(d)
    assert not d.table.locks_held_by_tree(t1.root)
    d.drain()


SCENARIOS = [
    scenario_grant_block_release,
    scenario_fcfs_no_overtaking,
    scenario_cancel,
    scenario_subtree_operations,
    scenario_completion_notice,
    scenario_complete_retain,
    scenario_complete_release_descendants,
    scenario_complete_reassign_to_parent,
    scenario_complete_release_tree,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("kind", [k for k in TABLES if k != "indexed"])
def test_tables_agree_through_the_acquire_seam(scenario, kind):
    expected = Driver(LockTable())
    scenario(expected)
    actual = Driver(TABLES[kind]())
    scenario(actual)
    assert actual.log == expected.log
    assert actual.table.lock_count == actual.table.pending_count == 0
    # the scenario did exercise blocking and waking
    assert any(entry[0] == "woken" and entry[1] for entry in expected.log)


@pytest.mark.parametrize("kind", TABLES)
def test_guard_is_a_reentrant_context_manager(kind):
    """What guards a kernel's table calls is its scheduler's
    ``coordination()`` (the table has no guard of its own), and it is
    reentrant: a conflict test run under it reads the table again."""
    kernel = KERNELS[kind]()
    with kernel.scheduler.coordination():
        with kernel.scheduler.coordination():
            assert kernel.locks.locks_on(X) == ()


# ----------------------------------------------------------------------
# (b) Every implementation provides every protocol member
# ----------------------------------------------------------------------
def protocol_members(protocol) -> dict[str, object]:
    members = {name: None for name in protocol.__annotations__}
    members.update(
        (name, value) for name, value in vars(protocol).items() if not name.startswith("_")
    )
    return members


def assert_provides(instance, protocol) -> None:
    members = protocol_members(protocol)
    assert members, protocol
    for name, declared in members.items():
        assert hasattr(instance, name), f"{type(instance).__name__} lacks {name}"
        if not inspect.isfunction(declared):
            continue
        wanted = list(inspect.signature(declared).parameters)[1:]  # drop self
        offered = list(inspect.signature(getattr(instance, name)).parameters)
        assert offered[: len(wanted)] == wanted, (type(instance).__name__, name, offered)


@pytest.mark.parametrize("make", [Scheduler, WallClockScheduler])
def test_schedulers_provide_the_scheduler_seam(make):
    assert_provides(make(), SchedulerAPI)


@pytest.mark.parametrize("kind", TABLES)
def test_tables_provide_the_lock_table_seam(kind):
    assert_provides(TABLES[kind](), LockTableAPI)


def test_seam_protocols_name_the_acquire_path():
    assert {"try_acquire", "enqueue_if_blocked"} <= set(protocol_members(LockTableAPI))
    assert "coordination" in protocol_members(SchedulerAPI)


# ----------------------------------------------------------------------
# (c) The kernel probes for nothing
# ----------------------------------------------------------------------
def test_kernel_does_not_probe_its_collaborators():
    with open(inspect.getsourcefile(kernel_module)) as fh:
        tree = ast.parse(fh.read())
    seams = {"self.scheduler", "self.locks", "self.wal", "wal"}
    probes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "nullcontext" not in {alias.name for alias in node.names}
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and node.args
            and ast.unparse(node.args[0]) in seams
        ):
            probes.append(ast.unparse(node))
    assert probes == []


# ----------------------------------------------------------------------
# (d) One kernel object: the threaded kernel is-a kernel
# ----------------------------------------------------------------------
def test_threaded_kernel_is_a_transaction_manager():
    assert issubclass(ThreadedKernel, TransactionManager)
    kernel = ThreadedKernel(Database())
    assert not hasattr(kernel, "kernel") and not hasattr(kernel, "runtime")
    assert isinstance(kernel.scheduler, WallClockScheduler)
    assert type(kernel.locks) is LockTable


def test_nothing_reaches_through_a_kernel_or_runtime_attribute():
    """No ``x.kernel.y`` / ``x.runtime.y`` chain anywhere in ``src/repro``
    (the wrapper's two names), and ``runtime/`` imports the kernel at
    module top — a function-level import there is the old cycle back."""
    offenders = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("kernel", "runtime")
            ):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if (
                path.parent.name == "runtime"
                and isinstance(node, ast.ImportFrom)
                and node.module == "repro.core.kernel"
                and node.col_offset > 0
            ):
                offenders.append(f"{path.name}:{node.lineno} kernel import below module top")
    assert offenders == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.runtime.threaded",
        "repro.core.kernel",
        "repro.server.core",
        "repro.cluster.router",
        "repro.cluster.shard",
    ],
)
def test_importable_first_in_a_fresh_interpreter(module):
    """The core.kernel -> runtime -> runtime.threaded -> core.kernel
    cycle stays broken whichever end is imported first, and so does
    cluster -> server.wire (the router imports it at module top)."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC_REPRO.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# (e) One transport, one WAL reader: each framing has one home
# ----------------------------------------------------------------------
def _calls(node: ast.AST, function: str = "<module>"):
    """Every ``(callee, enclosing function)`` below *node*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield ast.unparse(child.func), function
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(child, child.name if inner else function)


def test_each_framing_is_spelled_out_once():
    """Newline-JSON over TCP lives in ``server/wire.py`` alone (one
    handler, one TCP server, one connect, and one ``recv`` loop on each
    side into its own line buffer, with no ``makefile`` file object) and
    nothing in ``server/`` imports ``cluster/``; a WAL file is scanned
    and its payloads unpickled by ``load_wal_file`` alone, the one
    ``pickle.loads`` under ``src/repro``."""
    bases: list[tuple[str, str]] = []
    calls: list[tuple[str, str]] = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        where = path.relative_to(SRC_REPRO).as_posix()
        tree = ast.parse(path.read_text())
        calls += [(callee, f"{where}:{function}") for callee, function in _calls(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases += [(ast.unparse(base), where) for base in node.bases]
            elif isinstance(node, ast.ImportFrom) and where.startswith("server/"):
                assert not (node.module or "").startswith("repro.cluster"), where

    def homes(pairs, name):
        return [where for found, where in pairs if found.rpartition(".")[2] == name]

    assert homes(bases, "BaseRequestHandler") == ["server/wire.py"]
    assert homes(bases, "StreamRequestHandler") == []
    assert homes(bases, "ThreadingTCPServer") == ["server/wire.py"]
    assert homes(calls, "create_connection") == ["server/wire.py:__init__"]
    assert homes(calls, "recv") == ["server/wire.py:handle", "server/wire.py:receive"]
    assert homes(calls, "makefile") == []
    assert homes(calls, "iter_frames") == ["storage/durable.py:load_wal_file"]
    assert [where for found, where in calls if found == "pickle.loads"] == [
        "storage/durable.py:load_wal_file",
    ]


# ----------------------------------------------------------------------
# (f) interrupt_transaction under both runtimes
# ----------------------------------------------------------------------
class VirtualRun(TransactionManager):
    def until(self, condition) -> None:
        for __ in range(1000):
            if condition():
                return
            self.scheduler.run(max_steps=1)
        raise AssertionError("condition never held")

    def finish(self) -> None:
        self.run()


class ThreadedRun(ThreadedKernel):
    """A served threaded kernel: each transaction is driven by a calling
    thread of its own, the only way a served kernel runs one."""

    def __init__(self, db) -> None:
        super().__init__(db, n_threads=2)
        self.start()
        self.callers: list[threading.Thread] = []

    def spawn(self, name, program) -> None:
        task = super().spawn(name, program).task
        caller = threading.Thread(target=self.scheduler.drive, args=(task,), daemon=True)
        self.callers.append(caller)
        caller.start()

    def until(self, condition) -> None:
        deadline = time.monotonic() + 10.0
        while not condition():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.002)

    def finish(self) -> None:
        try:
            for caller in self.callers:
                caller.join(timeout=10.0)
            self.until(lambda: self.scheduler.all_finished)
        finally:
            assert self.stop() == []


@pytest.mark.parametrize("make_run", [VirtualRun, ThreadedRun])
def test_interrupt_transaction(make_run):
    db = Database()
    atom = db.new_atom("a", 0)
    db.attach_child(atom)
    kernel = make_run(db)
    gate = kernel.scheduler.create_signal("gate")

    async def holder(tx):
        await tx.put(atom, 1)
        await gate

    async def waiter(tx):
        await tx.put(atom, 2)

    try:
        kernel.spawn("holder", holder)
        kernel.until(lambda: atom.raw_get() == 1)
        kernel.spawn("waiter", waiter)
        kernel.until(lambda: kernel.locks.pending_count == 1)

        reason = TransactionAborted("waiter", "interrupted by the test")
        assert kernel.interrupt_transaction("nobody", reason) is False
        assert kernel.interrupt_transaction("waiter", reason) is True
        assert kernel.locks.pending_count == 0  # its queued request went with it
        assert kernel.interrupt_transaction("waiter", reason) is False  # aborting
    finally:
        gate.fire()
        kernel.finish()

    assert kernel.handles["holder"].committed
    waiter_handle = kernel.handles["waiter"]
    assert waiter_handle.aborted and waiter_handle.error is reason
    assert kernel.interrupt_transaction("holder", reason) is False  # finished
    assert kernel.interrupt_transaction("waiter", reason) is False
    assert atom.raw_get() == 1
    assert kernel.locks.lock_count == 0 and kernel.locks.pending_count == 0
    kernel.locks.check_invariants()


# ----------------------------------------------------------------------
# (g) One Fig. 9 path: no decision cache, no switch, no cache hooks
# ----------------------------------------------------------------------
def test_conflict_test_has_one_path():
    """The commutativity memo and the ancestor-relief cache, the
    ``caching=`` switch between them and the plain path, the lifecycle
    hooks that only fed them, and their ``cache.*`` counters stay gone."""
    for module in ("repro.core.reliefcache", "repro.semantics.memo"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    for name, cls in protocols_by_name().items():
        assert "caching" not in inspect.signature(cls).parameters, name
    for seam in (CCProtocol, LockTableAPI):
        for hook in ("on_node_event", "on_locks_reassigned", "make_thread_safe"):
            assert hook not in protocol_members(seam), (seam.__name__, hook)
            assert not hasattr(seam, hook), (seam.__name__, hook)
    assert _src_literals(lambda value: value.startswith("cache.")) == []


# ----------------------------------------------------------------------
# (h) One way to resolve a blocked wait: cycle detection plus a budget
# ----------------------------------------------------------------------
def test_blocked_wait_has_one_resolution():
    """No wait-die / wound-wait / timers-only policy switch and no retry
    backoff: the five entry points take neither option, the retry
    module is gone, and no literal names a removed policy or metric."""
    from repro.runtime.differential import run_differential
    from repro.runtime.threaded import run_threaded_transactions

    entry_points = (
        TransactionManager,
        kernel_module.run_transactions,
        ThreadedKernel,
        run_threaded_transactions,
        run_differential,
    )
    for entry in entry_points:
        parameters = inspect.signature(entry).parameters
        for option in ("deadlock_policy", "retry_policy"):
            assert option not in parameters, (entry.__name__, option)
    with pytest.raises(ImportError):
        importlib.import_module("repro.txn.retry")
    assert _src_literals(
        lambda value: value in ("wait-die", "wound-wait")
        or value.startswith(("retry.backoff", "retry-backoff"))
    ) == []


# ----------------------------------------------------------------------
# (i) No partition in the threaded runtime: no execution shards, no
#     lock stripes
# ----------------------------------------------------------------------
def test_steps_have_no_execution_shards():
    """Coroutine steps take no shard lock: no entry point takes
    ``n_shards``, ``repro check`` has no ``--shards`` flag, and no
    literal names a removed shard instrument."""
    from repro.cli import build_parser
    from repro.runtime.differential import run_differential
    from repro.runtime.threaded import run_threaded_transactions
    from repro.server.core import TransactionServer

    for entry in (
        WallClockScheduler,
        ThreadedKernel,
        run_threaded_transactions,
        run_differential,
        TransactionServer,
    ):
        assert "n_shards" not in inspect.signature(entry).parameters, entry.__name__
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--runtime", "threaded", "--shards", "2"])
    removed = ("shard.steps", "shard.contended", "shard.count")
    assert _src_literals(lambda value: value in removed) == []


def test_lock_table_has_no_stripes():
    """The threaded lock table is one plain table under the kernel lock:
    no entry point that builds it takes ``n_stripes`` (the server and
    ``run_threaded_transactions`` still accept it, to no effect), the
    plain table takes no id striping, and no literal names a removed
    stripe instrument."""
    from repro.runtime.differential import run_differential

    for entry in (WallClockScheduler, ThreadedKernel, run_differential):
        assert "n_stripes" not in inspect.signature(entry).parameters, entry.__name__
    parameters = inspect.signature(LockTable).parameters
    assert "id_offset" not in parameters and "id_stride" not in parameters
    assert not hasattr(ThreadedKernel(Database()).locks, "_stripes")
    removed = ("stripe.ops", "stripe.cross_ops", "stripe.count")
    assert _src_literals(lambda value: value in removed) == []


def test_lock_table_has_no_wrapper():
    """Both runtimes hand the kernel the plain table: the threaded
    kernel takes its own lock around every table call, so no wrapper
    table takes it again, and no table offers a guard."""
    assert type(ThreadedKernel(Database()).locks) is LockTable
    assert not hasattr(LockTableAPI, "guard") and not hasattr(LockTable, "guard")
    offenders = [
        str(path.relative_to(SRC_REPRO))
        for path in sorted(SRC_REPRO.rglob("*.py"))
        if "ConcurrentLockTable" in path.read_text()
    ]
    assert offenders == []


def test_kernel_lock_is_a_bare_rlock():
    """The threaded scheduler's ``coordination()`` is the C reentrant
    lock itself, so ``with`` runs no Python frame, and it counts no
    entries: no coordinator wrapper or ``shard.coordinations`` is left."""
    scheduler = WallClockScheduler()
    assert type(scheduler.coordination()) is _thread.RLock
    assert scheduler.coordination() is scheduler.coordination()
    offenders = [
        str(path.relative_to(SRC_REPRO))
        for path in sorted(SRC_REPRO.rglob("*.py"))
        if "_Coordinator" in path.read_text()
    ]
    assert offenders == []
    assert _src_literals(lambda value: value == "shard.coordinations") == []


def test_one_way_to_drive():
    """Every threaded task is driven to its end by one thread through
    ``WallClockScheduler.drive``, a batch run's threads included: no
    worker loop, runnable queue or idle-worker condition is left, and
    ``spawn`` takes no ``queued`` flag."""
    for attr in ("_worker", "_runnable", "_wakeup"):
        assert not hasattr(WallClockScheduler(), attr), attr
        assert not hasattr(WallClockScheduler, attr), attr
    assert "queued" not in inspect.signature(WallClockScheduler.spawn).parameters


def test_router_has_one_prepare_path(tmp_path, monkeypatch):
    """The 2PC coordinator sends on the router's calling thread: the
    router imports no executor, takes no fan-out knob, has one prepare
    path and no ``2pc.prepare.fanout.*`` counter, and a cross-shard
    burst starts no ``cc-2pc-fanout`` thread."""
    import repro.cluster.router as router_module
    from repro.recovery import WriteAheadLog
    from repro.server.requests import Request
    from tests.helpers import record_thread_starts
    from tests.test_cluster_twopc import CROSS, in_process_cluster

    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(ast.parse(Path(router_module.__file__).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [name for name in imported if (name or "").startswith("concurrent")]
    parameters = inspect.signature(router_module.ClusterRouter.__init__).parameters
    assert not {"max_fanout", "parallel_prepare"} & set(parameters)
    for attr in ("_prepare_parallel", "_prepare_sequential"):
        assert not hasattr(router_module.ClusterRouter, attr), attr
    started = record_thread_starts(monkeypatch)
    with in_process_cluster(tmp_path, lambda shard: WriteAheadLog()) as (router, _, __):
        for n in range(10):
            place = Request(op="place", lines=((CROSS[0], 1), (CROSS[1], 1)))
            assert router.route_request(place).ok
            assert router.route_request(Request(op="total-payment", items=CROSS)).ok
        assert router.stats()["cross_shard"] == 20
        counters = router.obs.snapshot().counters
    assert not [name for name in counters if name.startswith("2pc.prepare.fanout")]
    assert not [name for name in started if name.startswith("cc-2pc-fanout")]


def test_reap_drops_each_transaction_directly():
    """Reaping drops the transaction's own handle (the tree its history
    is read from), and a served kernel keeps no trace: no batch of
    reaped names, no recorder keeping copies of finished actions for
    reap to discard, and no trace events to discard."""
    kernel = ThreadedKernel(Database())
    for attr in ("_reap_batch", "_reaped_txns", "recorder"):
        assert not hasattr(kernel, attr), attr
    assert not hasattr(history_module, "HistoryRecorder")


def test_no_node_owns_a_completion_signal():
    """A blocked request waits on its own pending request's signal, so
    a transaction node owns none (it tied each node into a reference
    cycle with its signal, and nothing awaited it)."""
    offenders = [
        str(path.relative_to(SRC_REPRO))
        for path in sorted(SRC_REPRO.rglob("*.py"))
        if "completion_signal" in path.read_text()
    ]
    assert offenders == []
    assert "completion_signal" not in inspect.signature(TransactionNode).parameters


def _src_literals(match) -> list[str]:
    """Every string literal under ``src/repro`` that *match* accepts."""
    literals = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and match(node.value)
            ):
                literals.append(f"{path.name}:{node.lineno} {node.value}")
    return literals


# ----------------------------------------------------------------------
# (j) The WAL is the only recovery truth: nothing in src/ uses the page store
# ----------------------------------------------------------------------
PAGE_STORE_NAMES = {"DurableStorageManager", "BufferPool", "PageFile", "bufferpool", "pagefile"}


def _page_store_references(tree: ast.AST) -> list[tuple[int, str]]:
    """Every import, name, attribute or exact string whose last dotted
    part names the page store's classes or modules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.rpartition(".")[2] in PAGE_STORE_NAMES
        ]
    return found


def test_only_the_page_store_module_uses_the_page_store():
    """No recovery reads the page file, so no ``src/`` path writes one:
    shards and crash-torture children run on the in-memory
    ``StorageManager`` plus a durable WAL.  Only ``storage/durable.py``
    (home of ``DurableStorageManager``) may import or name
    ``DurableStorageManager``, ``BufferPool``, ``PageFile`` or the
    ``bufferpool`` / ``pagefile`` modules; those two modules may name
    their own classes."""
    page_store = {"storage/durable.py", "storage/bufferpool.py", "storage/pagefile.py"}
    offenders = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        where = path.relative_to(SRC_REPRO).as_posix()
        if where in page_store:
            continue
        offenders += [
            f"{where}:{line} {name}"
            for line, name in _page_store_references(ast.parse(path.read_text()))
        ]
    assert offenders == [], (
        "the page store has one remaining caller, perfbench's wire_durable "
        "stack (perfbench/stacks.py); ROADMAP item G deletes the page store "
        "with it, so no src/ path may start using it again: "
        + ", ".join(offenders)
    )
