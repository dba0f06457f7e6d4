"""The transaction manager kernel.

Executes OODBS transactions as open nested transactions (Fig. 8): every
method invocation or generic operation becomes an action node, acquires
the locks its protocol demands (blocking in the object's FCFS queue on
conflict), executes — methods by running their bodies, which invoke
further operations through the same kernel — and completes, letting the
protocol decide the fate of the subtree's locks (retain / release /
inherit).  Top-level commit releases the whole tree's locks.

The kernel also owns:

* the waits-for graph and deadlock resolution (victim abort);
* undo bookkeeping and the abort path: committed subtransactions are
  compensated by their registered inverse operations, run as ordinary
  subtransactions under the protocol; generic leaves are undone
  physically;
* history recording for the semantic-serializability checker;
* a structured trace log for the Fig. 8 conformance tests.

Everything runs on a deterministic cooperative
:class:`~repro.runtime.scheduler.Scheduler`; with a cost model the same
machinery is a discrete-event performance simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterable, Mapping, Optional, Union

from repro.errors import (
    CompensationError,
    DeadlockError,
    LockTimeout,
    RetryExhausted,
    SubtransactionRestart,
    TransactionAborted,
    UnknownOperationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.objects.atoms import AtomicObject
from repro.objects.base import DatabaseObject
from repro.objects.database import Database
from repro.objects.encapsulated import EncapsulatedObject, TypeSpec
from repro.objects.oid import Oid
from repro.objects.sets import SetObject
from repro.objects.tuples import TupleObject
from repro.obs import MetricsRegistry
from repro.obs.cases import CASE2_WAIT, CASE_COMMUTATIVE, CASE_TOPLEVEL_WAIT
from repro.protocols.base import CCProtocol, LockSpec
from repro.core.protocol import SemanticLockingProtocol
from repro.recovery.addresses import address_of, snapshot
from repro.recovery.wal import SubtxnCommitRecord, TxnStatusRecord, UpdateRecord
from repro.runtime.scheduler import Pause, Scheduler, SchedulerAPI, Task
from repro.semantics.generic import (
    GET,
    INSERT,
    PUT,
    READONLY_GENERIC_OPS,
    REMOVE,
    SCAN,
    SELECT,
    SIZE,
    TRANSACTION,
)
from repro.semantics.invocation import Invocation
from repro.txn.compensation import UndoEntry, UndoLog
from repro.txn.history import History, HistoryRecorder
from repro.txn.locks import Disposition, LockTable, LockTableAPI, PendingRequest
from repro.txn.transaction import NodeStatus, TransactionNode
from repro.txn.waits import WaitsForGraph
from repro.util.ids import IdGenerator
from repro.util.seq import SequenceCounter
from repro.util.tracelog import TraceEvent, TraceLog

TransactionProgram = Callable[["TransactionContext"], Awaitable[Any]]

_GENERIC_OPS = frozenset({GET, PUT, INSERT, REMOVE, SELECT, SCAN, SIZE})


@dataclass
class CostModel:
    """Virtual-time costs for the discrete-event performance study.

    A zero model (the default) turns the run into a pure interleaving
    simulation; nonzero costs make the scheduler's clock meaningful so
    throughput and response times can be measured.
    """

    generic_op: float = 0.0
    method_op: float = 0.0
    transaction_setup: float = 0.0

    def cost_of(self, operation: str) -> float:
        if operation in _GENERIC_OPS:
            return self.generic_op
        if operation == TRANSACTION:
            return self.transaction_setup
        return self.method_op


class KernelMetrics:
    """Kernel counters, backed by the kernel's metrics registry.

    Keeps the historical attribute API (``kernel.metrics.commits`` and
    friends, read-only) while storing every count in the shared
    :class:`~repro.obs.MetricsRegistry` under ``kernel.*`` names, so
    snapshots and the ``repro stats`` breakdown see the same numbers.
    """

    FIELDS = (
        "commits",
        "aborts",
        "deadlocks",
        "blocks",
        "compensations",
        "actions",
        "subtxn_restarts",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._counters = {
            field: registry.counter(f"kernel.{field}") for field in self.FIELDS
        }

    def inc(self, field: str, delta: int = 1) -> None:
        """Atomic increment: the only way a count changes (a
        read-then-set would lose updates under concurrent workers)."""
        self._counters[field].inc(delta)


for _field in KernelMetrics.FIELDS:
    setattr(KernelMetrics, _field, property(lambda self, f=_field: self._counters[f].value))
del _field


@dataclass
class TxnHandle:
    """The kernel-side view of one spawned top-level transaction."""

    name: str
    root: TransactionNode
    task: Optional[Task] = None
    committed: bool = False
    aborted: bool = False
    aborting: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    start_clock: float = 0.0
    end_clock: float = 0.0
    restarts: int = 0  # subtransaction restarts suffered so far

    @property
    def response_time(self) -> float:
        """Virtual time from start to commit/abort."""
        return self.end_clock - self.start_clock


class TransactionContext:
    """What a transaction program / method body sees.

    Bound to one action node; every operation invoked through it becomes
    a child action of that node.  Method bodies receive a context bound
    to the method's own subtransaction, so invocation hierarchies nest
    naturally.
    """

    def __init__(self, kernel: "TransactionManager", node: TransactionNode) -> None:
        self._kernel = kernel
        self._node = node

    @property
    def db(self) -> Database:
        return self._kernel.db

    @property
    def node(self) -> TransactionNode:
        return self._node

    @property
    def txn_name(self) -> str:
        return self._node.top_level_name

    # ------------------------------------------------------------------
    # Invocations
    # ------------------------------------------------------------------
    async def call(self, obj: Union[DatabaseObject, Oid], operation: str, *args: Any) -> Any:
        """Invoke a method or generic operation on *obj* (synchronized)."""
        target = self._kernel.db.resolve(obj) if isinstance(obj, Oid) else obj
        return await self._kernel.invoke(self._node, target, operation, args)

    async def get(self, atom: AtomicObject) -> Any:
        """Synchronized ``Get`` on an atomic object."""
        return await self.call(atom, GET)

    async def put(self, atom: AtomicObject, value: Any) -> None:
        """Synchronized ``Put`` on an atomic object."""
        await self.call(atom, PUT, value)

    async def insert(self, set_obj: SetObject, key: Any, member: DatabaseObject) -> None:
        """Synchronized keyed ``Insert`` into a set object."""
        await self._kernel.invoke(
            self._node, set_obj, INSERT, (key,), exec_args=(key, member)
        )

    async def remove(self, set_obj: SetObject, key: Any) -> DatabaseObject:
        """Synchronized keyed ``Remove``; returns the removed member."""
        return await self.call(set_obj, REMOVE, key)

    async def select(self, set_obj: SetObject, key: Any) -> Optional[DatabaseObject]:
        """Synchronized keyed lookup (the paper's generic ``Select``)."""
        return await self.call(set_obj, SELECT, key)

    async def scan(self, set_obj: SetObject) -> list[tuple[Any, DatabaseObject]]:
        """Synchronized full scan of a set object."""
        return await self.call(set_obj, SCAN)

    async def size(self, set_obj: SetObject) -> int:
        """Synchronized cardinality of a set object."""
        return await self.call(set_obj, SIZE)

    async def pause(self) -> None:
        """Voluntary scheduling point (no cost)."""
        await Pause(0.0)

    # ------------------------------------------------------------------
    # Object creation (with undo)
    # ------------------------------------------------------------------
    def create_atom(self, name: str, value: Any = None) -> AtomicObject:
        """Create a fresh atom; destroyed again if the transaction aborts."""
        return self._kernel.create_object(self._node, "atom", name, value=value)

    def create_tuple(self, name: str) -> TupleObject:
        return self._kernel.create_object(self._node, "tuple", name)

    def create_set(self, name: str) -> SetObject:
        return self._kernel.create_object(self._node, "set", name)

    def create_encapsulated(self, spec: TypeSpec, name: str) -> EncapsulatedObject:
        return self._kernel.create_object(self._node, "encapsulated", name, spec=spec)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def abort(self, reason: str = "application rollback") -> None:
        """Abort the enclosing top-level transaction."""
        raise TransactionAborted(self.txn_name, reason)


class TransactionManager:
    """The kernel; see module docstring."""

    #: Restart budget per transaction (deadlock and timeout victims) and
    #: per action (injected restarts); once exceeded the kernel escalates
    #: to a top-level abort (:class:`RetryExhausted`).  FCFS queueing
    #: makes repeated deadlocks with the *same* partner impossible, so
    #: the cap only needs to exceed the plausible number of distinct
    #: hot-spot partners.
    MAX_RESTARTS = 25

    def __init__(
        self,
        db: Database,
        protocol: Optional[CCProtocol] = None,
        scheduler: Optional[SchedulerAPI] = None,
        cost_model: Optional[CostModel] = None,
        wal=None,
        obs: Optional[MetricsRegistry] = None,
        lock_table_cls: Optional[Callable[..., LockTableAPI]] = None,
        faults=None,
        lock_timeout: Optional[float] = None,
        lock_timeout_fn: Optional[Callable[[TransactionNode], Optional[float]]] = None,
    ) -> None:
        if lock_timeout is not None and lock_timeout <= 0:
            raise ValueError("lock_timeout must be a positive budget")
        self.db = db
        # One registry per kernel: every component below records into it,
        # and ``self.obs.snapshot()`` captures the whole run.
        self.obs = obs if obs is not None else MetricsRegistry()
        self.protocol = protocol if protocol is not None else SemanticLockingProtocol()
        self.protocol.bind(db)
        self.protocol.bind_metrics(self.obs)
        # The two runtime seams (SchedulerAPI, LockTableAPI): the kernel
        # has one code path over them and probes for nothing else.
        self.scheduler: SchedulerAPI = scheduler if scheduler is not None else Scheduler()
        self.scheduler.on_stall = self._on_stall
        self.scheduler.bind_metrics(self.obs)
        # lock_table_cls: the threaded runtime passes its striped table;
        # the differential suite swaps in the scan-based reference
        # implementation to prove the indexed table behaves identically.
        self.locks: LockTableAPI = (lock_table_cls or LockTable)(
            metrics=self.obs, clock=lambda: self.scheduler.clock
        )
        self.locks.on_waits_changed = self._on_waits_changed
        self.protocol.bind_lock_table(self.locks)
        # Baseline protocols do not classify Fig. 9 outcomes themselves;
        # the kernel bins their conflict-test results coarsely so the
        # breakdown table is populated for every protocol.
        self._coarse_outcomes = None
        if not self.protocol.reports_conflict_cases:
            self._coarse_outcomes = (
                self.obs.counter(CASE_COMMUTATIVE),
                self.obs.counter(CASE2_WAIT),
                self.obs.counter(CASE_TOPLEVEL_WAIT),
            )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # A blocked wait is resolved one way: waits-for cycle detection
        # restarts or aborts a victim.  A lock-wait budget, when one
        # applies, also arms a timer; when it fires the waiter is
        # resolved through the same victim/restart machinery (restart
        # the blocked subtransaction if possible, else abort with
        # LockTimeout).  None: no budget.
        self.lock_timeout = lock_timeout
        # Per-transaction override of the uniform timeout budget.  The
        # transaction server passes one for deadline propagation: a
        # request's remaining deadline bounds its lock waits, so a
        # nearly-expired request is sacrificed quickly instead of
        # waiting out the full uniform budget.  Returning None falls
        # back to ``lock_timeout``.
        self.lock_timeout_fn = lock_timeout_fn
        # Optional write-ahead log (repro.recovery.wal.WriteAheadLog):
        # when set, physical updates, non-read-only subtransaction
        # commits, and transaction outcomes are logged for multi-level
        # crash recovery.  File-backed logs meter themselves (group
        # commit syncs, bytes) into the kernel's registry.
        self.wal = wal
        if wal is not None:
            wal.bind_metrics(self.obs)
        self.waits = WaitsForGraph(self.obs)
        self.recorder = HistoryRecorder(db)
        self.undo = UndoLog()
        self.trace = TraceLog()
        self.seq = SequenceCounter()
        self.metrics = KernelMetrics(self.obs)
        self.handles: dict[str, TxnHandle] = {}
        self._ids = IdGenerator()
        # Optional execution probe: called as probe(node, phase) with
        # phase "pre" (after the scheduling point, before lock
        # acquisition) and "post" (after the action completed).  May
        # return an awaitable to suspend the transaction at that point —
        # tests and the figure benches use this to pin down the paper's
        # exact interleavings without fragile step counting.
        self.probe: Optional[
            Callable[[TransactionNode, str], Optional[Awaitable[Any]]]
        ] = None
        # Timeout / retry instrumentation (registered unconditionally so
        # snapshots have stable shape; they stay zero when unused).
        self._timeout_fired = self.obs.counter("timeout.fired")
        self._timeout_restarts = self.obs.counter("timeout.restarts")
        self._timeout_aborts = self.obs.counter("timeout.aborts")
        self._retry_exhausted = self.obs.counter("retry.exhausted")
        # Optional fault-injection plane (repro.faults.FaultInjector or a
        # FaultPlan, which is wrapped).  Every kernel hook is guarded by
        # ``if self.faults is not None`` so runs without a plan take the
        # exact historical paths.
        self.faults = self._bind_faults(faults)

    def _bind_faults(self, faults):
        if faults is None:
            return None
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        faults.bind_metrics(self.obs)
        if faults.wants_step_hook:
            self.scheduler.on_step = faults.on_step
        return faults

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(self, name: str, program: TransactionProgram) -> TxnHandle:
        """Register a top-level transaction to run under this kernel."""
        root = TransactionNode(
            node_id=name,
            parent=None,
            target=self.db.oid,
            invocation=Invocation(TRANSACTION, (name,)),
            completion_signal=self.scheduler.create_signal(f"done-{name}"),
        )
        handle = TxnHandle(name=name, root=root)
        self.handles[name] = handle
        handle.task = self.scheduler.spawn(name, self._run_top(handle, program))
        return handle

    def run(self) -> None:
        """Run every spawned transaction to completion."""
        self.scheduler.run()

    def history(self) -> History:
        return self.recorder.history()

    def interrupt_transaction(self, name: str, exc: TransactionAborted) -> bool:
        """Abort the named in-flight transaction with *exc* (deadline
        expiry, server drain); it ends through the normal
        compensation/abort path.  False — and nothing happens — when the
        name is unknown, finished, or already aborting."""
        with self.scheduler.coordination():
            handle = self.handles.get(name)
            if handle is None or handle.task is None or handle.task.finished:
                return False
            if handle.committed or handle.aborted or handle.aborting:
                return False
            self._interrupt(handle, exc)
            return True

    # ------------------------------------------------------------------
    # Top-level execution
    # ------------------------------------------------------------------
    async def _run_top(self, handle: TxnHandle, program: TransactionProgram) -> Any:
        root = handle.root
        handle.start_clock = self.scheduler.clock
        root.begin_seq = self.seq.tick()
        self._trace(root, "begin")
        self._wal_txn_status(handle.name, "begin")
        ctx = TransactionContext(self, root)
        try:
            cost = self.cost_model.cost_of(TRANSACTION)
            if cost:
                await Pause(cost)
            await self._acquire_locks_for(root)
            handle.result = await program(ctx)
        except TransactionAborted as aborted:
            handle.aborting = True
            await self._abort_transaction(handle, aborted)
            return None
        except SubtransactionRestart as restart:
            # A restart signal must be handled at its subtransaction's
            # frame; reaching the root means the restart scope was not on
            # the current call stack (an injected root-scope restart, or
            # a kernel bug).  Escalate through the normal abort path,
            # keeping the victim's restart accounting and recording the
            # originating node in the trace.
            handle.aborting = True
            origin = getattr(restart.node, "node_id", str(restart.node))
            if not restart.counted:
                handle.restarts += 1
            self._trace(root, "restart-unhandled", origin=origin)
            await self._abort_transaction(
                handle,
                TransactionAborted(
                    handle.name, f"unhandled subtransaction restart (origin {origin})"
                ),
            )
            return None
        except Exception as error:
            # Application errors (failed inserts, bugs in method bodies)
            # abort the transaction; the error stays inspectable on the
            # handle rather than killing the whole scheduler run.
            handle.aborting = True
            await self._abort_transaction(
                handle, TransactionAborted(handle.name, f"application error: {error!r}")
            )
            handle.error = error
            return None
        # Strict commit: the commit record is appended (and, on a file-backed
        # log, forced) before Fig. 8 releases the locks, so no reader can
        # observe — and acknowledge — a write whose commit may not survive.
        self._wal_txn_status(handle.name, "commit")
        self._complete_node(root)
        handle.committed = True
        handle.end_clock = self.scheduler.clock
        self.metrics.inc("commits")
        return handle.result

    # ------------------------------------------------------------------
    # Action execution (Fig. 8's exec-transaction)
    # ------------------------------------------------------------------
    async def invoke(
        self,
        parent: TransactionNode,
        target: DatabaseObject,
        operation: str,
        args: tuple[Any, ...],
        exec_args: Optional[tuple[Any, ...]] = None,
        is_compensation: bool = False,
        compensates: Optional[str] = None,
    ) -> Any:
        """Create, lock, execute, and complete one child action."""
        invocation = Invocation(operation, args)
        node = TransactionNode(
            node_id=self._ids.next_id("a"),
            parent=parent,
            target=target.oid,
            invocation=invocation,
            completion_signal=self.scheduler.create_signal(),
        )
        node.readonly = self._is_readonly(target, operation)
        node.is_compensation = is_compensation or parent.is_compensation
        node.compensates = compensates
        self.recorder.snapshot_target(target.oid)
        self.metrics.inc("actions")

        cost = self.cost_model.cost_of(operation)
        await Pause(cost)  # scheduling point (+ virtual CPU time)
        await self._run_probe(node, "pre")

        while True:
            try:
                if self.faults is not None:
                    extra = self.faults.fire("pre-acquire", node)
                    if extra:
                        await Pause(extra)
                await self._acquire_locks_for(node)
                node.begin_seq = self.seq.tick()
                result = await self._execute(node, target, operation, exec_args or args)
                break
            except SubtransactionRestart as restart:
                if restart.node is not node:
                    raise  # an enclosing subtransaction is the restart scope
                handle = self.handles[node.top_level_name]
                if not restart.counted:
                    handle.restarts += 1
                # Victim-machinery restarts pre-check the budget in
                # _victim_resolution, so this escalation never fires for
                # them; injected restarts (which bypass that check) are
                # capped here.  Compensating transactions must run to
                # completion — never capped.
                if not handle.aborting and handle.restarts > self.MAX_RESTARTS:
                    self._retry_exhausted.inc()
                    raise RetryExhausted(handle.name, node.node_id, handle.restarts)
                await self._rollback_subtransaction(node)
                await Pause(cost)  # let the conflicting transaction run

        node.result = result
        self._attach_inverse(node, target, operation, args, result)
        self._complete_node(node)
        await self._run_probe(node, "post")
        return result

    async def _rollback_subtransaction(self, node: TransactionNode) -> None:
        """Undo a not-yet-committed subtransaction so it can retry.

        Committed children are compensated, leaves are undone
        physically, the subtree's locks are released, and its records
        are dropped from the history (a restarted subtransaction's
        do/undo pair nets out to nothing).
        """
        self._trace(node, "restart")
        self.metrics.inc("subtxn_restarts")
        root = node.root()
        prior_root_children = len(root.children)
        await self._undo_children(node, in_restart=True)
        # Coordinated from here down: discarding records, releasing the
        # subtree's locks, and re-evaluating the queues is one logical
        # step against concurrent commits/aborts on other workers.
        with self.scheduler.coordination():
            discarded = {n.node_id for n in node.descendants(include_self=True)}
            # Compensations spawned by the rollback attach to the root; their
            # records net out against the discarded do-records, so drop them
            # from the history as well (their *effects* stand, of course).
            compensations = root.children[prior_root_children:]
            for comp in compensations:
                discarded.update(n.node_id for n in comp.descendants(include_self=True))
            for node_id in discarded:
                self.undo.discard(node_id)
            self.recorder.discard_nodes(node.top_level_name, discarded - {node.node_id})
            released = self.locks.release_subtree(node)
            node.children.clear()
            self._trace(node, "restart-released", count=len(released))
            self._after_lock_change()

    async def _run_probe(self, node: TransactionNode, phase: str) -> None:
        if self.probe is None:
            return
        awaitable = self.probe(node, phase)
        if awaitable is not None:
            await awaitable

    # ------------------------------------------------------------------
    # Write-ahead logging (multi-level recovery)
    # ------------------------------------------------------------------
    def _wal_append(self, record) -> None:
        """Append *record* to the log, then visit the wal-append site.

        A crash injected here lands just *after* the record became
        durable — sweeping the fault's visit count over the reference
        run's log length crashes between every adjacent pair of records.
        """
        self.wal.append(record)
        if self.faults is not None:
            kind = type(record).__name__
            if kind.endswith("Record"):
                kind = kind[: -len("Record")]
            self.faults.fire("wal-append", txn=record.txn, operation=kind)

    def _wal_attached_address(self, obj: DatabaseObject):
        """The object's logical address, or None if not under the root.

        Changes to detached objects (e.g. an order under construction
        before its Insert) need no log records: the Insert's member
        snapshot captures them.
        """
        node = obj
        while node.parent is not None:
            node = node.parent
        if node is not self.db:
            return None
        return address_of(obj)

    def _wal_update(
        self, node: TransactionNode, operation: str, target: DatabaseObject, **fields: Any
    ) -> None:
        if self.wal is None:
            return
        address = self._wal_attached_address(target)
        if address is None:
            return
        node_path = tuple(
            n.node_id for n in reversed(list(node.ancestors(include_self=True)))
        )
        self._wal_append(
            UpdateRecord(
                lsn=self.wal.next_lsn(),
                txn=node.top_level_name,
                node_path=node_path,
                operation=operation,
                target=address,
                **fields,
            )
        )

    def _wal_txn_status(self, txn: str, status: str) -> None:
        if self.wal is None:
            return
        self._wal_append(TxnStatusRecord(lsn=self.wal.next_lsn(), txn=txn, status=status))

    def _wal_subtxn_commit(self, node: TransactionNode) -> None:
        if self.wal is None or node.is_top_level or node.readonly:
            return
        if node.invocation.operation in _GENERIC_OPS:
            return
        target = self.db.resolve(node.target)
        if not isinstance(target, EncapsulatedObject):
            return
        address = self._wal_attached_address(target)
        if address is None:
            return
        inverse = self.undo.inverse_for(node.node_id)
        self._wal_append(
            SubtxnCommitRecord(
                lsn=self.wal.next_lsn(),
                txn=node.top_level_name,
                node_id=node.node_id,
                subtree_ids=tuple(
                    n.node_id for n in node.descendants(include_self=True)
                ),
                target=address,
                operation=node.invocation.operation,
                args=node.invocation.args,
                inverse_operation=inverse.inverse_operation if inverse else None,
                inverse_args=tuple(inverse.inverse_args) if inverse else (),
                compensates=node.compensates,
            )
        )

    def _is_readonly(self, target: DatabaseObject, operation: str) -> bool:
        if operation in READONLY_GENERIC_OPS:
            return True
        if operation in _GENERIC_OPS:
            return False
        if isinstance(target, EncapsulatedObject):
            return target.spec.method_spec(operation).readonly
        return False

    async def _execute(
        self,
        node: TransactionNode,
        target: DatabaseObject,
        operation: str,
        args: tuple[Any, ...],
    ) -> Any:
        if operation in _GENERIC_OPS:
            # Two granted-and-commuting operations on the same object
            # may step on different workers at the same wall-clock
            # instant; the target's guard serialises the physical
            # read-modify-write.  Generic leaves are synchronous, so the
            # guard never spans an await (method bodies mutate state
            # only through nested generic leaves, each guarded here).
            with self.locks.guard(target.oid):
                return self._execute_generic(node, target, operation, args)
        if isinstance(target, EncapsulatedObject):
            spec = target.spec.method_spec(operation)
            ctx = TransactionContext(self, node)
            return await spec.body(ctx, target, *args)
        raise UnknownOperationError(
            f"object {target.oid} does not understand operation {operation!r}"
        )

    def _execute_generic(
        self,
        node: TransactionNode,
        target: DatabaseObject,
        operation: str,
        args: tuple[Any, ...],
    ) -> Any:
        # Physical undo is recorded even inside compensations: a
        # compensation is never *logically* compensated, but it may be
        # rolled back and retried by subtransaction restart.
        record_undo = True
        if operation == GET:
            return target.raw_get()
        if operation == PUT:
            old_value = target.raw_get()
            target.raw_put(args[0])
            self._wal_update(node, "Put", target, before=old_value, after=args[0])
            if record_undo:
                self.undo.attach(
                    node.node_id,
                    UndoEntry.make_physical(
                        f"Put {target.oid} back to {old_value!r}",
                        lambda t=target, v=old_value: t.raw_put(v),
                    ),
                )
            return None
        if operation == INSERT:
            key, member = args
            target.raw_insert(key, member)
            if self.wal is not None:
                self._wal_update(
                    node, "Insert", target, key=key, member_snapshot=snapshot(member)
                )
            if record_undo:
                self.undo.attach(
                    node.node_id,
                    UndoEntry.make_physical(
                        f"remove key {key!r} from {target.oid}",
                        lambda t=target, k=key: t.raw_remove(k),
                    ),
                )
            return None
        if operation == REMOVE:
            key = args[0]
            member = target.raw_remove(key)
            if self.wal is not None:
                self._wal_update(
                    node, "Remove", target, key=key, member_snapshot=snapshot(member)
                )
            if record_undo:
                self.undo.attach(
                    node.node_id,
                    UndoEntry.make_physical(
                        f"re-insert key {key!r} into {target.oid}",
                        lambda t=target, k=key, m=member: t.raw_insert(k, m),
                    ),
                )
            return member
        if operation == SELECT:
            return target.raw_select(args[0])
        if operation == SCAN:
            return target.raw_scan()
        if operation == SIZE:
            return target.raw_size()
        raise UnknownOperationError(f"unknown generic operation {operation!r}")

    def _attach_inverse(
        self,
        node: TransactionNode,
        target: DatabaseObject,
        operation: str,
        args: tuple[Any, ...],
        result: Any,
    ) -> None:
        if node.is_compensation or operation in _GENERIC_OPS:
            return
        if not isinstance(target, EncapsulatedObject):
            return
        spec = target.spec.method_spec(operation)
        if spec.readonly or spec.inverse is None:
            return
        inverse = spec.inverse(result, args)
        if inverse is None:
            return
        inverse_op, inverse_args = inverse
        self.undo.attach(
            node.node_id,
            UndoEntry.make_inverse(
                f"compensate {operation} with {inverse_op}{inverse_args!r}",
                target.oid,
                inverse_op,
                tuple(inverse_args),
            ),
        )

    # ------------------------------------------------------------------
    # Object creation with undo
    # ------------------------------------------------------------------
    def create_object(
        self,
        node: TransactionNode,
        kind: str,
        name: str,
        value: Any = None,
        spec: Optional[TypeSpec] = None,
    ) -> DatabaseObject:
        if kind == "atom":
            obj: DatabaseObject = self.db.new_atom(name, value)
        elif kind == "tuple":
            obj = self.db.new_tuple(name)
        elif kind == "set":
            obj = self.db.new_set(name)
        elif kind == "encapsulated":
            assert spec is not None
            obj = self.db.new_encapsulated(spec, name)
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown object kind {kind!r}")
        if not node.is_compensation:
            self.undo.attach(
                node.node_id,
                UndoEntry.make_physical(
                    f"destroy created object {obj.oid}",
                    lambda o=obj, db=self.db: db.destroy(o),
                ),
            )
        return obj

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    async def _acquire_locks_for(self, node: TransactionNode) -> None:
        for lock_spec in self.protocol.lock_specs(node):
            await self._acquire(node, lock_spec)

    async def _acquire(self, node: TransactionNode, spec: LockSpec) -> None:
        self._trace(node, "request", target=str(spec.target), mode=str(spec.invocation))
        # Test and grant are one step of the table: between them no
        # competing request can be granted a conflicting lock.
        blockers = self.locks.try_acquire(node, spec.target, spec.invocation, self._tester)
        if not blockers:
            self._trace(node, "grant", target=str(spec.target), mode=str(spec.invocation))
            return

        signal = self.scheduler.create_signal(f"grant-{node.node_id}")
        # Queued with its blockers registered (reverse index, waits-for
        # hook) before any holder can complete unseen — or, when the
        # blockers finished since the test above, granted after all.
        pending, blockers = self.locks.enqueue_if_blocked(
            node, spec.target, spec.invocation, signal, blockers, self._tester
        )
        if pending is None:
            self._trace(node, "grant", target=str(spec.target), mode=str(spec.invocation))
            return
        self.metrics.inc("blocks")
        self._trace(
            node,
            "block",
            target=str(spec.target),
            mode=str(spec.invocation),
            waits_for=sorted(b.node_id for b in blockers),
        )
        timer = None
        timeout = self._lock_wait_timeout(node)
        if timeout is not None:
            timer = self.scheduler.call_later(
                timeout, lambda: self._on_lock_timeout(pending, timeout)
            )
        try:
            with self.scheduler.coordination():
                self._resolve_deadlocks_locked(node)
            await signal
        except BaseException:
            self.locks.cancel(pending)
            raise
        finally:
            if timer is not None:
                timer.cancel()
        self._trace(node, "wake", target=str(spec.target), mode=str(spec.invocation))

    def _lock_wait_timeout(self, node: TransactionNode) -> Optional[float]:
        """The timeout budget for a lock wait that is about to block.

        An injected lock-wait fault takes precedence, then the
        per-transaction override, then the uniform budget.  None
        disarms the timer entirely.
        """
        if self.faults is not None:
            injected = self.faults.lock_wait_timeout(node)
            if injected is not None:
                return injected
        if self.lock_timeout_fn is not None:
            override = self.lock_timeout_fn(node)
            if override is not None:
                return override
        return self.lock_timeout

    def _on_lock_timeout(self, pending: PendingRequest, waited: float) -> None:
        """Timer callback: a blocked request outlived its wait budget.

        Resolved exactly like a single-member deadlock cycle: restart
        the waiter's blocked subtransaction when possible, otherwise
        abort the waiter with :class:`LockTimeout`.  Aborting
        transactions are never timed out — their compensations must run
        to completion (the stall-time detection pass remains as their
        backstop).
        """
        with self.scheduler.coordination():
            if pending.signal.done:
                return  # granted between arming and firing
            node = pending.node
            victim = self.handles.get(node.top_level_name)
            if victim is None or victim.task is None or victim.task.finished:
                return
            self._timeout_fired.inc()
            resolution: Union[SubtransactionRestart, TransactionAborted] = (
                self._victim_resolution(victim, [victim.name])
            )
            if isinstance(resolution, DeadlockError):
                if victim.aborting:
                    return  # keep waiting; compensation may not be sacrificed
                resolution = LockTimeout(victim.name, str(pending.target), waited)
                self._timeout_aborts.inc()
            else:
                self._timeout_restarts.inc()
            self._trace(
                node,
                "timeout",
                target=str(pending.target),
                waited=waited,
                resolution="restart"
                if isinstance(resolution, SubtransactionRestart)
                else "abort",
            )
            self._interrupt(victim, resolution)

    def _interrupt(self, victim: TxnHandle, exc: BaseException) -> None:
        """The one way a transaction is interrupted from outside its own
        coroutine (caller holds coordination): an abort marks the victim
        aborting, the exception is delivered to its task, and every
        queued request of its tree is cancelled — which clears its
        waits-for edges through the lock-table hook."""
        if isinstance(exc, TransactionAborted):
            victim.aborting = True
        assert victim.task is not None
        self.scheduler.interrupt(victim.task, exc)
        for queued in self.locks.pending_of_tree(victim.root):
            self.locks.cancel(queued)

    def _tester(
        self,
        holder: TransactionNode,
        holder_invocation: Invocation,
        requester: TransactionNode,
        requester_invocation: Invocation,
        target: Oid,
    ) -> Optional[TransactionNode]:
        result = self.protocol.test_conflict(
            holder, holder_invocation, requester, requester_invocation, target
        )
        if self._coarse_outcomes is not None:
            commutative, subtxn_wait, toplevel_wait = self._coarse_outcomes
            if result is None:
                commutative.inc()
            elif result.is_top_level:
                toplevel_wait.inc()
            else:
                subtxn_wait.inc()
        return result

    def _after_lock_change(self) -> None:
        with self.scheduler.coordination():
            self._after_reevaluation(self.locks.reevaluate(self._tester))

    def _after_reevaluation(self, granted: list[PendingRequest]) -> None:
        """Caller holds coordination and has just re-evaluated the queues."""
        for pending in granted:
            self._trace(pending.node, "regrant", target=str(pending.target))
        self._resolve_deadlocks_locked()

    def _on_waits_changed(self, pending: PendingRequest) -> None:
        """Lock-table hook: mirror a request's blocker set into the graph.

        Execution within a transaction is sequential, so each top-level
        name has at most one blocked request at a time — a pending
        request's blocker set maps one-to-one onto the waiter's outgoing
        edges, and the graph can be maintained edge-by-edge instead of
        being rebuilt from every queue on each block/wake.
        """
        waiter = pending.node.top_level_name
        holders = {b.top_level_name for b in pending.blockers}
        holders.discard(waiter)
        if holders:
            self.waits.set_waits(waiter, holders)
        else:
            self.waits.clear_waits(waiter)

    # ------------------------------------------------------------------
    # Deadlock handling
    # ------------------------------------------------------------------
    def _resolve_deadlocks_locked(self, requester: Optional[TransactionNode] = None) -> None:
        """Detect cycles and abort victims until the graph is acyclic
        (caller holds coordination).

        The victim is the *youngest* transaction in the cycle (latest
        ``begin_seq``) that is not already aborting — a deterministic
        choice that never starves old transactions.  If the requester
        itself is chosen, the deadlock error is raised in its coroutine
        directly; otherwise the victim's task is interrupted.
        """
        while True:
            cycle = None
            if requester is not None:
                cycle = self.waits.find_cycle_through(requester.top_level_name)
            if cycle is None:
                cycle = self.waits.find_any_cycle()
            if cycle is None:
                return
            self.metrics.inc("deadlocks")
            victim, error = self._pick_victim_and_resolution(cycle)
            victim_name = victim.name
            self._trace(
                victim.root,
                "deadlock",
                cycle=cycle,
                victim=victim_name,
                resolution="restart"
                if isinstance(error, SubtransactionRestart)
                else "abort",
            )
            # The victim's queued request is cancelled right away (here,
            # or in the requester's except handler), which clears its
            # outgoing edges through the lock-table hook, so the cycle
            # check on the next iteration sees the cycle broken.  Edges
            # *to* the victim stay until its locks are actually
            # released — they are still truthful waits.
            if requester is not None and victim_name == requester.top_level_name:
                if isinstance(error, TransactionAborted):
                    victim.aborting = True
                raise error
            self._interrupt(victim, error)

    def _pick_victim_and_resolution(
        self, cycle: list[str]
    ) -> tuple[TxnHandle, Union[SubtransactionRestart, DeadlockError]]:
        """Choose whom to sacrifice and how.

        Preference order: youngest non-aborting transaction (restart if
        possible, else abort); then aborting transactions, which can
        only be *restarted* (their compensations must complete) — if a
        cycle consists solely of aborting transactions none of which has
        a restartable scope, compensation cannot proceed and we fail
        loudly.
        """
        def youth(name: str) -> tuple[int, str]:
            begin = self.handles[name].root.begin_seq or 0
            return (begin, name)

        non_aborting = sorted(
            (n for n in cycle if not self.handles[n].aborting), key=youth, reverse=True
        )
        aborting = sorted(
            (n for n in cycle if self.handles[n].aborting), key=youth, reverse=True
        )
        for name in non_aborting + aborting:
            handle = self.handles[name]
            resolution = self._victim_resolution(handle, cycle)
            if handle.aborting and isinstance(resolution, DeadlockError):
                continue  # cannot doubly abort; try the next candidate
            return handle, resolution
        raise CompensationError(
            f"deadlock cycle {cycle} consists only of aborting transactions "
            "with no restartable subtransaction"
        )

    def _victim_resolution(
        self, victim: TxnHandle, cycle: list[str]
    ) -> Union[SubtransactionRestart, DeadlockError]:
        """Restart the victim's blocked subtransaction if possible.

        The standard multilevel-transaction remedy: when the victim's
        blocked request sits inside an active non-top-level
        subtransaction, rolling back and retrying just that
        subtransaction releases its subtree's locks and breaks the
        cycle without aborting the whole transaction.  Falls back to a
        full abort when the blocked action is a direct child of the
        transaction root or the victim has restarted too often
        (livelock guard).
        """
        tree_pending = self.locks.pending_of_tree(victim.root)
        blocked_node = tree_pending[0].node if tree_pending else None
        scope = blocked_node.parent if blocked_node is not None else None
        # Compensating transactions must run to completion, so their
        # restart budget is not capped.
        within_budget = victim.aborting or victim.restarts < self.MAX_RESTARTS
        can_restart = (
            scope is not None
            and not scope.is_top_level
            and scope.active
            and within_budget
        )
        if can_restart:
            victim.restarts += 1
            assert scope is not None
            restart = SubtransactionRestart(scope)
            restart.counted = True  # charged to the budget just above
            return restart
        return DeadlockError(victim.name, tuple(cycle))

    def _on_stall(self, blocked_tasks: list[Task]) -> bool:
        """Scheduler stall hook: last-resort deadlock resolution."""
        with self.scheduler.coordination():
            before = self.metrics.deadlocks
            self._resolve_deadlocks_locked()
            return self.metrics.deadlocks > before

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete_node(self, node: TransactionNode) -> None:
        with self.scheduler.coordination():
            node.mark_committed(self.seq.tick())
            self.recorder.on_node_end(node)
            self._trace(node, "commit")
            self._wal_subtxn_commit(node)
            if self.faults is not None and not node.is_top_level:
                # The recovery-critical window: the subtransaction's commit
                # record is durable, its locks not yet converted/released.
                self.faults.fire("post-subcommit", node)
            if node.is_top_level:
                # Fig. 8: "if t.parent = nil then release all locks".  Its
                # edges go first: the re-evaluation inside the call records
                # afresh every wait that outlives this commit.
                self.waits.remove_transaction(node.top_level_name)
                disposition = Disposition.RELEASE_TREE
            else:
                disposition = self.protocol.completion
            moved, granted = self.locks.complete_node(node, disposition, self._tester)
            if node.is_top_level:
                self._trace(node, "release", count=len(moved))
            self._after_reevaluation(granted)

    # ------------------------------------------------------------------
    # Abort and compensation
    # ------------------------------------------------------------------
    async def _abort_transaction(self, handle: TxnHandle, reason: TransactionAborted) -> None:
        root = handle.root
        self._trace(root, "abort", reason=reason.reason)
        if isinstance(reason, DeadlockError):
            pass  # already counted at detection time
        try:
            await self._undo_children(root)
            # The root's own physical entries (objects created directly
            # from the top-level context) are undone last.
            for entry in reversed(self.undo.physical_for(root.node_id)):
                assert entry.physical is not None
                entry.physical()
                self._trace(root, "undo", what=entry.description)
        except TransactionAborted as nested:  # pragma: no cover - defensive
            raise CompensationError(
                f"compensation of {handle.name} was itself aborted: {nested}"
            ) from nested
        # The synchronous completion of the abort is a coordinated
        # phase: lock release, waits-graph removal, and re-evaluation
        # must not interleave with commits or deadlock resolution on
        # other workers.  (The compensations above ran as ordinary
        # subtransactions and cannot be held under the coordinator —
        # they await locks themselves.)
        with self.scheduler.coordination():
            root.mark_aborted(self.seq.tick())
            self.recorder.on_node_end(root)
            released = self.locks.release_tree(root)
            self.waits.remove_transaction(handle.name)
            self._trace(root, "release", count=len(released))
            handle.aborted = True
            handle.error = reason
            handle.end_clock = self.scheduler.clock
            self.metrics.inc("aborts")
            self._wal_txn_status(handle.name, "abort")
            self._after_lock_change()

    async def _undo_children(self, node: TransactionNode, in_restart: bool = False) -> None:
        # Compensations spawned below append to node.children; iterate a
        # snapshot so they are not revisited.
        for child in reversed(list(node.children)):
            await self._undo_node(child, in_restart=in_restart)

    async def _undo_node(self, node: TransactionNode, in_restart: bool = False) -> None:
        if node.is_compensation and not in_restart:
            return  # compensations stand (abort path)
        if node.status is NodeStatus.ABORTED:
            return
        inverse = self.undo.inverse_for(node.node_id)
        if node.completed and inverse is not None:
            target = self.db.resolve(inverse.inverse_target)
            if self.faults is not None:
                extra = self.faults.fire("pre-compensate", node)
                if extra:
                    await Pause(extra)
            self._trace(node, "compensate", with_=inverse.description)
            await self.invoke(
                node.root(),
                target,
                inverse.inverse_operation or "",
                tuple(inverse.inverse_args),
                is_compensation=True,
                compensates=node.node_id,
            )
            self.metrics.inc("compensations")
            return
        # Structural / physical undo: children first (reverse order),
        # then this node's own physical entries, last-in-first-out.
        # For a *committed* update method without a registered inverse
        # this physically restores state — unsound if a concurrent
        # transaction already performed a commuting update on the same
        # objects (the paper's rationale for compensation).  Types with
        # commutative update methods must declare inverses; the trace
        # flags the fallback so such omissions are visible.
        if node.completed and not node.readonly and node.children:
            self._trace(node, "structural-undo-fallback")
        await self._undo_children(node)
        for entry in reversed(self.undo.physical_for(node.node_id)):
            assert entry.physical is not None
            entry.physical()
            self._trace(node, "undo", what=entry.description)
        if node.active:
            node.mark_aborted(self.seq.tick())
            self.recorder.on_node_end(node)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace(self, node: TransactionNode, kind: str, **detail: Any) -> None:
        self.trace.emit(
            TraceEvent(
                seq=self.seq.value,
                kind=kind,
                node=node.node_id,
                txn=node.top_level_name,
                detail=detail,
            )
        )


def run_transactions(
    db: Database,
    programs: Mapping[str, TransactionProgram],
    protocol: Optional[CCProtocol] = None,
    policy: str = "fifo",
    seed: Optional[int] = None,
    script: Optional[Iterable[str]] = None,
    cost_model: Optional[CostModel] = None,
    faults=None,
    lock_timeout: Optional[float] = None,
) -> TransactionManager:
    """Convenience: run a set of named transaction programs to completion.

    Returns the kernel, whose ``handles`` carry per-transaction outcomes
    and whose ``history()`` / ``metrics`` / ``trace`` expose the run.
    """
    scheduler = Scheduler(policy=policy, seed=seed, script=script)
    kernel = TransactionManager(
        db,
        protocol=protocol,
        scheduler=scheduler,
        cost_model=cost_model,
        faults=faults,
        lock_timeout=lock_timeout,
    )
    for name, program in programs.items():
        kernel.spawn(name, program)
    kernel.run()
    return kernel
