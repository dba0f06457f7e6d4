"""Real-concurrency execution: the kernel on a pool of OS threads.

The virtual-time :class:`~repro.runtime.scheduler.Scheduler` is the
primary runtime — deterministic, seedable, the oracle every figure and
property test runs against.  This module is the other half of the
paper's claim: the *same* kernel, protocols, and lock discipline driven
by real threads under wall-clock time, so "more parallelism from
commutativity" becomes a measurable wall-clock fact instead of a
simulated one (see ``benchmarks/bench_t1_parallelism.py``).

Three pieces:

* :class:`ConcurrentLockTable` — the indexed lock table striped by OID
  hash.  Each stripe is a plain :class:`~repro.txn.locks.LockTable`
  guarded by its own reentrant lock; per-object operations touch
  exactly one stripe, tree-wide operations (node completion, release,
  re-evaluation) take every stripe lock in index order so they observe
  an atomic cross-stripe view — a node completion once, for its whole
  notify / dispose / re-evaluate sequence.  Lock ids and enqueue
  sequence numbers stay globally unique via per-stripe id strides.  Cross-stripe
  deadlocks need no new machinery: the kernel's incremental waits-for
  graph is fed from every stripe through the same ``on_waits_changed``
  hook, and cycle detection runs exactly as it does under virtual time.

* :class:`WallClockScheduler` — a scheduler facade satisfying the
  kernel's scheduler seam (:class:`~repro.runtime.scheduler.SchedulerAPI`)
  with a bounded worker pool.  Coroutine steps (the synchronous code
  between two awaits) take no step-level lock, so steps of different
  transactions proceed truly concurrently; the shared kernel
  structures they touch protect themselves (the striped lock table,
  the locked waits-for graph / sequence counter / id generator /
  history recorder / undo log), and object-state mutation is
  serialised per target by the lock table's
  :meth:`~ConcurrentLockTable.guard`.  Multi-structure kernel
  phases — commit and abort processing, lock re-evaluation, deadlock
  detection, lock-wait timeouts — run under a small *coordinator* lock
  (:meth:`WallClockScheduler.coordination`), taken before stripe
  locks, so the lock order

      coordinator  ->  stripe locks  ->  scheduler lock

  is acyclic.  Wake-ups are targeted: each worker owns one condition
  variable on the scheduler lock, and awaiting a Signal blocks the
  worker on its own condition, which only the grant or interrupt that
  readies its task (or shutdown) notifies; idle workers share one
  condition, and a ``spawn`` wakes one of them.  Awaiting a Pause sleeps
  ``cost * time_scale`` seconds — or, at zero cost, yields the
  processor and the GIL without arming a timer — *outside every lock*:
  that is where real interleaving (and the measured parallelism) comes
  from.  Timers are wall-clock ``threading.Timer``s whose callbacks run
  under the coordinator; their handles have the same tri-state lifecycle as
  virtual-time :class:`~repro.runtime.scheduler.TimerHandle` (armed,
  then fired XOR cancelled).  Worker failures are aggregated: when
  several workers fail in one run, ``run()`` raises
  :class:`~repro.errors.AggregateWorkerError` carrying every primary
  error, and wedged workers are asked to drain (blocked waits re-check
  a shutdown flag) before the error surfaces.

* :class:`ThreadedKernel` — the
  :class:`~repro.core.kernel.TransactionManager` subclass constructed
  over the two classes above, with the metrics registry armed for
  concurrent access.

Determinism is *not* provided here — that is the point.  The threaded
tests assert outcome invariants (serializability, state equivalence
against the virtual-time oracle — see
:mod:`repro.runtime.differential`), never specific interleavings.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.kernel import TransactionManager
from repro.errors import AggregateWorkerError, RuntimeEngineError
from repro.obs.registry import TIMER_BUCKETS, MetricsRegistry
from repro.runtime.scheduler import Pause, Signal, Task
from repro.txn.locks import Disposition, Lock, LockTable, PendingRequest

__all__ = [
    "ConcurrentLockTable",
    "WallClockScheduler",
    "ThreadedKernel",
    "run_threaded_transactions",
]


def _pick_yield(os_module=os) -> Callable[[], None]:
    """What a zero-cost ``Pause`` runs: hand the processor and the GIL
    to another runnable thread.  ``time.sleep(0)`` does that through a
    ``clock_nanosleep`` that waits out the timer slack, so it is only
    the fallback where the platform has no ``sched_yield``."""
    return getattr(os_module, "sched_yield", None) or functools.partial(time.sleep, 0)


_yield_thread = _pick_yield()


# ----------------------------------------------------------------------
# Striped lock table
# ----------------------------------------------------------------------
class _Stripe:
    """One stripe: a plain LockTable plus its guard."""

    __slots__ = ("index", "table", "lock")

    def __init__(self, index: int, table: LockTable) -> None:
        self.index = index
        self.table = table
        # Reentrant: a conflict test run under the stripe lock consults
        # the protocol, whose state views call locks_on(target) on the
        # same stripe.
        self.lock = threading.RLock()


class ConcurrentLockTable:
    """The indexed lock table, striped by ``hash(oid) % n_stripes``.

    Provides :class:`~repro.txn.locks.LockTableAPI` (the kernel takes it
    through the same ``lock_table_cls`` seam as the reference table).
    Thread safety contract: any single call is atomic — per-object
    calls under their stripe's lock, tree-wide calls under every stripe
    lock — and nothing above the table serialises calls for it:
    coroutine steps of different transactions call in concurrently.
    """

    def __init__(
        self,
        n_stripes: int = 8,
        metrics=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if n_stripes < 1:
            raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")
        self._n_stripes = n_stripes
        self._stripes = [
            _Stripe(
                i,
                LockTable(metrics=None, clock=clock, id_offset=i, id_stride=n_stripes),
            )
            for i in range(n_stripes)
        ]
        # Forward each stripe's hook through a late-binding trampoline:
        # the kernel assigns on_waits_changed on *this* object after
        # construction.
        self.on_waits_changed: Optional[Callable[[PendingRequest], None]] = None
        for stripe in self._stripes:
            stripe.table.on_waits_changed = self._fire_waits_changed
        # Counted here, once per operation: a tree-wide release visits
        # (and each stripe counts) every stripe.
        self._release_counter = None
        self._reeval_counter = None
        self._stripe_ops = None
        self._stripe_cross_ops = None
        # The lock.* instruments each stripe is mirrored into (grants,
        # blocks, conflict_tests, held, queue_depth), and the per-stripe
        # values already mirrored, in the same order.
        self._mirror_instruments: tuple = ()
        self._mirrored = [(0,) * 5 for __ in range(n_stripes)]
        if metrics is not None:
            self.bind_metrics(metrics, clock)

    # ------------------------------------------------------------------
    # Hook trampoline
    # ------------------------------------------------------------------
    def _fire_waits_changed(self, pending: PendingRequest) -> None:
        hook = self.on_waits_changed
        if hook is not None:
            hook(pending)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def bind_metrics(self, registry, clock: Optional[Callable[[], float]] = None) -> None:
        """Attach a registry; stripe totals are mirrored as deltas.

        Individual stripes run metric-less (each would clobber shared
        gauges with stripe-local values); this front-end owns the
        ``lock.*`` aggregates plus the ``stripe.*`` instruments.
        """
        if clock is not None:
            for stripe in self._stripes:
                stripe.table._clock = clock
        self._mirror_instruments = (
            registry.counter("lock.grants"),
            registry.counter("lock.blocks"),
            registry.counter("lock.conflict_tests"),
            registry.gauge("lock.held"),
            registry.gauge("lock.queue_depth"),
        )
        self._release_counter = registry.counter("lock.release_ops")
        self._reeval_counter = registry.counter("lock.reeval_passes")
        self._stripe_ops = registry.counter("stripe.ops")
        self._stripe_cross_ops = registry.counter("stripe.cross_ops")
        registry.gauge("stripe.count").set(self._n_stripes)

    def _sync_stripe_metrics(self, stripe: _Stripe) -> None:
        """Mirror a stripe's counter growth and level changes into the
        shared registry, as deltas: O(1) in the number of stripes.

        Called while holding *stripe.lock*, so the stripe's values are
        stable.
        """
        if not self._mirror_instruments:
            return
        table = stripe.table
        values = (
            table.total_grants,
            table.total_blocks,
            table.total_conflict_tests,
            table.lock_count,
            table.pending_count,
        )
        mirrored = self._mirrored[stripe.index]
        if values == mirrored:
            return  # the common case for most stripes of an all-stripes pass
        for instrument, value, seen in zip(self._mirror_instruments, values, mirrored):
            if value != seen:
                instrument.inc(value - seen)
        self._mirrored[stripe.index] = values

    # ------------------------------------------------------------------
    # Striping
    # ------------------------------------------------------------------
    def stripe_index_of(self, target) -> int:
        return hash(target) % self._n_stripes

    class _AllStripes:
        """Acquire every stripe lock in index order (cross-stripe ops)."""

        __slots__ = ("_stripes",)

        def __init__(self, stripes) -> None:
            self._stripes = stripes

        def __enter__(self) -> None:
            for stripe in self._stripes:
                stripe.lock.acquire()

        def __exit__(self, exc_type, exc, tb) -> bool:
            for stripe in reversed(self._stripes):
                stripe.lock.release()
            return False

    def _all_stripes(self) -> "ConcurrentLockTable._AllStripes":
        return self._AllStripes(self._stripes)

    def _on_stripe(self, target, op, *args, counted: bool = True):
        """Run ``op(table, *args)`` on *target*'s stripe under its lock.

        Mutating operations are *counted*: one ``stripe.ops`` tick, and
        the stripe's counter growth mirrored into the registry.
        """
        stripe = self._stripes[hash(target) % self._n_stripes]
        with stripe.lock:
            result = op(stripe.table, *args)
            if counted:
                if self._stripe_ops is not None:
                    self._stripe_ops.inc()
                self._sync_stripe_metrics(stripe)
        return result

    def _on_all_stripes(self, op, *args, counter) -> list:
        """Run ``op(table, *args)`` on every stripe under all stripe
        locks (one ``stripe.cross_ops`` tick, one tick of the front-end
        *counter* the operation is accounted under), concatenating the
        lists the stripes return."""
        results: list = []
        with self._all_stripes():
            for stripe in self._stripes:
                results.extend(op(stripe.table, *args))
                self._sync_stripe_metrics(stripe)
            self._count_cross_op(counter)
        return results

    def _count_cross_op(self, counter) -> None:
        if self._stripe_cross_ops is not None:  # bound together with *counter*
            self._stripe_cross_ops.inc()
            counter.inc()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def locks_on(self, target) -> tuple[Lock, ...]:
        return self._on_stripe(target, LockTable.locks_on, target, counted=False)

    def queue_on(self, target) -> tuple[PendingRequest, ...]:
        return self._on_stripe(target, LockTable.queue_on, target, counted=False)

    def pending_of_tree(self, root) -> list[PendingRequest]:
        with self._all_stripes():
            pending = [p for s in self._stripes for p in s.table.pending_of_tree(root)]
        pending.sort(key=lambda p: p.enqueue_seq)
        return pending

    def locks_held_by_tree(self, root) -> list[Lock]:
        with self._all_stripes():
            return [lock for s in self._stripes for lock in s.table.locks_held_by_tree(root)]

    @property
    def lock_count(self) -> int:
        return sum(s.table.lock_count for s in self._stripes)

    @property
    def pending_count(self) -> int:
        return sum(s.table.pending_count for s in self._stripes)

    @property
    def total_grants(self) -> int:
        return sum(s.table.total_grants for s in self._stripes)

    # ------------------------------------------------------------------
    # Per-object operations (one stripe)
    # ------------------------------------------------------------------
    def try_acquire(self, node, target, invocation, tester) -> set:
        """Conflict-test and, if clear, grant — in one stripe-lock hold,
        so no competing request can slip between the test and the grant."""
        return self._on_stripe(target, LockTable.try_acquire, node, target, invocation, tester)

    def enqueue_if_blocked(self, node, target, invocation, signal, blockers, tester):
        """Re-test and either grant or enqueue, in one stripe-lock hold.

        *blockers* was computed by the caller's :meth:`try_acquire` and
        may be stale — holders complete concurrently here — so the
        request is tested afresh.  Returns ``(None, set())`` when it
        was granted after all, otherwise the enqueued request with its
        fresh blockers already registered: the waits-for hook has fired
        before any blocker can complete unseen, and a holder completing
        right after this call re-tests the queue under
        :meth:`complete_node`.
        """

        def retest_then_enqueue(table: LockTable):
            fresh = table.try_acquire(node, target, invocation, tester)
            if not fresh:
                return None, fresh
            return table.enqueue_if_blocked(node, target, invocation, signal, fresh, tester)

        return self._on_stripe(target, retest_then_enqueue)

    def guard(self, target) -> threading.RLock:
        """The reentrant stripe lock guarding *target* (as a context
        manager).

        The kernel runs a generic operation's body under its target's
        guard: two granted-and-commuting operations on the same object
        (stepping on different workers) must still serialise their
        physical state mutation, while operations on different stripes
        proceed in parallel.
        """
        return self._stripes[hash(target) % self._n_stripes].lock

    def cancel(self, pending: PendingRequest) -> None:
        self._on_stripe(pending.target, LockTable.cancel, pending)

    def release_lock(self, lock: Lock) -> None:
        self._on_stripe(lock.target, LockTable.release_lock, lock)
        if self._release_counter is not None:
            self._release_counter.inc()

    # ------------------------------------------------------------------
    # Tree-wide operations (all stripe locks, index order)
    # ------------------------------------------------------------------
    def complete_node(self, node, disposition, tester) -> tuple[list[Lock], list[PendingRequest]]:
        """The whole completion step in one all-stripes hold: every
        stripe notes the commit and disposes of the node's locks, then
        every stripe is re-evaluated (one without a queued request only
        drops its dirty marks).  A stripe that neither lost a lock nor
        had a waiter has nothing to mirror."""
        granted: list[PendingRequest] = []
        with self._all_stripes():
            moved = [stripe.table.dispose(node, disposition) for stripe in self._stripes]
            for stripe, locks in zip(self._stripes, moved):
                waiters = stripe.table.pending_count
                granted.extend(stripe.table.reevaluate(tester))
                if locks or waiters:
                    self._sync_stripe_metrics(stripe)
            self._count_cross_op(self._reeval_counter)
            if disposition is not Disposition.RETAIN and self._release_counter is not None:
                self._release_counter.inc()
        return [lock for locks in moved for lock in locks], granted

    def reevaluate(self, tester) -> list[PendingRequest]:
        return self._on_all_stripes(LockTable.reevaluate, tester, counter=self._reeval_counter)

    def release_tree(self, root) -> list[Lock]:
        return self._on_all_stripes(LockTable.release_tree, root, counter=self._release_counter)

    def release_subtree(self, node) -> list[Lock]:
        return self._on_all_stripes(LockTable.release_subtree, node, counter=self._release_counter)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Every stripe's invariants, plus stripe residency: each granted
        lock and queued request lives on the stripe its target hashes
        to, and lock ids / enqueue seqs are globally unique."""
        with self._all_stripes():
            seen_lock_ids: set[int] = set()
            seen_seqs: set[int] = set()
            for stripe in self._stripes:
                stripe.table.check_invariants()
                for target, locks in stripe.table._granted.items():
                    assert self.stripe_index_of(target) == stripe.index, (
                        target,
                        stripe.index,
                    )
                    for lock in locks:
                        assert lock.lock_id not in seen_lock_ids, lock
                        seen_lock_ids.add(lock.lock_id)
                for target, queue in stripe.table._queues.items():
                    assert self.stripe_index_of(target) == stripe.index, (
                        target,
                        stripe.index,
                    )
                    for pending in queue:
                        assert pending.enqueue_seq not in seen_seqs, pending
                        seen_seqs.add(pending.enqueue_seq)


# ----------------------------------------------------------------------
# Wall-clock scheduler (worker pool)
# ----------------------------------------------------------------------
class _WallTimer:
    """A wall-clock timer handle with a tri-state lifecycle.

    Armed, then *fired* XOR *cancelled* — mirroring the virtual-time
    :class:`~repro.runtime.scheduler.TimerHandle`.  ``fired`` and
    ``cancelled`` are distinct so callers can tell a timer that ran its
    callback from one they deactivated (historically a fired wall timer
    was marked ``cancelled = True``, making the two indistinguishable).
    The fire/cancel race is arbitrated by *guard* (the scheduler's
    coordinator lock, which the fire path holds while deciding).
    """

    __slots__ = ("cancelled", "fired", "_guard", "_timer")

    def __init__(self, guard: threading.RLock) -> None:
        self.cancelled = False
        self.fired = False
        self._guard = guard
        self._timer: Optional[threading.Timer] = None

    def cancel(self) -> None:
        """Deactivate the timer; a no-op once the callback has run."""
        with self._guard:
            if self.fired:
                return
            self.cancelled = True
            timer = self._timer
        if timer is not None:
            timer.cancel()

    def __repr__(self) -> str:
        if self.fired:
            state = "fired"
        elif self.cancelled:
            state = "cancelled"
        else:
            state = "armed"
        return f"<WallTimer {state}>"


class _Coordinator:
    """Serialises multi-structure kernel phases (commit, abort,
    deadlock resolution, lock-wait timeouts, lock re-evaluation).

    A reentrant lock plus an epoch counter; used as a context manager.
    It is first in the lock order: coordinated phases take stripe
    locks and the scheduler lock inside it.
    """

    __slots__ = ("lock", "epoch", "_counter")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.epoch = 0
        self._counter = None  # shard.coordinations, once metrics bind

    def __enter__(self) -> "_Coordinator":
        self.lock.acquire()
        self.epoch += 1
        if self._counter is not None:
            self._counter.inc()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.lock.release()
        return False


class _LockedSignal(Signal):
    """A :class:`Signal` whose transitions run under the scheduler lock.

    ``fire`` / ``add_waiter`` / ``remove_waiter`` race between workers
    (a grant fired from a completing holder's thread vs. the requester
    registering as a waiter), so the done flag, the value, and the
    waiter list flip atomically with task-state changes.

    ``fire`` notifies no one itself: each waiter it readies goes through
    :meth:`WallClockScheduler._ready_task`, which notifies that task's
    worker alone, so a signal without waiters wakes no thread.  No
    wake-up is lost: a worker tests its task's state and waits under the
    scheduler lock, and ``Condition.wait`` releases that lock
    atomically, so a fire either comes before the test (which then sees
    the task READY) or finds the worker waiting (and its notify reaches
    it).
    """

    __slots__ = ()

    def fire(self, value: Any = None) -> None:
        with self._scheduler._sched_lock:
            super().fire(value)

    def add_waiter(self, task: Task) -> None:
        with self._scheduler._sched_lock:
            super().add_waiter(task)

    def remove_waiter(self, task: Task) -> None:
        with self._scheduler._sched_lock:
            super().remove_waiter(task)


class _PooledTask(Task):
    """A :class:`Task` plus the condition of the worker that drives it."""

    def __init__(self, name: str, coro) -> None:
        super().__init__(name, coro)
        #: Set when a worker takes the task; readying or interrupting the
        #: task notifies it.
        self.wake: Optional[threading.Condition] = None


class WallClockScheduler:
    """Kernel scheduler facade running coroutines on a worker pool.

    Provides :class:`~repro.runtime.scheduler.SchedulerAPI` — the whole
    surface the kernel touches — with ``clock`` in wall seconds since
    construction, plus the serve-mode lifecycle (``start`` / ``stop`` /
    ``reap``) the transaction server drives.

    ``n_threads`` bounds the multiprogramming level: each worker drives
    one transaction coroutine at a time to completion, so at most
    ``n_threads`` transactions are in flight.  The stall backstop: a
    worker blocked on a signal periodically re-runs the kernel's
    ``on_stall`` hook (deadlock resolution) and raises
    :class:`RuntimeEngineError` after ``stall_timeout`` seconds without
    progress, so a lost wakeup can never hang the process.
    """

    def __init__(
        self,
        n_threads: int = 4,
        time_scale: float = 0.0,
        stall_timeout: float = 10.0,
        stall_check: float = 0.05,
    ) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        self.time_scale = time_scale
        self.stall_timeout = stall_timeout
        self.stall_check = stall_check
        # Scheduler lock: task states, the runnable queue, errors, the
        # shutdown flag, and signal done/waiter transitions.  Taken
        # last in the lock order, so it may be acquired from any path.
        self._sched_lock = threading.RLock()
        # Idle workers wait on _wakeup for the runnable queue; a worker
        # whose task is blocked waits on its own condition (task.wake),
        # which only that task's wake-up notifies.
        self._wakeup = threading.Condition(self._sched_lock)
        self._coordinator = _Coordinator()
        self._step_lock = threading.Lock()  # guards the steps counter
        self.tasks: dict[str, Task] = {}
        self._runnable: deque[Task] = deque()
        self._driving = 0
        self._errors: list[BaseException] = []
        self._shutdown = False
        # Serve mode (see :meth:`start`): workers idle-wait instead of
        # exiting when the runnable queue drains, and one task's failure
        # does not cascade into the others.
        self._serve = False
        self._threads: list[threading.Thread] = []
        #: Fired (outside all scheduler locks) when a task reaches DONE
        #: or FAILED — the transaction server's completion signal.
        self.on_task_done: Optional[Callable[[Task], None]] = None
        #: In serve mode the error list is a bounded diagnostic ring,
        #: not a run-abort trigger.
        self.max_kept_errors = 64
        self._t0 = time.monotonic()
        self.steps = 0
        self.on_stall: Optional[Callable[[list[Task]], bool]] = None
        self.on_step: Optional[Callable[[int], None]] = None
        self._step_counter = None
        self._spawn_counter = None
        self._stall_counter = None
        self._blocked_gauge = None
        self._block_hist = None
        self._idle_wake_counter = None

    @property
    def clock(self) -> float:
        """Wall-clock seconds since the scheduler was created."""
        return time.monotonic() - self._t0

    def coordination(self) -> _Coordinator:
        """The kernel-phase coordinator, as a reusable context manager.

        The kernel wraps its multi-structure phases (commit, abort,
        re-evaluation, deadlock resolution, timeouts) in
        ``with scheduler.coordination():`` so they serialise with each
        other while coroutine stepping continues elsewhere.
        """
        return self._coordinator

    def bind_metrics(self, registry) -> None:
        """Expose ``thread.*`` instruments and ``shard.coordinations``;
        see docs/OBSERVABILITY.md."""
        self._step_counter = registry.counter("thread.steps")
        self._spawn_counter = registry.counter("thread.spawned")
        self._stall_counter = registry.counter("thread.stall_checks")
        self._idle_wake_counter = registry.counter("thread.idle_wakeups")
        self._blocked_gauge = registry.gauge("thread.blocked")
        self._block_hist = registry.histogram("thread.block_time", TIMER_BUCKETS)
        registry.gauge("thread.workers").set(self.n_threads)
        self._coordinator._counter = registry.counter("shard.coordinations")

    # ------------------------------------------------------------------
    # Kernel-facing surface
    # ------------------------------------------------------------------
    def create_signal(self, name: str = "") -> Signal:
        return _LockedSignal(self, name)

    def spawn(self, name: str, coro) -> Task:
        with self._sched_lock:
            if name in self.tasks:
                raise RuntimeEngineError(f"task name {name!r} already in use")
            task = _PooledTask(name, coro)
            self.tasks[name] = task
            self._runnable.append(task)
            if self._spawn_counter is not None:
                self._spawn_counter.inc()
            self._wakeup.notify()
        return task

    def _ready_task(self, task: _PooledTask, resume_value: Any = None) -> None:
        """Signal.fire lands here (caller holds the scheduler lock); only
        the task's own worker is woken."""
        if task.finished:
            return
        task.resume_value = resume_value
        task.blocked_on = None
        task.state = Task.READY
        if task.wake is not None:
            task.wake.notify()

    def interrupt(self, task: Task, exc: BaseException) -> None:
        """Deliver an exception to a (possibly blocked) task.

        Safe against every phase of the task's lifecycle: PENDING tasks
        keep their single runnable-queue entry and raise on their first
        step; RUNNING tasks pick the exception up at their next await;
        BLOCKED tasks are woken exactly once (their driving worker owns
        them, so the task is never re-enqueued or driven twice).
        """
        with self._sched_lock:
            if task.finished:
                return
            if task.blocked_on is not None:
                task.blocked_on.remove_waiter(task)
                task.blocked_on = None
            task.pending_exception = exc
            task.state = Task.READY
            if task.wake is not None:
                task.wake.notify()

    def call_later(self, delay: float, callback: Callable[[], None]) -> _WallTimer:
        """Run *callback* under the coordinator after *delay* seconds."""
        handle = _WallTimer(self._coordinator.lock)

        def fire() -> None:
            with self._coordinator.lock:
                if handle.cancelled or handle.fired:
                    return
                handle.fired = True
                try:
                    callback()
                except BaseException as error:  # noqa: BLE001 - surfaced in run()
                    with self._sched_lock:
                        self._record_error(error)

        timer = threading.Timer(max(0.0, delay), fire)
        timer.daemon = True
        handle._timer = timer
        timer.start()
        return handle

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run every spawned task to completion on the worker pool.

        Error semantics: exactly one worker failure re-raises that
        error; several concurrent failures raise
        :class:`~repro.errors.AggregateWorkerError` carrying all of
        them (chained from the first), so no worker's error is silently
        dropped.  Workers that miss the join budget are asked to drain
        — the shutdown flag makes blocked waits raise instead of
        sleeping on — before the wedge is reported, so the process is
        not left with live daemon threads still mutating kernel state.
        """
        workers = [
            threading.Thread(target=self._worker, name=f"cc-worker-{i}", daemon=True)
            for i in range(self.n_threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=self.stall_timeout * 4)
        wedged = [worker for worker in workers if worker.is_alive()]
        if wedged:
            with self._sched_lock:
                self._shutdown = True
                self._wake_all()
            for worker in wedged:
                worker.join(timeout=max(1.0, self.stall_check * 20))
            survivors = [worker.name for worker in wedged if worker.is_alive()]
            errors = tuple(self._errors)
            detail = (
                f"; still alive after drain: {', '.join(survivors)}"
                if survivors
                else " (all drained after shutdown)"
            )
            wedge = AggregateWorkerError(
                f"{len(wedged)} worker(s) missed the join budget{detail}", errors
            )
            if errors:
                wedge.__cause__ = errors[0]
            raise wedge
        if self._errors:
            if len(self._errors) == 1:
                raise self._errors[0]
            failure = AggregateWorkerError(
                f"{len(self._errors)} workers failed concurrently",
                tuple(self._errors),
            )
            failure.__cause__ = self._errors[0]
            raise failure

    # ------------------------------------------------------------------
    # Serve mode (long-running server front-end)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool in *serve* mode and return immediately.

        Batch mode (:meth:`run`) treats an empty runnable queue as "the
        workload is finished" and any worker error as "abort the run".
        A server needs neither: workers idle-wait for future ``spawn``
        calls, and a failed task is an ordinary per-request outcome
        (recorded on the task, reported through :attr:`on_task_done`,
        kept in a bounded diagnostic ring) rather than a pool-wide
        abort.  Pair with :meth:`stop`.
        """
        with self._sched_lock:
            if self._threads:
                raise RuntimeEngineError("scheduler already started")
            if self._shutdown:
                raise RuntimeEngineError("scheduler already shut down")
            self._serve = True
        self._threads = [
            threading.Thread(target=self._worker, name=f"cc-serve-{i}", daemon=True)
            for i in range(self.n_threads)
        ]
        for worker in self._threads:
            worker.start()

    def stop(self, timeout: Optional[float] = None) -> list[str]:
        """Stop a served pool: set shutdown, join workers, close coros.

        Shutdown notifies every idle worker and every blocked worker's
        own condition, so blocked waits drain at once.  Returns the
        names of workers still alive after the join budget (empty on a
        clean stop).  Unfinished coroutines are closed once no worker
        can be driving them, so abandoned tasks do not leak
        pending-coroutine warnings.
        """
        with self._sched_lock:
            self._shutdown = True
            self._wake_all()
        budget = timeout if timeout is not None else max(1.0, self.stall_check * 40)
        for worker in self._threads:
            worker.join(timeout=budget)
        wedged = [worker.name for worker in self._threads if worker.is_alive()]
        if not wedged:
            with self._sched_lock:
                leftovers = [t for t in self.tasks.values() if not t.finished]
            for task in leftovers:
                try:
                    task.coro.close()
                except BaseException:  # noqa: BLE001 - best-effort cleanup
                    pass
        return wedged

    @property
    def serving(self) -> bool:
        return self._serve and not self._shutdown

    def reap(self, name: str) -> Optional[Task]:
        """Drop a finished task from the registry (long-run hygiene).

        Returns the task if it existed and had finished, else None; a
        still-running task is left untouched.  Without reaping, a served
        scheduler's task dict grows with every request ever handled.
        """
        with self._sched_lock:
            task = self.tasks.get(name)
            if task is not None and task.finished:
                del self.tasks[name]
                return task
            return None

    def drain_errors(self) -> list[BaseException]:
        """Pop and return the collected diagnostic errors (serve mode)."""
        with self._sched_lock:
            errors = list(self._errors)
            self._errors.clear()
            return errors

    def _record_error(self, error: BaseException) -> None:
        """Append to the error list (caller holds the scheduler lock).

        In batch mode an error ends the run, so every worker is woken
        to drain; in serve mode the list is a bounded diagnostic ring.
        """
        self._errors.append(error)
        if not self._serve:
            self._wake_all()
        elif len(self._errors) > self.max_kept_errors:
            del self._errors[: len(self._errors) - self.max_kept_errors]

    def _wake_all(self) -> None:
        """Notify every idle and every blocked worker (caller holds the
        scheduler lock): shutdown and batch-mode errors concern them all."""
        self._wakeup.notify_all()
        for task in self.tasks.values():
            if task.state == Task.BLOCKED:
                task.wake.notify()

    def _notify_task_done(self, task: Task) -> None:
        """Fire the completion hook outside every scheduler lock."""
        hook = self.on_task_done
        if hook is None:
            return
        try:
            hook(task)
        except BaseException as error:  # noqa: BLE001 - diagnostic only
            with self._sched_lock:
                self._record_error(error)

    def _worker(self) -> None:
        # This worker's own wake-up: each task it takes records it, and
        # only that task's ready or interrupt (or _wake_all) notifies it.
        wake = threading.Condition(self._sched_lock)
        while True:
            with self._wakeup:
                notified = False
                while (
                    not self._runnable
                    and not self._shutdown
                    and (self._serve or (self._driving > 0 and not self._errors))
                ):
                    if notified and self._idle_wake_counter is not None:
                        self._idle_wake_counter.inc()
                    notified = self._wakeup.wait(self.stall_check)
                if self._shutdown:
                    return
                if not self._serve and (self._errors or not self._runnable):
                    return
                task = self._runnable.popleft()
                if task.state not in (Task.PENDING, Task.READY):
                    continue
                task.wake = wake
                self._driving += 1
            try:
                self._drive(task)
            finally:
                with self._sched_lock:
                    self._driving -= 1
                    if not self._serve and not self._driving:
                        # Batch mode's exit test reads _driving.
                        self._wakeup.notify_all()

    def _drive(self, task: Task) -> None:
        """Run one coroutine to completion (the pool's unit of work).

        One worker owns the task for its whole life — the task is never
        re-enqueued, so ``coro.send`` is single-threaded per task.  Steps
        take no step-level lock; awaitable dispatch runs under the
        scheduler lock (atomically with concurrent ``fire``/``interrupt``);
        Pause sleeps and yields happen outside every lock.
        """
        value: Any = None
        exc: Optional[BaseException] = None
        try:
            while True:
                with self._sched_lock:
                    if exc is None and task.pending_exception is not None:
                        exc = task.pending_exception
                        task.pending_exception = None
                # Take and bump the step number in one hold, so every
                # number reaches on_step exactly once.
                with self._step_lock:
                    step = self.steps
                    self.steps += 1
                if self.on_step is not None:
                    self.on_step(step)
                if self._step_counter is not None:
                    self._step_counter.inc()
                try:
                    if exc is not None:
                        yielded = task.coro.throw(exc)
                        exc = None
                    else:
                        yielded = task.coro.send(value)
                except StopIteration as stop:
                    with self._sched_lock:
                        task.state = Task.DONE
                        task.result = stop.value
                    self._notify_task_done(task)
                    return
                if isinstance(yielded, Signal):
                    registered = False
                    with self._sched_lock:
                        if task.pending_exception is not None:
                            # An interrupt raced the await: loop around
                            # and throw it instead of blocking.
                            value = None
                            continue
                        if yielded.done:
                            value = yielded.value
                            continue
                        task.state = Task.BLOCKED
                        task.blocked_on = yielded
                        yielded.add_waiter(task)
                        registered = True
                    if registered:
                        value, exc = self._await_signal(task, yielded)
                    continue
                if isinstance(yielded, Pause):
                    cost = yielded.cost
                else:
                    raise RuntimeEngineError(
                        f"thread {task.name} awaited unsupported {yielded!r}"
                    )
                # Pause: outside every lock so other workers interleave.
                if self.time_scale > 0 and cost > 0:
                    time.sleep(cost * self.time_scale)
                else:
                    _yield_thread()
                value = None
        except BaseException as error:  # noqa: BLE001 - surfaced in run()
            with self._sched_lock:
                task.state = Task.FAILED
                task.exception = error
                # Drain errors (raised because *another* worker already
                # failed or the run is shutting down) are secondary; the
                # error list keeps primary causes only.
                if not getattr(error, "_secondary_drain", False):
                    self._record_error(error)
            self._notify_task_done(task)

    def _await_signal(self, task: _PooledTask, signal: Signal):
        """Block until the signal fires, an interrupt lands, or the
        stall backstop gives up.  Caller holds **no** locks.

        Returns ``(resume_value, pending_exception)``.  The worker waits
        on its own condition (``task.wake``), which only this task's
        ready or interrupt notifies — or shutdown, or a batch-mode
        error.  No wake-up is lost: the task's state is tested under
        the scheduler lock and ``Condition.wait`` releases that lock
        atomically, so a ready either comes before the test or finds
        the worker waiting.  Every ``stall_check`` seconds of blocked
        time the kernel's stall hook gets the blocked task set — under
        wall clock there is no global "all tasks blocked" moment, so
        this poll is the backstop for a cycle formed while everyone was
        parked (the requester resolves the others at block time).  The
        hook runs with no scheduler lock held: it enters the coordinator
        and the stripe locks, which workers holding those locks need the
        scheduler lock *after* — holding it here would deadlock.
        """
        wake = task.wake
        started = time.monotonic()
        deadline = started + self.stall_timeout
        next_check = started + self.stall_check
        if self._blocked_gauge is not None:
            self._blocked_gauge.inc()
        try:
            while True:
                with wake:
                    if task.state != Task.BLOCKED:
                        break
                    if self._shutdown:
                        drain = RuntimeEngineError(
                            f"runtime shut down while {task.name} waited for "
                            f"{signal.name or 'a signal'}"
                        )
                        drain._secondary_drain = True
                        raise drain
                    # In serve mode another request's failure is not this
                    # request's problem — only shutdown drains waiters.
                    if self._errors and not self._serve:
                        drain = RuntimeEngineError(
                            f"runtime aborted while {task.name} waited for "
                            f"{signal.name or 'a signal'}"
                        )
                        drain._secondary_drain = True
                        raise drain from self._errors[0]
                    wake.wait(self.stall_check)
                    if task.state != Task.BLOCKED:
                        break
                # The stall/deadline check runs once per stall_check
                # seconds of blocked time, whatever ended the wait.
                now = time.monotonic()
                if now < next_check:
                    continue
                next_check = now + self.stall_check
                if self._stall_counter is not None:
                    self._stall_counter.inc()
                progressed = False
                if self.on_stall is not None:
                    with self._sched_lock:
                        blocked = [
                            t for t in self.tasks.values() if t.state == Task.BLOCKED
                        ]
                    progressed = bool(blocked) and self.on_stall(blocked)
                with self._sched_lock:
                    still_blocked = task.state == Task.BLOCKED
                if progressed or not still_blocked:
                    deadline = time.monotonic() + self.stall_timeout
                elif now >= deadline:
                    raise RuntimeEngineError(
                        f"thread {task.name} stalled waiting for "
                        f"{signal.name or 'a signal'}"
                    )
        finally:
            if self._blocked_gauge is not None:
                self._blocked_gauge.dec()
            if self._block_hist is not None:
                self._block_hist.observe(time.monotonic() - started)
        with self._sched_lock:
            if task.pending_exception is not None:
                exc = task.pending_exception
                task.pending_exception = None
                return None, exc
            return task.resume_value, None

    @property
    def all_finished(self) -> bool:
        with self._sched_lock:
            return all(t.finished for t in self.tasks.values())


# ----------------------------------------------------------------------
# Threaded kernel
# ----------------------------------------------------------------------
class ThreadedKernel(TransactionManager):
    """The :class:`TransactionManager` on real threads.

    The same kernel, constructed over a :class:`WallClockScheduler`
    (``self.scheduler``) and a :class:`ConcurrentLockTable`
    (``self.locks``), with the metrics registry armed for concurrent
    access.  What it adds is the serve-mode lifecycle (:meth:`start` /
    :meth:`stop` / :meth:`reap`).

    ``lock_timeout`` and ``lock_timeout_fn`` budgets are in *wall-clock
    seconds* here.
    """

    def __init__(
        self,
        db,
        protocol=None,
        n_threads: int = 4,
        n_stripes: int = 8,
        time_scale: float = 0.0,
        stall_timeout: float = 10.0,
        cost_model=None,
        obs: Optional[MetricsRegistry] = None,
        lock_timeout: Optional[float] = None,
        faults=None,
        wal=None,
        lock_timeout_fn=None,
    ) -> None:
        if obs is None:
            obs = MetricsRegistry(thread_safe=True)
        elif not obs.thread_safe:
            raise ValueError("ThreadedKernel needs a thread-safe MetricsRegistry")

        super().__init__(
            db,
            protocol=protocol,
            scheduler=WallClockScheduler(
                n_threads=n_threads,
                time_scale=time_scale,
                stall_timeout=stall_timeout,
            ),
            cost_model=cost_model,
            obs=obs,
            lock_table_cls=functools.partial(ConcurrentLockTable, n_stripes=n_stripes),
            lock_timeout=lock_timeout,
            faults=faults,
            wal=wal,
            lock_timeout_fn=lock_timeout_fn,
        )

    # ------------------------------------------------------------------
    # Serve mode (long-running server front-end)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker pool in serve mode (see
        :meth:`WallClockScheduler.start`); pair with :meth:`stop`."""
        self.scheduler.start()

    def stop(self, timeout: Optional[float] = None) -> list[str]:
        """Stop a served pool; returns names of any wedged workers."""
        return self.scheduler.stop(timeout)

    def reap(self, name: str):
        """Drop every trace of a finished transaction (server hygiene).

        Removes the scheduler task, the kernel handle, and the
        transaction's undo entries, trace events and history records:
        a served kernel keeps only what its in-flight transactions left.
        Returns the reaped task, or None if the task is still running.
        """
        task = self.scheduler.reap(name)
        if task is None:
            return None
        handle = self.handles.pop(name, None)
        if handle is not None and handle.root is not None:
            for node in handle.root.descendants(include_self=True):
                self.undo.discard(node.node_id)
        self.trace.discard(name)
        self.recorder.discard(name)
        return task


def run_threaded_transactions(
    db,
    programs: Mapping[str, Any] | Iterable[tuple[str, Any]],
    protocol=None,
    n_threads: int = 4,
    n_stripes: int = 8,
    time_scale: float = 0.0,
    stall_timeout: float = 10.0,
    cost_model=None,
    lock_timeout: Optional[float] = None,
) -> ThreadedKernel:
    """Convenience mirror of :func:`repro.core.kernel.run_transactions`
    for the threaded runtime: spawn every program, run the pool, return
    the kernel."""
    kernel = ThreadedKernel(
        db,
        protocol=protocol,
        n_threads=n_threads,
        n_stripes=n_stripes,
        time_scale=time_scale,
        stall_timeout=stall_timeout,
        cost_model=cost_model,
        lock_timeout=lock_timeout,
    )
    items = programs.items() if isinstance(programs, Mapping) else programs
    for name, program in items:
        kernel.spawn(name, program)
    kernel.run()
    return kernel
