"""Real-concurrency execution: the kernel on OS threads.

The virtual-time :class:`~repro.runtime.scheduler.Scheduler` is the
primary runtime — deterministic, seedable, the oracle every figure and
property test runs against.  This module is the other half of the
paper's claim: the *same* kernel, protocols, and lock discipline driven
by real threads under wall-clock time, so "more parallelism from
commutativity" becomes a countable fact on real threads instead of a
simulated one (``tests/test_threaded_runtime.py::TestCommutingHolder``).

Two pieces, over the plain indexed :class:`~repro.txn.locks.LockTable`
(built without a clock: nothing here reads hold or wait times):

* :class:`WallClockScheduler` — a scheduler facade satisfying the
  kernel's scheduler seam (:class:`~repro.runtime.scheduler.SchedulerAPI`)
  on which one thread drives each task to its end
  (:meth:`WallClockScheduler.drive`): on a served scheduler the thread
  that waits for the answer, in a batch :meth:`~WallClockScheduler.run`
  one of ``n_threads`` threads that each drive the next task nobody
  drives yet.  Coroutine steps (the synchronous code between two
  awaits) take no step-level lock, so steps of different transactions
  interleave.
  The scheduler's *kernel lock*
  (:meth:`WallClockScheduler.coordination`, a bare ``threading.RLock``):
  the kernel takes it around every lock-table call — a lock request (the
  conflict test, then a grant or a queue entry and deadlock
  resolution) is one hold, and so is a node completion — around every
  generic operation's body, which serialises object-state mutation,
  and around its other multi-structure phases (commit and abort
  processing, re-evaluation, lock-wait timeouts).  The waits-for graph
  is used only under it; the sequence counter, id generator and undo
  log lock themselves.  The lock is reentrant because a conflict test
  run under it consults the protocol, whose state views read the
  table.  The lock order

      kernel lock  ->  scheduler lock

  is acyclic.  Wake-ups are targeted: each driving thread owns one
  condition variable on the scheduler lock, and awaiting a Signal
  blocks it on its own condition, which only the grant or interrupt
  that readies its task (or shutdown) notifies.  Awaiting a Pause
  sleeps ``cost * time_scale`` seconds — or, at zero cost in a batch
  run of several threads, yields the processor and the GIL without
  arming a timer — *outside every lock*: that is where a batch run's
  interleaving (and the measured parallelism) comes from.  Elsewhere
  (:attr:`WallClockScheduler.pauses_interleave` is False) the kernel
  does not await a zero-cost Pause at all, and a served
  caller instead hands the GIL over at a transaction's end when
  another driver wants it and the current turn is up
  (:meth:`WallClockScheduler._end_turn`).  Timers are wall-clock
  ``threading.Timer``s whose callbacks run under the kernel lock;
  their handles have the same tri-state lifecycle as virtual-time
  :class:`~repro.runtime.scheduler.TimerHandle` (armed, then fired XOR
  cancelled).  Failures are aggregated: a batch run's first failure
  shuts the run down (blocked waits drain, tasks not yet driven fail
  unstepped), and ``run()`` raises it, or
  :class:`~repro.errors.AggregateWorkerError` carrying every primary
  error when several tasks failed.

* :class:`ThreadedKernel` — the
  :class:`~repro.core.kernel.TransactionManager` subclass constructed
  over the scheduler above and that table, with the metrics registry
  armed for concurrent access.

Determinism is *not* provided here — that is the point.  The threaded
tests assert outcome invariants (serializability, state equivalence
against the virtual-time oracle — see
:mod:`repro.runtime.differential`), never specific interleavings.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.kernel import TransactionManager
from repro.errors import AggregateWorkerError, RuntimeEngineError
from repro.obs.registry import TIMER_BUCKETS, MetricsRegistry
from repro.runtime.scheduler import Pause, Signal, Task
from repro.txn.locks import LockTable

__all__ = [
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
# Wall-clock scheduler
# ----------------------------------------------------------------------
class _WallTimer:
    """A wall-clock timer handle with a tri-state lifecycle.

    Armed, then *fired* XOR *cancelled* — mirroring the virtual-time
    :class:`~repro.runtime.scheduler.TimerHandle`.  ``fired`` and
    ``cancelled`` are distinct so callers can tell a timer that ran its
    callback from one they deactivated.
    The fire/cancel race is arbitrated by *guard* (the kernel lock,
    which the fire path holds while deciding).
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
            timer, self._timer = self._timer, None
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


class _LockedSignal(Signal):
    """A :class:`Signal` whose transitions run under the scheduler lock.

    ``fire`` / ``add_waiter`` / ``remove_waiter`` race between driving
    threads (a grant fired from a completing holder's thread vs. the requester
    registering as a waiter), so the done flag, the value, and the
    waiter list flip atomically with task-state changes.

    ``fire`` notifies no one itself: each waiter it readies goes through
    :meth:`WallClockScheduler._ready_task`, which notifies that task's
    driving thread alone, so a signal without waiters wakes no thread.  No
    wake-up is lost: a driver tests its task's state and waits under the
    scheduler lock, and ``Condition.wait`` releases that lock
    atomically, so a fire either comes before the test (which then sees
    the task READY) or finds the driver waiting (and its notify reaches
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


class _DrivenTask(Task):
    """A :class:`Task` plus the condition of the thread that drives it."""

    def __init__(self, name: str, coro) -> None:
        super().__init__(name, coro)
        #: Set when a thread takes the task in :meth:`WallClockScheduler.drive`;
        #: readying or interrupting the task notifies it.
        self.wake: Optional[threading.Condition] = None
        #: The name of that thread; None until one takes the task.
        self.driver: Optional[str] = None


class WallClockScheduler:
    """Kernel scheduler facade running each coroutine on the thread that
    drives it.

    Provides :class:`~repro.runtime.scheduler.SchedulerAPI` — the whole
    surface the kernel touches — with ``clock`` in wall seconds since
    construction, plus the serve-mode lifecycle (``start`` / ``stop`` /
    ``reap``) the transaction server drives, and :meth:`drive`, which
    runs a spawned task on the calling thread.

    ``n_threads`` is how many threads a batch :meth:`run` starts, so at
    most ``n_threads`` of its transactions are in flight.  A started
    (served) scheduler starts no thread: each caller drives its own
    task, and the server's admission control bounds how many.  The
    stall backstop: a thread blocked on a signal periodically re-runs
    the kernel's ``on_stall`` hook (deadlock resolution) and raises
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
        # Scheduler lock: task states, errors, the shutdown flag, and
        # signal done/waiter transitions.  Taken last in the lock order,
        # so it may be acquired from any path.  A thread whose task is
        # blocked waits on its own condition on it (task.wake), which
        # only that task's wake-up notifies.
        self._sched_lock = threading.RLock()
        # The kernel lock (see coordination()).
        self._kernel_lock = threading.RLock()
        self._step_lock = threading.Lock()  # guards the steps count
        self.tasks: dict[str, Task] = {}
        # Threads inside drive(), how many of their tasks are parked on
        # a signal, and how many threads are inside a GIL hand-off: the
        # hand-off rule reads all three.
        self._driving = 0
        self._blocked = 0
        self._handoffs = 0
        # A turn: when the GIL last passed between drivers on purpose (a
        # hand-off, or a blocked driver resuming), and how long a turn
        # runs before a caller hands the GIL over: half the interpreter's
        # switch interval, so a waiting driver gets it before the
        # interpreter would force a switch.
        self._turn_started = time.monotonic()
        self._turn = sys.getswitchinterval() / 2
        # stop() waits on this for callers still inside drive().
        self._drivers_done = threading.Condition(self._sched_lock)
        # A driving thread's own wake-up condition, made on its first drive.
        self._local = threading.local()
        self._errors: list[BaseException] = []
        self._shutdown = False
        # Serve mode (see :meth:`start`): one task's failure does not
        # cascade into the others.
        self._serve = False
        #: Fired (outside all scheduler locks) when a task reaches DONE
        #: or FAILED — the transaction server's completion signal.
        self.on_task_done: Optional[Callable[[Task], None]] = None
        #: In serve mode the error list is a bounded diagnostic ring,
        #: not a run-abort trigger.
        self.max_kept_errors = 64
        self._t0 = time.monotonic()
        self.steps = 0
        self.spawned = 0  # tasks registered, under the scheduler lock
        self.on_stall: Optional[Callable[[list[Task]], bool]] = None
        self.on_step: Optional[Callable[[int], None]] = None
        self._stall_counter = None
        self._blocked_gauge = None
        self._block_hist = None
        self._caller_counter = None

    @property
    def clock(self) -> float:
        """Wall-clock seconds since the scheduler was created."""
        return time.monotonic() - self._t0

    @property
    def pauses_interleave(self) -> bool:
        """A zero-cost Pause yields the processor only in a batch run of
        several threads, which is what interleaves it; a served caller
        hands the GIL over at its transaction's end instead
        (:meth:`_end_turn`), and a lone batch thread has nobody to yield to."""
        return self.n_threads > 1 and not self._serve

    def coordination(self) -> threading.RLock:
        """The kernel lock: a bare reentrant lock, whose ``with`` runs in C.

        The kernel wraps every lock-table call, generic-operation body
        and multi-structure phase (commit, abort, re-evaluation,
        deadlock resolution, timeouts) in
        ``with scheduler.coordination():`` so they serialise with each
        other while coroutine stepping continues elsewhere.
        """
        return self._kernel_lock

    def bind_metrics(self, registry) -> None:
        """Expose ``thread.*`` instruments; see docs/OBSERVABILITY.md.
        Steps and spawns are counted under locks taken anyway and
        collected at snapshot."""
        self._stall_counter = registry.counter("thread.stall_checks")
        self._caller_counter = registry.counter("thread.caller_drives")
        self._blocked_gauge = registry.gauge("thread.blocked")
        self._block_hist = registry.histogram("thread.block_time", TIMER_BUCKETS)
        registry.gauge("thread.workers").set(self.n_threads)
        registry.add_collector(self._collect)

    def _collect(self) -> dict:
        return {"thread.steps": self.steps, "thread.spawned": self.spawned}

    # ------------------------------------------------------------------
    # Kernel-facing surface
    # ------------------------------------------------------------------
    def create_signal(self, name: str = "") -> Signal:
        return _LockedSignal(self, name)

    def spawn(self, name: str, coro) -> Task:
        """Register a task; it waits for the thread that calls
        :meth:`drive` on it (a caller, or one of :meth:`run`'s)."""
        with self._sched_lock:
            if name in self.tasks:
                raise RuntimeEngineError(f"task name {name!r} already in use")
            task = _DrivenTask(name, coro)
            self.tasks[name] = task
            self.spawned += 1
        return task

    def _unblock(self, task: _DrivenTask) -> None:
        """Leave BLOCKED (caller holds the scheduler lock)."""
        if task.state == Task.BLOCKED:
            self._blocked -= 1

    def _ready_task(self, task: _DrivenTask, resume_value: Any = None) -> None:
        """Signal.fire lands here (caller holds the scheduler lock); only
        the thread driving the task is woken."""
        if task.finished:
            return
        self._unblock(task)
        task.resume_value = resume_value
        task.blocked_on = None
        task.state = Task.READY
        if task.wake is not None:
            task.wake.notify()

    def interrupt(self, task: Task, exc: BaseException) -> None:
        """Deliver an exception to a (possibly blocked) task.

        Safe against every phase of the task's lifecycle: PENDING tasks
        raise on their first step; RUNNING tasks pick the exception up at
        their next await; BLOCKED tasks are woken exactly once (their
        driving thread owns them, so the task is never driven twice).
        """
        with self._sched_lock:
            if task.finished:
                return
            if task.blocked_on is not None:
                task.blocked_on.remove_waiter(task)
                task.blocked_on = None
            self._unblock(task)
            task.pending_exception = exc
            task.state = Task.READY
            if task.wake is not None:
                task.wake.notify()

    def call_later(self, delay: float, callback: Callable[[], None]) -> _WallTimer:
        """Run *callback* under the kernel lock after *delay* seconds."""
        handle = _WallTimer(self._kernel_lock)

        def fire() -> None:
            with self._kernel_lock:
                if handle.cancelled or handle.fired:
                    return
                handle.fired = True
                handle._timer = None  # it holds this closure: no cycle
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
    # Batch mode
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive every task spawned so far to its end on ``n_threads``
        threads, each calling :meth:`drive` on the next task no thread
        drives yet; a started scheduler raises, as its callers drive.

        The first failure shuts the run down: blocked waits drain, and
        each task not yet driven fails unstepped with a drain error.  One
        failure is re-raised; several raise
        :class:`~repro.errors.AggregateWorkerError` carrying all of them
        (chained from the first).  Threads that miss the join budget are
        drained as :meth:`stop` drains a server's callers before the
        wedge is reported, so no live thread is left mutating the kernel.
        """
        with self._sched_lock:
            if self._serve:
                raise RuntimeEngineError("run() on a started scheduler: its callers drive")
            undriven = iter(
                [t for t in self.tasks.values() if t.wake is None and not t.finished]
            )

        def drive_each() -> None:
            while True:
                with self._sched_lock:
                    task = next(undriven, None)
                if task is None:
                    return
                self.drive(task)

        threads = [
            threading.Thread(target=drive_each, name=f"cc-worker-{i}", daemon=True)
            for i in range(self.n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.stall_timeout * 4)
        if any(thread.is_alive() for thread in threads):
            still = self.stop(max(1.0, self.stall_check * 20))
            detail = f"still driving {', '.join(still)}" if still else "all drained"
            message = f"a thread missed the join budget ({detail})"
        elif len(self._errors) > 1:
            message = f"{len(self._errors)} tasks failed concurrently"
        elif self._errors:
            raise self._errors[0]
        else:
            return
        failure = AggregateWorkerError(message, tuple(self._errors))
        if self._errors:
            failure.__cause__ = self._errors[0]
        raise failure

    # ------------------------------------------------------------------
    # Serve mode (long-running server front-end)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enter *serve* mode and return immediately.

        A batch run (:meth:`run`) treats any failure as "abort the run".
        A server does not: each caller drives its own task
        (:meth:`drive`), and a failed task is an ordinary per-request
        outcome (recorded on the task, reported through
        :attr:`on_task_done`, kept in a bounded diagnostic ring) rather
        than a run-wide abort.  Pair with :meth:`stop`.
        """
        with self._sched_lock:
            if self._serve:
                raise RuntimeEngineError("scheduler already started")
            if self._shutdown:
                raise RuntimeEngineError("scheduler already shut down")
            self._serve = True

    def stop(self, timeout: Optional[float] = None) -> list[str]:
        """Stop a served scheduler: set shutdown, wait for the callers,
        close what is left.

        Shutdown notifies the condition of every blocked task's driving
        thread, so blocked waits drain at once.  Returns the names of
        tasks a calling thread was still driving when the budget ran out
        (empty on a clean stop).  A coroutine a caller drives is never
        closed, because only that caller may step it.  A task spawned
        for a caller that has not started driving it yet is closed, so
        it leaks no pending-coroutine warning: :meth:`drive` then fails
        it without stepping it.
        """
        with self._sched_lock:
            self._shutdown = True
            self._wake_all()
        budget = timeout if timeout is not None else max(1.0, self.stall_check * 40)
        give_up = time.monotonic() + budget
        with self._sched_lock:
            while True:
                driven = [
                    t for t in self.tasks.values() if t.driver is not None and not t.finished
                ]
                left = give_up - time.monotonic()
                if not driven or left <= 0:
                    break
                self._drivers_done.wait(left)
            leftovers = [
                t for t in self.tasks.values() if t.driver is None and not t.finished
            ]
        for task in leftovers:
            try:
                task.coro.close()
            except BaseException:  # noqa: BLE001 - best-effort cleanup
                pass
        return [f"{task.name} (driven by {task.driver})" for task in driven]

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

    def _record_error(self, error: BaseException) -> None:
        """Append to the error list (caller holds the scheduler lock).

        In batch mode an error shuts the run down, so every blocked
        driver is woken to drain; in serve mode the list is a bounded
        diagnostic ring.
        """
        self._errors.append(error)
        if not self._serve:
            self._shutdown = True
            self._wake_all()
        elif len(self._errors) > self.max_kept_errors:
            del self._errors[: len(self._errors) - self.max_kept_errors]

    def _wake_all(self) -> None:
        """Notify every blocked task's driver (caller holds the scheduler
        lock): shutdown concerns them all."""
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

    def drive(self, task: Task) -> None:
        """Run a spawned task to its end on the calling thread (a served
        caller, or one of a batch :meth:`run`'s threads) through :meth:`_drive`.

        The thread waits on a condition of its own while the task is
        blocked, which a grant or an interrupt of this task notifies;
        the task finishes DONE or FAILED and fires :attr:`on_task_done`
        on this thread before ``drive`` returns.  After a shutdown the
        task fails with a drain error without being stepped.  On its way
        out the thread may hand the GIL over (:meth:`_end_turn`).
        """
        wake = getattr(self._local, "wake", None)
        if wake is None:
            wake = self._local.wake = threading.Condition(self._sched_lock)
        with self._sched_lock:
            if task.finished or task.wake is not None:
                raise RuntimeEngineError(f"task {task.name} already has a driver")
            refused = self._shutdown
            if refused:
                drain = RuntimeEngineError(f"runtime shut down before {task.name} ran")
                drain._secondary_drain = True
                task.state = Task.FAILED
                task.exception = drain
            else:
                task.wake = wake
                task.driver = threading.current_thread().name
                self._driving += 1
                if self._caller_counter is not None:
                    self._caller_counter.inc()
        if refused:
            task.coro.close()  # never stepped, so no thread can be running it
            self._notify_task_done(task)
            return
        try:
            self._drive(task)
        finally:
            with self._sched_lock:
                self._driving -= 1
                if self._shutdown:
                    self._drivers_done.notify_all()
        self._end_turn()

    def _end_turn(self) -> None:
        """At a caller's transaction end, hand the GIL to a thread that
        wants it once the turn is up (caller holds no lock).

        Another thread wants the GIL when a driver's task is neither
        parked on a signal nor running here — preempted mid-transaction,
        or just readied by a grant — or when a thread waits inside a
        hand-off.  The turn is the time since the GIL last changed hands
        between drivers on purpose; it is up after half the
        interpreter's switch interval, so a waiter gets the GIL at a
        transaction boundary before the interpreter would force a switch
        in the middle of one.  (Handing over at every transaction end
        made two clients strictly alternate, so that every request also
        waited for one of the other's.)

        ``os.sched_yield`` would give the GIL back to this thread at
        once, leaving the waiter to the switch interval; ``time.sleep(0)``
        keeps it released for a timer slack, long enough for the waiter
        to take it.  While this thread waits to run again it counts in
        ``_handoffs``, so the next driver whose turn is up hands the GIL
        back instead of keeping it until the interpreter forces a switch.
        A hand-off that nobody took (no driver stepped while this thread
        slept) leaves the turn expired, so the next transaction end tries
        again.
        """
        if not (self._driving > self._blocked or self._handoffs):
            return
        if time.monotonic() - self._turn_started < self._turn:
            return
        with self._sched_lock:
            self._handoffs += 1
            steps = self.steps
        self._turn_started = time.monotonic()  # the receiver's turn
        try:
            time.sleep(0)
        finally:
            with self._sched_lock:
                self._handoffs -= 1
            if self.steps != steps:
                self._turn_started = time.monotonic()  # this thread's turn
            else:
                # No driver stepped meanwhile (the waiter was not
                # scheduled within the timer slack): the turn stays up,
                # so the next transaction end tries again.
                self._turn_started -= self._turn

    def _drive(self, task: Task) -> None:
        """Run one coroutine to completion on the thread in :meth:`drive`.

        One thread owns the task for its whole life, so ``coro.send`` is
        single-threaded per task.  Steps take no step-level lock;
        awaitable dispatch runs under the scheduler lock (atomically with
        concurrent ``fire``/``interrupt``); Pause sleeps and yields
        happen outside every lock.
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
                        self._blocked += 1
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
                # Pause: outside every lock so other threads interleave.
                if self.time_scale > 0 and cost > 0:
                    time.sleep(cost * self.time_scale)
                elif self.pauses_interleave:
                    _yield_thread()
                value = None
        except BaseException as error:  # noqa: BLE001 - surfaced in run()
            with self._sched_lock:
                self._unblock(task)
                task.state = Task.FAILED
                task.exception = error
                # Drain errors (raised because the run is shutting down,
                # after another task failed or at stop) are secondary;
                # the error list keeps primary causes only.
                if not getattr(error, "_secondary_drain", False):
                    self._record_error(error)
            self._notify_task_done(task)

    def _await_signal(self, task: _DrivenTask, signal: Signal):
        """Block until the signal fires, an interrupt lands, or the
        stall backstop gives up.  Caller holds **no** locks.

        Returns ``(resume_value, pending_exception)``.  The driver waits
        on its own condition (``task.wake``), which only this task's
        ready or interrupt notifies — or shutdown, which a batch run's
        first failure sets.  No wake-up is lost: the task's state is
        tested under the scheduler lock and ``Condition.wait`` releases
        that lock atomically, so a ready either comes before the test or
        finds the driver waiting.  Every ``stall_check`` seconds of blocked
        time the kernel's stall hook gets the blocked task set — under
        wall clock there is no global "all tasks blocked" moment, so
        this poll is the backstop for a cycle formed while everyone was
        parked (the requester resolves the others at block time).  The
        hook runs with no scheduler lock held: it takes the kernel lock,
        and a thread holding the kernel lock takes the scheduler lock
        *after* it, so holding the scheduler lock here would deadlock.
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
        self._turn_started = time.monotonic()
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
    (``self.scheduler``) and a plain :class:`~repro.txn.locks.LockTable`
    (``self.locks``), which the kernel calls only under the scheduler's
    kernel lock, with the metrics registry armed for concurrent access.
    What it adds is the serve-mode lifecycle (:meth:`start` /
    :meth:`stop` / :meth:`reap`).  A served kernel keeps no trace
    (``self.trace`` is None): nothing reads a request's events, so none
    is recorded; a batch :meth:`run` keeps the full trace.

    ``lock_timeout`` and ``lock_timeout_fn`` budgets are in *wall-clock
    seconds* here.
    """

    def __init__(
        self,
        db,
        protocol=None,
        n_threads: int = 4,
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

        scheduler = WallClockScheduler(
            n_threads=n_threads, time_scale=time_scale, stall_timeout=stall_timeout
        )
        super().__init__(
            db,
            protocol=protocol,
            scheduler=scheduler,
            cost_model=cost_model,
            obs=obs,
            # No clock: the wall-clock registry has no hold/wait-time
            # histogram for the table's stamps to feed.
            lock_table_cls=lambda metrics, clock: LockTable(metrics=metrics),
            lock_timeout=lock_timeout,
            faults=faults,
            wal=wal,
            lock_timeout_fn=lock_timeout_fn,
        )

    # ------------------------------------------------------------------
    # Serve mode (long-running server front-end)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enter serve mode, where callers drive every transaction (see
        :meth:`WallClockScheduler.start`) and no trace is kept; pair
        with :meth:`stop`."""
        self.scheduler.start()
        self.trace = None

    def stop(self, timeout: Optional[float] = None) -> list[str]:
        """Stop serving; returns the names of tasks callers were still
        driving (see :meth:`WallClockScheduler.stop`)."""
        return self.scheduler.stop(timeout)

    def drive(self, name: str, program):
        """Run a top-level transaction to its end on the calling thread
        (:meth:`spawn`, then :meth:`WallClockScheduler.drive`).  Returns
        the handle."""
        handle = self.spawn(name, program)
        self.scheduler.drive(handle.task)
        return handle

    def reap(self, name: str):
        """Drop every trace of a finished transaction (server hygiene).

        Removes the scheduler task, the kernel handle with the tree its
        history is read from, and the transaction's undo entries: a
        served kernel keeps only what its in-flight transactions left,
        and no trace events at all.  It unlinks the tree (under the
        kernel lock) and drops its errors' tracebacks, so what the
        request allocated holds no reference cycle; the handle's
        ``committed``, ``result`` and ``error`` stay readable.
        Returns the reaped task, or None if the task is still running.
        """
        task = self.scheduler.reap(name)
        if task is None:
            return None
        with self.scheduler.coordination():
            handle = self.handles.pop(name, None)
            if handle is not None and handle.root is not None:
                for node in list(handle.root.descendants(include_self=True)):
                    self.undo.discard(node.node_id)
                    node.children.clear()
        for error in (task.exception, handle.error if handle is not None else None):
            # A traceback holds the frame that holds the handle that
            # holds the error.
            while error is not None and error.__traceback__ is not None:
                error.__traceback__ = None
                error = error.__cause__ or error.__context__
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
    for the threaded runtime: spawn every program, drive them on
    ``n_threads`` threads (:meth:`WallClockScheduler.run`), return the
    kernel.  ``n_stripes`` has no effect: the lock table is one
    table under the kernel lock; the argument stays so that callers
    passing it (the benchmark's L0 rung) need no change."""
    kernel = ThreadedKernel(
        db,
        protocol=protocol,
        n_threads=n_threads,
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
