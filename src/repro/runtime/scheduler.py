"""Deterministic cooperative scheduler with a virtual clock.

Transactions and method bodies are plain ``async`` coroutines whose only
suspension points are the awaitables defined here:

* :class:`Signal` — a one-shot event (lock grant, subtransaction
  completion).  Awaiting an unfired signal blocks the task; firing it
  readies all waiters.
* :class:`Pause` — a scheduling point with an optional virtual-time
  cost.  Cost zero is a pure interleaving opportunity; nonzero costs
  drive the discrete-event performance simulation.

The scheduler advances one task at a time, so every interleaving is a
deterministic function of (task set, policy, seed).  Policies:

* ``"fifo"`` — round-robin in ready order (default);
* ``"random"`` — seeded uniform choice among ready tasks, used by the
  property tests to sweep interleavings;
* ``"scripted"`` — an explicit task-name sequence, used to reproduce the
  paper's figures step by step.

When every runnable task is blocked the scheduler calls its ``on_stall``
hook (the kernel resolves deadlocks there) and fails loudly if the hook
cannot make progress.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Coroutine, Iterable, Optional, Protocol

from repro.errors import RuntimeEngineError


class Signal:
    """A one-shot awaitable event."""

    __slots__ = ("name", "done", "value", "_waiters", "_scheduler")

    def __init__(self, scheduler: "Scheduler", name: str = "") -> None:
        self._scheduler = scheduler
        self.name = name
        self.done = False
        self.value: Any = None
        self._waiters: list[Task] = []

    def fire(self, value: Any = None) -> None:
        """Mark the signal done and ready every waiting task."""
        if self.done:
            return
        self.done = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._scheduler._ready_task(task, resume_value=value)

    def add_waiter(self, task: "Task") -> None:
        self._waiters.append(task)

    def remove_waiter(self, task: "Task") -> None:
        if task in self._waiters:
            self._waiters.remove(task)

    def __await__(self):
        if not self.done:
            yield self
        return self.value

    def __repr__(self) -> str:
        state = "done" if self.done else f"waiting({len(self._waiters)})"
        return f"<Signal {self.name!r} {state}>"


class Pause:
    """A scheduling point, optionally consuming virtual time."""

    __slots__ = ("cost",)

    def __init__(self, cost: float = 0.0) -> None:
        self.cost = cost

    def __await__(self):
        yield self
        return None

    def __repr__(self) -> str:
        return f"<Pause cost={self.cost}>"


class TimerHandle:
    """A cancellable virtual-time callback (see :meth:`Scheduler.call_at`).

    Timers share the scheduler's timed heap with cost-pausing tasks:
    they fire only when no task is ready — i.e. when the virtual clock
    is allowed to advance — which is exactly the discrete-event rule.
    The lock-wait timeout policy and injected lock-wait faults are built
    on these.
    """

    __slots__ = ("deadline", "callback", "cancelled", "fired")

    def __init__(self, deadline: float, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self.callback = callback
        # Tri-state lifecycle: armed -> fired XOR cancelled.  ``fired``
        # and ``cancelled`` are distinct so timeout bookkeeping can tell
        # a timer that ran its callback from one the user deactivated
        # (historically a fired timer was marked ``cancelled = True``).
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Deactivate the timer (firing a cancelled timer is a no-op).

        Cancelling after the timer already fired is a no-op too — the
        handle keeps reporting ``fired`` rather than flipping to
        ``cancelled``.
        """
        if not self.fired:
            self.cancelled = True

    def __repr__(self) -> str:
        if self.fired:
            state = "fired"
        elif self.cancelled:
            state = "cancelled"
        else:
            state = f"at {self.deadline}"
        return f"<Timer {state}>"


class Task:
    """A spawned coroutine with its scheduling state."""

    PENDING = "pending"
    READY = "ready"
    BLOCKED = "blocked"
    TIMED = "timed"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, name: str, coro: Coroutine[Any, Any, Any]) -> None:
        self.name = name
        self.coro = coro
        self.state = Task.PENDING
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.resume_value: Any = None
        self.pending_exception: Optional[BaseException] = None
        self.blocked_on: Optional[Signal] = None

    @property
    def finished(self) -> bool:
        return self.state in (Task.DONE, Task.FAILED)

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state}>"


class SchedulerAPI(Protocol):
    """The scheduler seam: everything the kernel asks of its runtime.

    :class:`Scheduler` (virtual time, one step at a time) and the
    threaded runtime's ``WallClockScheduler`` (real threads) both provide
    exactly this surface; the kernel probes for nothing beyond it.
    """

    clock: float
    on_stall: Optional[Callable[[list[Task]], bool]]
    on_step: Optional[Callable[[int], None]]
    #: Whether a zero-cost :class:`Pause` can let another task run.
    #: Where it cannot, the kernel awaits one only when its step number
    #: (``on_step``) or the task's pending interrupt needs the await.
    pauses_interleave: bool

    def bind_metrics(self, registry) -> None: ...

    def spawn(self, name: str, coro: Coroutine[Any, Any, Any]) -> Task: ...

    def run(self) -> Any: ...

    def create_signal(self, name: str = "") -> Signal: ...

    def call_later(self, delay: float, callback: Callable[[], None]) -> Any: ...

    def interrupt(self, task: Task, exc: BaseException) -> None: ...

    def coordination(self) -> ContextManager: ...


# Steps never overlap under virtual time: coordination is free.
_NO_COORDINATION = nullcontext()


class Scheduler:
    """Drives tasks deterministically; see module docstring."""

    #: Every Pause is a point where the policy picks the next task.
    pauses_interleave = True

    def __init__(
        self,
        policy: str = "fifo",
        seed: Optional[int] = None,
        script: Optional[Iterable[str]] = None,
    ) -> None:
        if policy not in ("fifo", "random", "scripted"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        if policy == "scripted" and script is None:
            raise ValueError("scripted policy requires a script")
        self.policy = policy
        self._rng = random.Random(seed)
        self._script: deque[str] = deque(script or ())
        self.tasks: dict[str, Task] = {}
        self._ready: deque[Task] = deque()
        self._timed: list[tuple[float, int, Task]] = []
        self._timed_seq = 0
        self.clock: float = 0.0
        self.steps = 0
        # Hook: called when all tasks are blocked.  Must return True if it
        # unblocked something (e.g. resolved a deadlock), False otherwise.
        self.on_stall: Optional[Callable[[list[Task]], bool]] = None
        # Hook: called with the cumulative step index just before each
        # coroutine step executes.  The fault plane raises CrashPoint
        # here to kill the run at an exact step; None means zero cost.
        self.on_step: Optional[Callable[[int], None]] = None
        self._switch_counter = None
        self._stall_counter = None
        self._ready_gauge = None

    def bind_metrics(self, registry) -> None:
        """Attach a :class:`~repro.obs.MetricsRegistry`.

        Exposes ``sched.task_switches`` (one per coroutine step),
        ``sched.stalls`` (all-blocked events handed to the stall hook),
        and the ``sched.ready_queue`` length gauge.
        """
        self._switch_counter = registry.counter("sched.task_switches")
        self._stall_counter = registry.counter("sched.stalls")
        self._ready_gauge = registry.gauge("sched.ready_queue")

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, name: str, coro: Coroutine[Any, Any, Any]) -> Task:
        """Register a coroutine as a runnable task."""
        if name in self.tasks:
            raise RuntimeEngineError(f"task name {name!r} already in use")
        task = Task(name, coro)
        self.tasks[name] = task
        self._ready_task(task)
        return task

    def create_signal(self, name: str = "") -> Signal:
        return Signal(self, name)

    # ------------------------------------------------------------------
    # Virtual-time timers
    # ------------------------------------------------------------------
    def call_at(self, deadline: float, callback: Callable[[], None]) -> TimerHandle:
        """Run *callback* once the virtual clock reaches *deadline*.

        Discrete-event semantics: the callback fires only when no task
        is ready (the clock never advances past runnable work), at which
        point the clock jumps to the deadline.  Returns a handle whose
        :meth:`~TimerHandle.cancel` deactivates the timer.
        """
        handle = TimerHandle(deadline, callback)
        self._timed_seq += 1
        heapq.heappush(self._timed, (deadline, self._timed_seq, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Like :meth:`call_at`, relative to the current clock."""
        return self.call_at(self.clock + delay, callback)

    def _ready_task(self, task: Task, resume_value: Any = None) -> None:
        if task.finished:
            return
        task.resume_value = resume_value
        task.state = Task.READY
        task.blocked_on = None
        self._ready.append(task)
        self._ready_changed()

    def _ready_changed(self) -> None:
        """Keep the ``sched.ready_queue`` gauge on every transition.

        Called whenever the ready deque grows or shrinks, so the gauge
        tracks block/ready transitions and reads 0 once the last task
        finishes (the high-water mark still captures peak readiness,
        counting the running task at step time).
        """
        if self._ready_gauge is not None:
            self._ready_gauge.set(len(self._ready))

    def coordination(self) -> ContextManager:
        """Context manager serialising the kernel's multi-structure
        phases (commit, abort, re-evaluation, deadlock resolution)."""
        return _NO_COORDINATION

    def interrupt(self, task: Task, exc: BaseException) -> None:
        """Inject an exception into a (possibly blocked) task.

        The task resumes by raising *exc* at its current await point —
        this is how a blocked deadlock victim learns it was aborted.
        """
        if task.finished:
            return
        if task.blocked_on is not None:
            task.blocked_on.remove_waiter(task)
            task.blocked_on = None
        task.pending_exception = exc
        if task.state != Task.READY:
            task.state = Task.READY
            self._ready.append(task)
            self._ready_changed()
        else:
            # Already queued; the pending exception will be thrown when
            # the task is next stepped.
            pass

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _pick_ready(self) -> Task:
        if self.policy == "fifo":
            return self._ready.popleft()
        if self.policy == "random":
            index = self._rng.randrange(len(self._ready))
            self._ready.rotate(-index)
            task = self._ready.popleft()
            self._ready.rotate(index)
            return task
        # scripted: follow the script while it names ready tasks, then fifo
        while self._script:
            wanted = self._script[0]
            candidate = next((t for t in self._ready if t.name == wanted), None)
            if candidate is None:
                # The scripted task is not ready (blocked or finished):
                # fall through to FIFO without consuming the entry if the
                # task exists and may become ready; drop unknown names.
                if wanted not in self.tasks or self.tasks[wanted].finished:
                    self._script.popleft()
                    continue
                break
            self._script.popleft()
            self._ready.remove(candidate)
            return candidate
        return self._ready.popleft()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> bool:
        """Run until every task finished (or raise on unresolvable stall).

        *max_steps* bounds the number of coroutine steps executed by
        this call — the crash-simulation hook: stopping mid-run leaves
        tasks suspended exactly as a process crash would.  Returns True
        if everything finished, False if the step budget ran out.
        """
        executed = 0
        while True:
            if max_steps is not None and executed >= max_steps:
                return False
            if not self._ready and self._timed:
                time, __, entry = heapq.heappop(self._timed)
                if isinstance(entry, TimerHandle):
                    if entry.cancelled or entry.fired:
                        continue
                    self.clock = max(self.clock, time)
                    entry.fired = True  # one-shot, but distinct from cancelled
                    entry.callback()
                    continue
                if entry.state != Task.TIMED:
                    continue  # was interrupted while sleeping
                self.clock = max(self.clock, time)
                entry.state = Task.READY
                self._ready.append(entry)
                self._ready_changed()
            if not self._ready:
                blocked = [t for t in self.tasks.values() if t.state == Task.BLOCKED]
                if not blocked:
                    break  # all done
                if self._stall_counter is not None:
                    self._stall_counter.inc()
                if self.on_stall is not None and self.on_stall(blocked):
                    continue
                names = ", ".join(t.name for t in blocked)
                raise RuntimeEngineError(
                    f"all tasks blocked and stall hook made no progress: {names}"
                )
            task = self._pick_ready()
            self._ready_changed()
            if task.state != Task.READY:
                continue  # stale queue entry (task finished or re-blocked)
            if self.on_step is not None:
                # The fault plane crashes exact steps here; raising
                # CrashPoint leaves the picked task (and every other)
                # suspended, which is precisely the crash semantics.
                self.on_step(self.steps)
            self._step(task)
            self._ready_changed()
            executed += 1
        return True

    def _step(self, task: Task) -> None:
        self.steps += 1
        if self._switch_counter is not None:
            self._switch_counter.inc()
            self._ready_gauge.set(len(self._ready) + 1)  # +1: the running task
        task.state = Task.READY  # running; reset below on suspension
        exc = task.pending_exception
        value = task.resume_value
        task.pending_exception = None
        task.resume_value = None
        try:
            if exc is not None:
                yielded = task.coro.throw(exc)
            else:
                yielded = task.coro.send(value)
        except StopIteration as stop:
            task.state = Task.DONE
            task.result = stop.value
            return
        except BaseException as error:
            task.state = Task.FAILED
            task.exception = error
            raise
        self._dispatch(task, yielded)

    def _dispatch(self, task: Task, yielded: Any) -> None:
        if isinstance(yielded, Signal):
            if yielded.done:
                self._ready_task(task, resume_value=yielded.value)
            else:
                task.state = Task.BLOCKED
                task.blocked_on = yielded
                yielded.add_waiter(task)
            return
        if isinstance(yielded, Pause):
            if yielded.cost > 0:
                self._timed_seq += 1
                task.state = Task.TIMED
                heapq.heappush(
                    self._timed, (self.clock + yielded.cost, self._timed_seq, task)
                )
            else:
                self._ready_task(task)
            return
        raise RuntimeEngineError(
            f"task {task.name!r} awaited an unsupported object: {yielded!r}"
        )

    def shutdown(self) -> None:
        """Close every unfinished coroutine (simulated process death).

        After a bounded ``run(max_steps=...)`` "crash", abandoned
        coroutines would otherwise warn at garbage collection time.
        """
        for task in self.tasks.values():
            if not task.finished:
                task.coro.close()
                task.state = Task.FAILED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def blocked_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.state == Task.BLOCKED]

    @property
    def all_finished(self) -> bool:
        return all(t.finished for t in self.tasks.values())
