"""Tests for the wall-clock scheduler's concurrent stepping: error
aggregation, shutdown drain, interrupt races, timer tri-state, step
numbering, and runtime metrics.

These pin the three historical bugs — ``run()`` dropping all but
``_errors[0]``, fired timers masquerading as cancelled, and two workers
reporting the same step number — plus the spawn/interrupt/ready races
concurrent steps must keep closed.
"""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro.core.protocol import SemanticLockingProtocol
from repro.errors import AggregateWorkerError, RuntimeEngineError
from repro.obs.registry import MetricsRegistry
from repro.runtime.scheduler import Pause, Scheduler, Task
from repro.runtime.threaded import ThreadedKernel, WallClockScheduler

from tests.test_threaded_runtime import make_counter_db


class TestErrorAggregation:
    def test_single_error_raised_directly(self):
        sched = WallClockScheduler(n_threads=2)

        async def boom():
            raise ValueError("lone failure")

        sched.spawn("solo", boom())
        with pytest.raises(ValueError, match="lone failure"):
            sched.run()

    def test_concurrent_errors_all_surface(self):
        # Both tasks are mid-flight before either raises: each passes
        # the barrier only once the other's step is running.  run()
        # must surface BOTH errors, not just _errors[0].
        sched = WallClockScheduler(n_threads=2)
        barrier = threading.Barrier(2)

        def make_boom(tag):
            async def boom():
                barrier.wait(timeout=10.0)
                raise RuntimeError(f"boom-{tag}")

            return boom

        sched.spawn("boom-a", make_boom("a")())
        sched.spawn("boom-b", make_boom("b")())
        with pytest.raises(AggregateWorkerError) as excinfo:
            sched.run()
        assert len(excinfo.value.errors) == 2
        assert excinfo.value.__cause__ is excinfo.value.errors[0]
        messages = sorted(str(e) for e in excinfo.value.errors)
        assert messages == ["boom-a", "boom-b"]

    def test_blocked_task_drains_when_peer_fails(self):
        # A task parked on a never-fired signal must not wedge run()
        # after another worker fails: the waiter drains, and its
        # secondary drain error is NOT added to the aggregate.
        sched = WallClockScheduler(n_threads=2, stall_timeout=5.0)
        signal = sched.create_signal("never")

        async def waiter():
            await signal

        async def boom():
            time.sleep(0.1)  # let the waiter park first
            raise RuntimeError("primary failure")

        sched.spawn("waiter", waiter())
        sched.spawn("boom", boom())
        with pytest.raises(RuntimeError, match="primary failure"):
            sched.run()

    def test_a_failed_run_fails_the_tasks_it_never_ran(self):
        # One thread, so the three tasks behind the failing one are not
        # yet driven when it fails.  The failure shuts the run down: each
        # of them fails with a secondary drain error, unstepped, and its
        # coroutine is closed (no "never awaited" warning at GC).
        sched = WallClockScheduler(n_threads=1)
        stepped = []

        async def boom():
            raise ValueError("first failure")

        async def later(i):
            stepped.append(i)

        sched.spawn("boom", boom())
        later_tasks = [sched.spawn(f"later-{i}", later(i)) for i in range(3)]
        with pytest.raises(ValueError, match="first failure"):
            sched.run()
        assert sched.all_finished and stepped == []
        for task in later_tasks:
            assert task.state == Task.FAILED
            assert isinstance(task.exception, RuntimeEngineError)
            assert task.exception._secondary_drain
            assert inspect.getcoroutinestate(task.coro) == inspect.CORO_CLOSED


class TestInterruptRaces:
    def test_interrupt_pending_task_not_dropped(self):
        # Interrupt delivered before run(): the task is still PENDING and
        # no thread has driven it yet.  It must be driven exactly once and
        # raise.
        sched = WallClockScheduler(n_threads=2)
        steps = []

        async def victim():
            steps.append("stepped")

        task = sched.spawn("victim", victim())
        sched.interrupt(task, RuntimeEngineError("interrupted while pending"))
        with pytest.raises(RuntimeEngineError, match="interrupted while pending"):
            sched.run()
        assert steps == []  # exception thrown in before the first step
        assert task.state == Task.FAILED

    def test_interrupt_blocked_task_wakes_it(self):
        sched = WallClockScheduler(n_threads=2, stall_timeout=5.0)
        signal = sched.create_signal("never")

        async def waiter():
            await signal

        task = sched.spawn("waiter", waiter())
        timer = threading.Timer(
            0.2, lambda: sched.interrupt(task, RuntimeEngineError("victimised"))
        )
        timer.daemon = True
        timer.start()
        with pytest.raises(RuntimeEngineError, match="victimised"):
            sched.run()

    def test_interrupt_finished_task_is_noop(self):
        sched = WallClockScheduler(n_threads=1)

        async def quick():
            return 42

        task = sched.spawn("quick", quick())
        sched.run()
        sched.interrupt(task, RuntimeEngineError("too late"))
        assert task.state == Task.DONE
        assert task.result == 42


class TestTimerTriState:
    def test_wall_timer_fired_is_not_cancelled(self):
        sched = WallClockScheduler(n_threads=1)
        fired = threading.Event()
        handle = sched.call_later(0.05, fired.set)
        assert fired.wait(timeout=2.0)
        time.sleep(0.01)  # let fire() finish flipping the state
        assert handle.fired
        assert not handle.cancelled

    def test_wall_timer_cancel_after_fire_is_noop(self):
        sched = WallClockScheduler(n_threads=1)
        fired = threading.Event()
        handle = sched.call_later(0.05, fired.set)
        assert fired.wait(timeout=2.0)
        time.sleep(0.01)
        handle.cancel()
        assert handle.fired
        assert not handle.cancelled  # cancel() after firing must not lie

    def test_wall_timer_cancel_before_deadline(self):
        sched = WallClockScheduler(n_threads=1)
        handle = sched.call_later(30.0, lambda: None)
        handle.cancel()
        assert handle.cancelled
        assert not handle.fired

    def test_virtual_timer_fired_is_not_cancelled(self):
        sched = Scheduler()
        fired = []
        handle = sched.call_later(5.0, lambda: fired.append(True))

        async def idle():
            return None

        sched.spawn("idle", idle())
        sched.run()
        assert fired == [True]
        assert handle.fired
        assert not handle.cancelled
        handle.cancel()  # must stay a no-op after firing
        assert not handle.cancelled

    def test_virtual_timer_cancel_before_deadline(self):
        sched = Scheduler()
        fired = []
        handle = sched.call_later(5.0, lambda: fired.append(True))
        handle.cancel()

        async def idle():
            return None

        sched.spawn("idle", idle())
        sched.run()
        assert fired == []
        assert handle.cancelled
        assert not handle.fired


class TestStepNumbers:
    def test_each_step_number_reported_once(self):
        # Regression: the number handed to on_step and the increment
        # were two holds, so two workers could report the same number
        # and skip the next one.
        sched = WallClockScheduler(n_threads=4)
        seen = []

        def on_step(step):
            time.sleep(0)  # yield the GIL inside the old race window
            seen.append(step)

        sched.on_step = on_step

        async def stepper():
            for __ in range(50):
                await Pause(0)

        for i in range(8):
            sched.spawn(f"s{i}", stepper())
        sched.run()
        assert sorted(seen) == list(range(sched.steps))


class TestRuntimeMetrics:
    def test_counters_populated(self):
        db, counters = make_counter_db(2)
        registry = MetricsRegistry(thread_safe=True)
        kernel = ThreadedKernel(
            db, protocol=SemanticLockingProtocol(), n_threads=4, obs=registry,
        )

        def make_program(counter):
            async def program(tx):
                await tx.call(counter, "Add", 1)

            return program

        for i in range(8):
            kernel.spawn(f"T{i}", make_program(counters[i % 2]))
        kernel.run()
        snap = registry.snapshot()
        assert snap.counter("thread.steps") == kernel.scheduler.steps > 0
        assert snap.counter("thread.spawned") == 8
        assert "shard.coordinations" not in snap.counters
