"""Execution runtimes.

:mod:`repro.runtime.scheduler` provides the deterministic cooperative
scheduler (with an optional virtual clock for discrete-event simulation)
on which all kernel executions run;
:mod:`repro.runtime.threaded` is the real-concurrency engine — a
bounded worker pool over a striped :class:`ConcurrentLockTable` with
wall-clock timers — and :mod:`repro.runtime.differential` replays
seeded workloads through both runtimes and cross-checks the outcomes.
"""

from repro.runtime.scheduler import Pause, Scheduler, Signal, Task
from repro.runtime.threaded import (
    ConcurrentLockTable,
    ThreadedKernel,
    WallClockScheduler,
    run_threaded_transactions,
)

__all__ = [
    "Pause",
    "Scheduler",
    "Signal",
    "Task",
    "ConcurrentLockTable",
    "ThreadedKernel",
    "WallClockScheduler",
    "run_threaded_transactions",
]
