"""Execution runtimes.

This package exports the scheduler primitives only
(:mod:`repro.runtime.scheduler`: the deterministic cooperative
scheduler with an optional virtual clock), which is all
:mod:`repro.core.kernel` needs from it.  The real-concurrency engine is
:mod:`repro.runtime.threaded` (``ThreadedKernel``, a kernel subclass,
so it imports the kernel and is imported by name, not from here);
:mod:`repro.runtime.differential` cross-checks the two runtimes.
"""

from repro.runtime.scheduler import Pause, Scheduler, Signal, Task

__all__ = ["Pause", "Scheduler", "Signal", "Task"]
