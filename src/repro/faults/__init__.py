"""Deterministic fault injection and crash-torture for the kernel.

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the pure-configuration description of what to inject where.
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the runtime
  interpreter the kernel consults at its injection sites.
- :mod:`repro.faults.torture` — the crash-torture harness (report, sweep
  loop, replay oracle, in-process sweep); :mod:`~repro.faults.durable` and
  :mod:`~repro.faults.cluster` are its SIGKILL and shard-kill point-runners.
"""

from repro.faults.plan import FaultPlan, FaultPlanError, FaultSpec
from repro.faults.injector import FaultInjector

__all__ = ["FaultPlan", "FaultPlanError", "FaultSpec", "FaultInjector"]
