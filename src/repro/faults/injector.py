"""Runtime interpreter for a :class:`~repro.faults.plan.FaultPlan`.

The kernel owns exactly one :class:`FaultInjector` per run (or none —
every hook in the hot path is guarded by ``if self.faults is not None``,
keeping the fault plane zero-cost when off).  The injector holds all the
mutable state a plan needs at run time: per-spec visit and fire counts,
the single seeded RNG behind probabilistic specs, and the ``fault.*``
metrics.  Visits happen in deterministic kernel order and specs are
consulted in plan order, so RNG draws — and therefore every injection —
replay exactly for a given (plan, workload, scheduler seed) triple.
"""

from __future__ import annotations

import random
from typing import Optional, TYPE_CHECKING

from repro.errors import CrashPoint, SubtransactionRestart, TransactionAborted
from repro.faults.plan import FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.txn.transaction import TransactionNode


class FaultInjector:
    """Decides, deterministically, whether a visited site fires a fault."""

    def __init__(self, plan: FaultPlan, registry: Optional["MetricsRegistry"] = None) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._visits = [0] * len(plan.specs)
        self._fires = [0] * len(plan.specs)
        self._registry: Optional["MetricsRegistry"] = None
        if registry is not None:
            self.bind_metrics(registry)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._injected = registry.counter("fault.injected")
        self._crashes = registry.counter("fault.crashes")
        self._aborts = registry.counter("fault.aborts")
        self._restarts = registry.counter("fault.restarts")
        self._delays = registry.counter("fault.delays")
        self._timeouts = registry.counter("fault.timeouts")

    @property
    def wants_step_hook(self) -> bool:
        """Whether the scheduler's ``on_step`` hook needs to be installed."""
        return bool(self.plan.step_specs)

    # ------------------------------------------------------------------
    # Introspection (torture reports, tests)
    # ------------------------------------------------------------------
    @property
    def total_fires(self) -> int:
        return sum(self._fires)

    def fires_of(self, spec: FaultSpec) -> int:
        return self._fires[self.plan.specs.index(spec)]

    # ------------------------------------------------------------------
    # Firing decisions
    # ------------------------------------------------------------------
    def _should_fire(self, index: int, spec: FaultSpec) -> bool:
        """One visit of *spec*; visit/fire bookkeeping plus the RNG draw.

        The RNG is consulted only for probabilistic specs, and only on
        matching visits, so adding an ``at_visit`` spec to a plan never
        shifts the draws of another spec.
        """
        self._visits[index] += 1
        if spec.max_fires and self._fires[index] >= spec.max_fires:
            return False
        if spec.at_visit is not None:
            fire = self._visits[index] == spec.at_visit
        elif spec.probability >= 1.0:
            fire = True
        else:
            fire = self._rng.random() < spec.probability
        if fire:
            self._fires[index] += 1
            if self._registry is not None:
                self._injected.inc()
        return fire

    def on_step(self, step: int) -> None:
        """Scheduler hook: crash the run just before step *step* executes."""
        for index, spec in enumerate(self.plan.specs):
            if spec.site != "step" or step != spec.at_step:
                continue
            if self._should_fire(index, spec):
                if self._registry is not None:
                    self._crashes.inc()
                raise CrashPoint("step", f"step {step}")

    def fire(
        self,
        site: str,
        node: Optional["TransactionNode"] = None,
        txn: Optional[str] = None,
        operation: Optional[str] = None,
    ) -> float:
        """Visit *site*; raise the injected fault or return an added delay.

        Crash/abort/restart actions raise (:class:`CrashPoint`,
        :class:`TransactionAborted`, :class:`SubtransactionRestart`);
        ``delay`` actions accumulate and the total extra virtual time is
        returned (0.0 when nothing fired).
        """
        if txn is None and node is not None:
            txn = node.top_level_name
        if operation is None and node is not None:
            operation = node.invocation.operation
        delay = 0.0
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site or spec.action == "timeout":
                continue
            if not spec.matches(txn, operation):
                continue
            if not self._should_fire(index, spec):
                continue
            if spec.action == "crash":
                if self._registry is not None:
                    self._crashes.inc()
                raise CrashPoint(site, f"txn={txn} op={operation}")
            if spec.action == "abort":
                if self._registry is not None:
                    self._aborts.inc()
                raise TransactionAborted(txn or "?", f"fault injected at {site}")
            if spec.action == "restart":
                if self._registry is not None:
                    self._restarts.inc()
                raise SubtransactionRestart(self._restart_scope(node, spec.scope))
            # delay
            if self._registry is not None:
                self._delays.inc()
            delay += spec.delay
        return delay

    def lock_wait_timeout(self, node: "TransactionNode") -> Optional[float]:
        """Injected timeout budget for a blocking lock wait, if any."""
        timeout: Optional[float] = None
        for index, spec in enumerate(self.plan.specs):
            if spec.site != "lock-wait" or spec.action != "timeout":
                continue
            if not spec.matches(node.top_level_name, node.invocation.operation):
                continue
            if not self._should_fire(index, spec):
                continue
            if self._registry is not None:
                self._timeouts.inc()
            timeout = spec.delay if timeout is None else min(timeout, spec.delay)
        return timeout

    @staticmethod
    def _restart_scope(node: "TransactionNode", scope: str) -> "TransactionNode":
        if scope == "self" or node.parent is None:
            return node
        if scope == "parent":
            return node.parent
        return node.root()
