"""Deterministic fault plans: what to inject, where, and when.

A :class:`FaultPlan` is pure configuration — a seed plus a list of
:class:`FaultSpec` site filters — and is interpreted at run time by a
:class:`~repro.faults.injector.FaultInjector` threaded through the
kernel, scheduler, lock table, and WAL.  Everything is a deterministic
function of (plan, workload, scheduler seed): the same plan against the
same run injects the same faults at the same points, so every torture
failure is replayable from its seed.

Injection sites (where the kernel consults the plan):

``step``
    Before scheduler step *k* executes (``at_step``); the only action is
    ``crash``.  Equivalent to the old ``max_steps`` truncation, but
    driven by the fault plane so one mechanism covers all crash points.
``pre-acquire``
    In :meth:`~repro.core.kernel.TransactionManager.invoke`, after the
    action's scheduling point and before its lock acquisition.  Actions:
    ``crash``, ``abort``, ``restart``, ``delay``.
``post-subcommit``
    In ``_complete_node``, after a subtransaction's WAL commit record is
    appended and **before** its locks are converted/released — the
    paper-era recovery window the torture harness must reach.  Actions:
    ``crash``, ``abort``.
``pre-compensate``
    In the undo pass, immediately before a committed subtransaction's
    inverse is invoked.  Actions: ``crash``, ``delay`` (aborting or
    restarting a compensation would violate the protocol's
    "compensations run to completion" rule, so those are rejected at
    plan-validation time).
``wal-append``
    Immediately after a WAL record reaches the log — a crash here is
    durable-after, so sweeping ``at_visit`` over all appends crashes the
    run between every pair of adjacent log records.  Action: ``crash``.
``lock-wait``
    When a lock request blocks.  Action: ``timeout`` — arm a
    virtual-time timer of ``delay`` that resolves the wait through the
    victim/restart machinery, whether or not a ``lock_timeout`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SITES = ("step", "pre-acquire", "post-subcommit", "pre-compensate", "wal-append", "lock-wait")

#: action -> sites where it is meaningful (and safe) to inject it.
ACTION_SITES = {
    "crash": ("step", "pre-acquire", "post-subcommit", "pre-compensate", "wal-append"),
    "abort": ("pre-acquire", "post-subcommit"),
    "restart": ("pre-acquire",),
    "delay": ("pre-acquire", "pre-compensate"),
    "timeout": ("lock-wait",),
}

RESTART_SCOPES = ("self", "parent", "root")


class FaultPlanError(ValueError):
    """A fault plan names an unknown site/action or an invalid combination."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: fire *action* at *site* on matching visits.

    Attributes:
        site: One of :data:`SITES`.
        action: One of the keys of :data:`ACTION_SITES`.
        txn: Only fire for this top-level transaction (None: any).
        operation: Only fire when the action's invocation operation (or,
            at ``wal-append``, the record kind — ``Update``,
            ``SubtxnCommit``, ``TxnStatus``) matches (None: any).
        at_visit: Fire on exactly the Nth matching visit (1-based).
            When None, every matching visit draws a seeded coin with
            ``probability``.
        at_step: For ``site="step"`` only — the 0-based cumulative
            scheduler step to crash at.
        probability: Seeded per-visit fire probability (used only when
            ``at_visit`` is None).
        delay: Virtual-time length for ``delay``/``timeout`` actions.
        scope: For ``restart`` — which enclosing subtransaction the
            restart targets: ``"self"`` (the action being injected, the
            normal retry loop), ``"parent"``, or ``"root"`` (escapes
            every handler; exercises the kernel's unhandled-restart
            escalation).
        max_fires: Stop injecting after this many fires (0: unlimited).
    """

    site: str
    action: str
    txn: Optional[str] = None
    operation: Optional[str] = None
    at_visit: Optional[int] = None
    at_step: Optional[int] = None
    probability: float = 1.0
    delay: float = 0.0
    scope: str = "self"
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(f"unknown fault site {self.site!r} (know {SITES})")
        if self.action not in ACTION_SITES:
            raise FaultPlanError(f"unknown fault action {self.action!r}")
        if self.site not in ACTION_SITES[self.action]:
            raise FaultPlanError(
                f"action {self.action!r} cannot be injected at site {self.site!r} "
                f"(valid sites: {ACTION_SITES[self.action]})"
            )
        if self.site == "step" and self.at_step is None:
            raise FaultPlanError("step faults need at_step (the step index to crash at)")
        if self.site != "step" and self.at_step is not None:
            raise FaultPlanError("at_step is only meaningful for site='step'")
        if self.action in ("delay", "timeout") and self.delay <= 0:
            raise FaultPlanError(f"{self.action!r} faults need a positive delay")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("probability must be within [0, 1]")
        if self.at_visit is not None and self.at_visit < 1:
            raise FaultPlanError("at_visit is 1-based")
        if self.scope not in RESTART_SCOPES:
            raise FaultPlanError(f"unknown restart scope {self.scope!r}")
        if self.max_fires < 0:
            raise FaultPlanError("max_fires must be >= 0 (0 means unlimited)")

    def matches(self, txn: Optional[str], operation: Optional[str]) -> bool:
        """Filter check (site already matched by the caller)."""
        if self.txn is not None and txn != self.txn:
            return False
        if self.operation is not None and operation != self.operation:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of :class:`FaultSpec` rules.

    The seed drives every probabilistic decision (one RNG for the whole
    plan, drawn in deterministic visit order), so a plan replays
    identically against an identical run.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # ------------------------------------------------------------------
    # Common plans
    # ------------------------------------------------------------------
    @classmethod
    def crash_at_step(cls, step: int, seed: int = 0) -> "FaultPlan":
        """Kill the run just before cumulative scheduler step *step*."""
        return cls(specs=(FaultSpec(site="step", action="crash", at_step=step),), seed=seed)

    @classmethod
    def crash_at_wal_record(cls, n: int, seed: int = 0) -> "FaultPlan":
        """Kill the run right after the *n*-th WAL append (1-based).

        The record itself is durable; nothing after it is — sweeping *n*
        over the reference run's log length crashes between every pair
        of adjacent records, including the window between a
        subtransaction's commit record and its lock conversion.
        """
        return cls(specs=(FaultSpec(site="wal-append", action="crash", at_visit=n),), seed=seed)

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        return FaultPlan(specs=self.specs + (spec,), seed=self.seed)

    @property
    def step_specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.site == "step")

    @property
    def site_specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.site != "step")
