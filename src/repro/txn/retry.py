"""Bounded retry with exponential backoff for restarted subtransactions.

Subtransaction restart (the multilevel-transaction remedy for deadlock
and timeout victims) retries the rolled-back action immediately in the
seed kernel; under a hot spot that can livelock or waste the conflicting
transaction's window.  A :class:`RetryPolicy` bounds the number of
restarts a single action may suffer and spaces the retries out in
*virtual* time with exponential backoff, so the discrete-event
performance study charges retries realistically.

The policy is the kernel's only restart-budget setting.  The default
(25 restarts, no backoff) reproduces the seed kernel's behaviour
exactly, so runs without explicit configuration are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError

#: The historical livelock guard: FCFS queueing makes repeated deadlocks
#: with the *same* partner impossible, so the cap only needs to exceed
#: the plausible number of distinct hot-spot partners.
DEFAULT_MAX_RESTARTS = 25


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how eagerly a restarted subtransaction retries.

    Attributes:
        max_restarts: Restart budget per transaction (deadlock/timeout
            victims) and per action (injected restarts); once exceeded
            the kernel escalates to a top-level abort
            (:class:`~repro.errors.RetryExhausted`).
        initial_backoff: Virtual-time delay before the first retry.
            0.0 (the default) disables backoff entirely: retries pause
            only for the action's cost-model charge, the historical
            behaviour.
        backoff_factor: Multiplier applied per successive restart of the
            same action (exponential backoff).
        max_backoff: Upper bound on a single backoff delay.
    """

    max_restarts: int = DEFAULT_MAX_RESTARTS
    initial_backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 1000.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise WorkloadError("max_restarts must be >= 0")
        if self.initial_backoff < 0 or self.max_backoff < 0:
            raise WorkloadError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise WorkloadError("backoff_factor must be >= 1.0 (delays must not shrink)")

    def backoff_for(self, attempt: int) -> float:
        """Extra virtual-time delay before retry *attempt* (1-based).

        Pure exponential: ``initial_backoff * factor**(attempt-1)``,
        capped at ``max_backoff``; 0.0 while backoff is disabled.
        """
        if self.initial_backoff <= 0 or attempt <= 0:
            return 0.0
        return min(self.initial_backoff * self.backoff_factor ** (attempt - 1), self.max_backoff)

    def delay_for(self, attempt: int, base_cost: float) -> float:
        """The full pre-retry pause: the action's cost-model charge
        (letting the conflicting transaction run, as before) plus any
        backoff.  Equals *base_cost* exactly while backoff is disabled,
        preserving bit-identical schedules for unconfigured runs."""
        return base_cost + self.backoff_for(attempt)

    def exhausted(self, attempts: int) -> bool:
        """True once *attempts* restarts have used up the budget."""
        return attempts >= self.max_restarts
