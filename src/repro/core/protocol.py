"""The paper's semantic locking protocol (Fig. 8) as a CCProtocol.

Every action acquires one semantic lock: its own invocation on its
target object.  Nothing is released when a subtransaction completes —
its locks are thereby *retained* (the conversion of Fig. 8 is implicit:
a lock counts as retained once its node's parent has committed) — and
the kernel releases the whole tree's locks at top-level commit.  The
conflict test is Fig. 9 (:func:`repro.core.conflict.test_conflict`).

:class:`SemanticNoReliefProtocol` is the A1 ablation: identical, except
that a formal conflict with a retained lock always blocks until the
holder's top-level commit — the commutative-ancestor relaxation of
Section 4.1 (cases 1 and 2) is disabled.  Comparing the two quantifies
how much concurrency those two cases recover.
"""

from __future__ import annotations

from typing import Optional

from repro.core.conflict import test_conflict
from repro.errors import UnknownObjectError
from repro.objects.oid import Oid
from repro.obs.cases import CONFLICT_CASES
from repro.protocols.base import CCProtocol, LockSpec
from repro.semantics.compatibility import StateView
from repro.semantics.invocation import Invocation
from repro.txn.transaction import TransactionNode


class SemanticLockingProtocol(CCProtocol):
    """Open nested transactions with retained semantic locks (the paper)."""

    name = "semantic"
    ancestor_relief = True
    reports_conflict_cases = True

    def __init__(self) -> None:
        super().__init__()
        self._on_outcome = None

    def bind_metrics(self, registry) -> None:
        """Cache one counter per Fig. 9 outcome for the conflict test."""
        super().bind_metrics(registry)
        counters = {case: registry.counter(case) for case in CONFLICT_CASES}
        self._on_outcome = lambda case: counters[case].inc()

    def lock_specs(self, node: TransactionNode) -> list[LockSpec]:
        return [LockSpec(node.target, node.invocation)]

    def _view_for(self, target: Oid) -> Optional[StateView]:
        """Live state view for state-dependent matrix cells.

        Available once the kernel has bound its lock table; includes
        every invocation currently holding a lock on the target, so
        escrow-style predicates can account for granted-but-uncommitted
        operations.
        """
        if self._lock_table is None:
            return None
        try:
            obj = self.db.resolve(target)
        except UnknownObjectError:
            return None
        held = tuple(lock.invocation for lock in self._lock_table.locks_on(target))
        return StateView(obj=obj, held_invocations=held)

    def test_conflict(
        self,
        holder: TransactionNode,
        holder_invocation: Invocation,
        requester: TransactionNode,
        requester_invocation: Invocation,
        target: Oid,
    ) -> Optional[TransactionNode]:
        return test_conflict(
            self.db,
            holder,
            holder_invocation,
            target,
            requester,
            requester_invocation,
            target,
            ancestor_relief=self.ancestor_relief,
            view_factory=self._view_for,
            on_outcome=self._on_outcome,
        )

    # completion: the default Disposition.RETAIN — locks are retained, not released.


class SemanticNoReliefProtocol(SemanticLockingProtocol):
    """Ablation: retained locks without commutative-ancestor relief."""

    name = "semantic-no-relief"
    ancestor_relief = False
