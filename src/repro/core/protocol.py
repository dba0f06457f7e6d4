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
from repro.core.reliefcache import AncestorReliefCache
from repro.errors import UnknownObjectError
from repro.objects.oid import Oid
from repro.obs.cases import CONFLICT_CASES
from repro.protocols.base import CCProtocol, LockSpec
from repro.semantics.compatibility import StateView
from repro.semantics.invocation import Invocation
from repro.semantics.memo import CommutativityMemo
from repro.txn.transaction import TransactionNode


class SemanticLockingProtocol(CCProtocol):
    """Open nested transactions with retained semantic locks (the paper).

    *caching=True* (the default) arms the conflict-test fast path: a
    :class:`~repro.semantics.memo.CommutativityMemo` short-circuiting
    state-independent matrix cells, and an
    :class:`~repro.core.reliefcache.AncestorReliefCache` memoising the
    Fig. 9 chain search per (holder, requester) pair.  Disabling it
    restores the original scan-everything code path bit for bit — the
    cache differential suite proves both paths produce identical traces,
    grant orders, and final states.
    """

    name = "semantic"
    ancestor_relief = True
    reports_conflict_cases = True

    def __init__(self, caching: bool = True) -> None:
        super().__init__()
        self._on_outcome = None
        self.memo = CommutativityMemo() if caching else None
        self.relief_cache = (
            AncestorReliefCache() if caching and self.ancestor_relief else None
        )

    def bind_metrics(self, registry) -> None:
        """Cache one counter per Fig. 9 outcome for the conflict test."""
        super().bind_metrics(registry)
        counters = {case: registry.counter(case) for case in CONFLICT_CASES}
        self._on_outcome = lambda case: counters[case].inc()
        # The cache.* counters exist (at zero) even with caching off, so
        # the snapshot shape is stable for a given protocol.
        for name in (
            "cache.commute_hits",
            "cache.commute_misses",
            "cache.commute_bypasses",
            "cache.relief_hits",
            "cache.relief_misses",
            "cache.relief_bypasses",
            "cache.relief_invalidations",
        ):
            registry.counter(name)
        if self.memo is not None:
            self.memo.bind_metrics(registry)
        if self.relief_cache is not None:
            self.relief_cache.bind_metrics(registry)

    def make_thread_safe(self) -> None:
        """Arm the decision caches for concurrent conflict tests.

        Under the sharded runtime conflict tests run concurrently on
        disjoint lock-table stripes *without* any kernel-wide mutex, so
        the memo and relief cache each take their own internal lock.
        Idempotent: the existing lock is kept on repeated calls, so
        arming an already-armed protocol (e.g. one reused across
        kernels) never swaps the lock out from under a running test.
        """
        if self.memo is not None:
            self.memo.enable_thread_safety()
        if self.relief_cache is not None:
            self.relief_cache.enable_thread_safety()

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
            memo=self.memo,
            relief_cache=self.relief_cache,
        )

    # completion: the default Disposition.RETAIN — locks are retained, not released.

    def on_node_event(self, node: TransactionNode, event: str) -> None:
        """Invalidate relief-cache verdicts the lifecycle event stales.

        A commit flips case-2 waits on the node to case-1 relief; aborts
        and restart discards make the node's entries garbage (and, for
        discarded subtrees, dangerous to keep serving).
        """
        if self.relief_cache is None:
            return
        if event == "commit":
            self.relief_cache.on_commit(node)
        else:
            self.relief_cache.on_node_gone(node)

    def on_locks_reassigned(self, nodes) -> None:
        if self.relief_cache is not None:
            self.relief_cache.on_locks_reassigned(nodes)


class SemanticNoReliefProtocol(SemanticLockingProtocol):
    """Ablation: retained locks without commutative-ancestor relief."""

    name = "semantic-no-relief"
    ancestor_relief = False
