"""Closed nested transactions (Moss 1985) with read/write locks.

The classical nested-transaction baseline: only storage-level operations
(generic operations on atoms and sets) take locks, in R or W mode.  When
a subtransaction commits, its locks are *inherited by its parent* rather
than released; a requester may acquire a conflicting lock only if the
conflicting lock is held by one of its ancestors.  Effectively every
leaf lock is held until top-level commit — which makes the protocol
correct under arbitrary bypassing, but blind to operation semantics:
two commuting ``ChangeStatus`` invocations on the same order block each
other at the status atom.
"""

from __future__ import annotations

from typing import Optional

from repro.objects.oid import Oid
from repro.protocols.base import (
    CCProtocol,
    LockSpec,
    is_generic_leaf,
    rw_compatible,
    rw_mode_for,
)
from repro.semantics.invocation import Invocation
from repro.txn.locks import Disposition
from repro.txn.transaction import TransactionNode


class ClosedNestedProtocol(CCProtocol):
    """Moss-style closed nested read/write locking."""

    name = "closed-nested"

    def lock_specs(self, node: TransactionNode) -> list[LockSpec]:
        if not is_generic_leaf(node):
            return []  # method invocations carry no locks of their own
        return [LockSpec(node.target, rw_mode_for(node))]

    def test_conflict(
        self,
        holder: TransactionNode,
        holder_invocation: Invocation,
        requester: TransactionNode,
        requester_invocation: Invocation,
        target: Oid,
    ) -> Optional[TransactionNode]:
        if rw_compatible(holder_invocation, requester_invocation):
            return None
        # Moss's rule: a conflicting lock held by an ancestor (after
        # inheritance, the lock's node *is* the inheriting ancestor) does
        # not block.  Within one top-level transaction execution is
        # sequential here, so the same-transaction case reduces to this.
        if holder.same_top_level(requester):
            return None
        # The lock is passed upward until the holder's top-level commit.
        return holder.root()

    completion = Disposition.REASSIGN_TO_PARENT
