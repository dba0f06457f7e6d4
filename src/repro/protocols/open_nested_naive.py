"""The naive Section-3 open nested protocol (no retained locks).

This is the textbook open-nested locking protocol the paper starts from:
semantic locks at every level, but when a subtransaction completes, the
locks acquired for its children are *released* — only the
subtransaction's own semantic lock is held further, by its parent.

It is correct when all transactions respect encapsulation (potentially
conflicting actions then sit at the same depth under same-object
ancestors), and **incorrect** when encapsulation is bypassed: Fig. 5's
history — T3 reading an order's status directly after T1's completed
``ShipOrder`` subtransaction, before T1 commits — is admitted even
though it is not semantically serializable.  The F5 benchmark and the
property-test suite demonstrate exactly this.
"""

from __future__ import annotations

from typing import Optional

from repro.core.conflict import actions_commute
from repro.objects.oid import Oid
from repro.protocols.base import CCProtocol, LockSpec
from repro.semantics.invocation import Invocation
from repro.txn.locks import Disposition
from repro.txn.transaction import TransactionNode


class OpenNestedNaiveProtocol(CCProtocol):
    """Open nested locking without retained locks (Section 3)."""

    name = "open-nested-naive"

    def lock_specs(self, node: TransactionNode) -> list[LockSpec]:
        return [LockSpec(node.target, node.invocation)]

    def test_conflict(
        self,
        holder: TransactionNode,
        holder_invocation: Invocation,
        requester: TransactionNode,
        requester_invocation: Invocation,
        target: Oid,
    ) -> Optional[TransactionNode]:
        if actions_commute(
            self.db, target, holder_invocation, target, requester_invocation
        ):
            return None
        if holder.same_top_level(requester):
            return None
        # The lock is released when the holder's parent subtransaction
        # completes (for a top-level holder: at its own commit), so that
        # is the completion the requester waits for.
        return holder.parent if holder.parent is not None else holder

    # Release the locks of the completed subtransaction: everything
    # acquired by its descendants.  Its own lock stays with the parent.
    completion = Disposition.RELEASE_DESCENDANTS
