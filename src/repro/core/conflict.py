"""The semantic conflict test — Fig. 9 of the paper.

``test_conflict(h, r)`` decides whether a lock requester *r* conflicts
with a held (or earlier-requested) lock *h* on the same object, and if
so, *whose completion r must await*:

1. If the two invocations commute (per the object's compatibility
   matrix), or both actions belong to the same top-level transaction,
   there is no conflict — return ``None``.
2. Otherwise search the two actions' ancestor chains, bottom-up, for a
   pair of *commutative ancestors* ``(h', r')`` — actions on the same
   object whose operations commute.  If found:

   * if ``h'`` is already completed (committed), the formal conflict is
     an implementation-level pseudo-conflict masked by the commutative
     ancestors — return ``None`` (the paper's *case 1*, Fig. 6);
   * otherwise ``r`` must wait only until ``h'`` commits, not until the
     whole holding transaction commits — return ``h'`` (*case 2*,
     Fig. 7).

3. With no commutative ancestor pair, the worst case applies: wait for
   the top-level commit of the holder — return ``root(h)``.

Note that because every top-level transaction is an action on the
database root object and ``Transaction``/``Transaction`` is compatible
(footnote 2 of the paper), the bottom-up ancestor search reaches the
root pair last, which makes step 3 a natural limit of step 2; the
explicit fall-through is kept to mirror the paper's pseudo-code and to
support ancestor chains that do not reach a common database object.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.objects.database import Database
from repro.objects.oid import Oid
from repro.obs.cases import (
    CASE1_RELIEF,
    CASE2_WAIT,
    CASE_COMMUTATIVE,
    CASE_SAME_TRANSACTION,
    CASE_TOPLEVEL_WAIT,
)
from repro.semantics.compatibility import StateView
from repro.semantics.invocation import Invocation
from repro.txn.transaction import TransactionNode

# Builds a StateView of the target for state-dependent matrix cells
# (None where no live view is available, e.g. in the checker).
ViewFactory = Callable[[Oid], Optional[StateView]]

# Receives the outcome of one conflict test, as a counter name from
# repro.obs.cases; the semantic protocol feeds a MetricsRegistry here.
OutcomeSink = Callable[[str], None]


def actions_commute(
    db: Database,
    target_a: Oid,
    invocation_a: Invocation,
    target_b: Oid,
    invocation_b: Invocation,
    view_factory: Optional[ViewFactory] = None,
) -> bool:
    """Commutativity of two actions, as used by the conflict test.

    The paper's conflict test "will typically assume that each action is
    associated with a specific object, and needs to consider only pairs
    of actions that operate on the same object" — actions on *different*
    objects are not claimed commutative here (their interaction, if any,
    is discovered on the shared implementation objects below them).

    A live view is built only when the one cell consulted is
    state-dependent; boolean and parameter cells never need one.
    """
    if target_a != target_b:
        return False
    matrix = db.matrix_for_oid(target_a)
    if matrix is None:
        return False
    cell = matrix.entry(invocation_a.operation, invocation_b.operation)
    if cell is None:
        return False
    view = None
    if cell.state_predicate is not None and view_factory is not None:
        view = view_factory(target_a)
    return cell.compatible(invocation_a, invocation_b, view)


def test_conflict(
    db: Database,
    holder: TransactionNode,
    holder_invocation: Invocation,
    holder_target: Oid,
    requester: TransactionNode,
    requester_invocation: Invocation,
    requester_target: Oid,
    ancestor_relief: bool = True,
    view_factory: Optional[ViewFactory] = None,
    on_outcome: Optional[OutcomeSink] = None,
) -> Optional[TransactionNode]:
    """Fig. 9: returns None, a commutative ancestor, or the holder's root.

    *ancestor_relief=False* disables step 2 entirely (the A1 ablation:
    retained locks whose formal conflicts are never relaxed).
    *view_factory* enables state-dependent matrix cells (escrow-style).
    *on_outcome* receives the outcome's counter name (conflict-case
    accounting) — the return value alone cannot distinguish a
    commutative grant from a case-1 relief.
    """
    if actions_commute(
        db,
        holder_target,
        holder_invocation,
        requester_target,
        requester_invocation,
        view_factory,
    ):
        if on_outcome is not None:
            on_outcome(CASE_COMMUTATIVE)
        return None
    if holder.same_top_level(requester):
        if on_outcome is not None:
            on_outcome(CASE_SAME_TRANSACTION)
        return None

    if ancestor_relief:
        for h_anc in holder.ancestors():
            for r_anc in requester.ancestors():
                if not actions_commute(
                    db,
                    h_anc.target,
                    h_anc.invocation,
                    r_anc.target,
                    r_anc.invocation,
                    view_factory,
                ):
                    continue
                if h_anc.completed:
                    case, verdict = CASE1_RELIEF, None
                else:
                    # The search reaching the root Transaction pair
                    # (always commutative, footnote 2) *is* the worst
                    # case: waiting for the holder's top-level commit.
                    # Only a wait on a proper subtransaction is the
                    # paper's case 2.
                    case = CASE_TOPLEVEL_WAIT if h_anc.is_top_level else CASE2_WAIT
                    verdict = h_anc
                if on_outcome is not None:
                    on_outcome(case)
                return verdict

    if on_outcome is not None:
        on_outcome(CASE_TOPLEVEL_WAIT)
    return holder.root()
