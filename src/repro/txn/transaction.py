"""Open-nested transaction trees.

A transaction execution is a tree of *actions* (method invocations); the
children of a node are the operations invoked to implement it (Section 3
of the paper).  :class:`TransactionNode` is one such action: it knows its
invocation, its place in the tree, its commit status, and — crucially for
the Fig. 9 conflict test — its *ancestor chain* in bottom-up order.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.objects.oid import Oid
from repro.semantics.invocation import Invocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objects.base import DatabaseObject


class NodeStatus(enum.Enum):
    """Lifecycle of an action / subtransaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionNode:
    """One action of an open nested transaction."""

    def __init__(
        self,
        node_id: str,
        parent: Optional["TransactionNode"],
        target: Oid,
        invocation: Invocation,
    ) -> None:
        self.node_id = node_id
        self.parent = parent
        self.target = target
        self.invocation = invocation
        self.children: list["TransactionNode"] = []
        self.status = NodeStatus.ACTIVE
        self.begin_seq: Optional[int] = None
        self.end_seq: Optional[int] = None
        self.result: Any = None
        self.readonly = False
        self.is_compensation = False
        # For a compensating action: the node id it compensates (used by
        # the recovery log to mark the original as logically undone).
        self.compensates: Optional[str] = None
        # No node is ever re-parented, so its root and the name of its
        # top-level transaction (the root invocation's argument) are
        # fixed here, once.  A root stores no reference to itself: a
        # tree is freed by reference counting once its children lists
        # are cleared (``ThreadedKernel.reap``).
        if parent is not None:
            parent.children.append(self)
            self.depth = parent.depth + 1
            self._root: Optional[TransactionNode] = parent._root or parent
            self.top_level_name: str = parent.top_level_name
        else:
            self.depth = 0
            self._root = None
            self.top_level_name = str(invocation.arg(0, node_id))
            # Root only: the composition parent of every object the
            # transaction touched and of its ancestors, as of the first
            # touch (the history's composition chains), filled by the
            # thread driving the transaction.
            self.composition: dict[DatabaseObject, Optional[DatabaseObject]] = {}

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------
    def root(self) -> "TransactionNode":
        """The top-level transaction this action belongs to."""
        return self._root or self

    def ancestors(self, include_self: bool = False) -> Iterator["TransactionNode"]:
        """Ancestor chain in bottom-up order (Fig. 9's traversal order)."""
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "TransactionNode", include_self: bool = False) -> bool:
        return any(node is self for node in other.ancestors(include_self))

    def same_top_level(self, other: "TransactionNode") -> bool:
        """True if both actions belong to the same top-level transaction."""
        return self.root() is other.root()

    def descendants(self, include_self: bool = False) -> Iterator["TransactionNode"]:
        """The subtree in pre-order, walked with one explicit stack: one
        generator frame per walk, and no recursion limit on depth."""
        stack = [self] if include_self else self.children[::-1]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def is_top_level(self) -> bool:
        return self.parent is None

    @property
    def completed(self) -> bool:
        """"Completed" in the paper's sense: committed (effects exposed)."""
        return self.status is NodeStatus.COMMITTED

    @property
    def active(self) -> bool:
        return self.status is NodeStatus.ACTIVE

    def mark_committed(self, end_seq: int) -> None:
        self.status = NodeStatus.COMMITTED
        self.end_seq = end_seq

    def mark_aborted(self, end_seq: int) -> None:
        self.status = NodeStatus.ABORTED
        self.end_seq = end_seq

    @property
    def label(self) -> str:
        """Human-readable action label, e.g. ``ShipOrder(Item#3, 7)``."""
        return f"{self.invocation} on {self.target}"

    def __repr__(self) -> str:
        return (
            f"<Node {self.node_id} {self.invocation.operation} on {self.target} "
            f"{self.status.value}>"
        )

    def format_tree(self, indent: int = 0) -> str:
        """Indented rendering of the subtree (used by examples/benches)."""
        lines = ["  " * indent + f"{self.invocation} on {self.target} [{self.status.value}]"]
        for child in self.children:
            lines.append(child.format_tree(indent + 1))
        return "\n".join(lines)
