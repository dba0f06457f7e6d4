"""Execution histories, read from the transaction trees.

A concurrent execution of open nested transactions is a partial order of
actions (Section 3): the forest of transaction trees, which the kernel
already holds as ``handles[name].root``.  :func:`history_of` reads that
forest when a history is asked for, turning every finished node into an
immutable :class:`ActionRecord` (invocation, target, tree position,
begin/end logical sequence numbers).  Nothing is recorded on the action
path except each transaction's composition chains, which its root keeps
as of touch time (an aborted creation later detaches its object); with
them, the records are all the semantic-serializability checker needs.
A served kernel reaps a finished transaction's tree, so its history
holds only the in-flight ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.objects.base import DatabaseObject
from repro.objects.oid import Oid
from repro.txn.transaction import NodeStatus, TransactionNode


@dataclass(frozen=True)
class ActionRecord:
    """Immutable record of one executed action."""

    node_id: str
    parent_id: Optional[str]
    txn: str
    target: Oid
    operation: str
    args: tuple[Any, ...]
    begin_seq: int
    end_seq: int
    status: str
    depth: int
    is_compensation: bool = False

    @property
    def label(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.operation}({rendered}) on {self.target}"


@dataclass
class History:
    """A completed execution: action records plus composition context."""

    records: list[ActionRecord] = field(default_factory=list)
    composition_parent: dict[Oid, Optional[Oid]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_id = {r.node_id: r for r in self.records}
        self._children: dict[Optional[str], list[ActionRecord]] = {}
        for record in sorted(self.records, key=lambda r: r.begin_seq):
            self._children.setdefault(record.parent_id, []).append(record)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def record(self, node_id: str) -> ActionRecord:
        return self._by_id[node_id]

    def children_of(self, node_id: Optional[str]) -> list[ActionRecord]:
        return list(self._children.get(node_id, ()))

    def top_level(self) -> list[ActionRecord]:
        return self.children_of(None)

    def leaves(self) -> list[ActionRecord]:
        """Leaf actions in execution (begin_seq) order."""
        leaf_records = [
            r for r in self.records if not self._children.get(r.node_id)
        ]
        return sorted(leaf_records, key=lambda r: r.begin_seq)

    def transactions(self) -> list[str]:
        seen: list[str] = []
        for record in self.top_level():
            if record.txn not in seen:
                seen.append(record.txn)
        return seen

    def committed_only(self) -> "History":
        """Sub-history restricted to committed top-level transactions.

        Compensated (aborted) transactions are judged by their own
        correctness tests; serializability is about the committed ones.
        """
        committed_txns = {r.txn for r in self.top_level() if r.status == "committed"}
        records = [r for r in self.records if r.txn in committed_txns]
        return History(records=records, composition_parent=dict(self.composition_parent))

    # ------------------------------------------------------------------
    # Composition queries
    # ------------------------------------------------------------------
    def composition_chain(self, oid: Oid) -> list[Oid]:
        """*oid* and its composition ancestors, bottom-up."""
        chain = [oid]
        current: Optional[Oid] = oid
        while current is not None:
            current = self.composition_parent.get(current)
            if current is not None:
                chain.append(current)
        return chain

    def composition_related(self, a: Oid, b: Oid) -> bool:
        """True if one object is the other (or its composition ancestor)."""
        if a == b:
            return True
        return a in self.composition_chain(b) or b in self.composition_chain(a)

    def format(self) -> str:
        """Indented rendering of all transaction trees, by begin order."""
        lines: list[str] = []

        def walk(record: ActionRecord, depth: int) -> None:
            lines.append(
                "  " * depth
                + f"[{record.begin_seq}..{record.end_seq}] {record.label} ({record.status})"
            )
            for child in self.children_of(record.node_id):
                walk(child, depth + 1)

        for top in self.top_level():
            lines.append(f"-- {top.txn} ({top.status})")
            walk(top, 1)
        return "\n".join(lines)


def note_composition(
    chains: dict[DatabaseObject, Optional[DatabaseObject]], obj: DatabaseObject
) -> None:
    """Add *obj*'s composition chain to *chains* (object to parent) as it
    stands now, up to the first object an earlier touch captured.  Keyed
    by object, not OID: identity hashing keeps the action path cheap."""
    while obj is not None and obj not in chains:
        parent = obj.parent
        chains[obj] = parent
        obj = parent


def action_record(
    node: TransactionNode, status: Optional[str] = None, end_seq: Optional[int] = None
) -> ActionRecord:
    """The record of *node*; *status* and *end_seq* override the node's
    own (a crash check seals a still-active node as if it committed)."""
    return ActionRecord(
        node_id=node.node_id,
        parent_id=node.parent.node_id if node.parent is not None else None,
        txn=node.top_level_name,
        target=node.target,
        operation=node.invocation.operation,
        args=node.invocation.args,
        begin_seq=node.begin_seq if node.begin_seq is not None else -1,
        end_seq=end_seq if end_seq is not None else node.end_seq,
        status=status or node.status.value,
        depth=node.depth,
        is_compensation=node.is_compensation,
    )


def history_of(roots: Iterable[TransactionNode]) -> History:
    """The history of the transaction trees under *roots*: one record
    per node that is no longer active, by ``(begin_seq, end_seq)``.
    An object's composition parent is the earliest root's capture."""
    records: list[ActionRecord] = []
    composition: dict[Oid, Optional[Oid]] = {}
    for root in reversed(list(roots)):
        for obj, parent in list(root.composition.items()):
            composition[obj.oid] = parent.oid if parent is not None else None
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.status is not NodeStatus.ACTIVE:
                records.append(action_record(node))
    records.sort(key=lambda r: (r.begin_seq, r.end_seq))
    return History(records=records, composition_parent=composition)
