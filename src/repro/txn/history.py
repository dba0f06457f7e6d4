"""Recorded execution histories.

A concurrent execution of open nested transactions is a partial order of
actions (Section 3).  The recorder captures, for every action, its
invocation, target, tree position, and begin/end logical sequence
numbers; together with a snapshot of the composition tree this is all
the semantic-serializability checker needs.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.objects.database import Database
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


class HistoryRecorder:
    """Accumulates action records during a kernel run, filed by
    top-level transaction.  A served kernel drops a transaction's
    records (:meth:`discard`) when it reaps it, so only in-flight
    transactions' records stay; virtual and batch runs keep everything.

    Thread-safe: concurrent workers record actions simultaneously under
    the threaded runtime, and ``snapshot_target`` is check-then-set.
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        # Per top-level transaction, its (arrival number, record) pairs.
        self._records: dict[str, list[tuple[int, ActionRecord]]] = {}
        self._arrivals = itertools.count()
        self._composition: dict[Oid, Optional[Oid]] = {}
        self._lock = threading.Lock()

    def snapshot_target(self, target: Oid) -> None:
        """Capture the composition chain of *target* at touch time.

        Objects can be destroyed later (aborted creations), so the chain
        is recorded while the object is alive.
        """
        with self._lock:
            if target in self._composition:
                return
            obj = self._db.resolve(target)
            for node in obj.composition_ancestors(include_self=True):
                parent = node.parent
                self._composition.setdefault(
                    node.oid, parent.oid if parent is not None else None
                )

    def on_node_end(self, node: TransactionNode) -> None:
        """Record a finished (committed or aborted) action."""
        status = {
            NodeStatus.COMMITTED: "committed",
            NodeStatus.ABORTED: "aborted",
            NodeStatus.ACTIVE: "active",
        }[node.status]
        record = ActionRecord(
            node_id=node.node_id,
            parent_id=node.parent.node_id if node.parent is not None else None,
            txn=node.top_level_name,
            target=node.target,
            operation=node.invocation.operation,
            args=node.invocation.args,
            begin_seq=node.begin_seq if node.begin_seq is not None else -1,
            end_seq=node.end_seq if node.end_seq is not None else -1,
            status=status,
            depth=node.depth,
            is_compensation=node.is_compensation,
        )
        with self._lock:
            self._records.setdefault(record.txn, []).append((next(self._arrivals), record))

    def discard_nodes(self, txn: str, node_ids: set[str]) -> None:
        """Forget records of a rolled-back (restarted) subtree of *txn*.

        A restarted subtransaction's do/undo pair nets out to nothing;
        the history treats it as never having executed, exactly like
        standard multilevel-transaction restart semantics.
        """
        with self._lock:
            run = self._records.get(txn, ())
            self._records[txn] = [p for p in run if p[1].node_id not in node_ids]

    def discard(self, txn: str) -> None:
        """Forget every record of top-level transaction *txn*."""
        with self._lock:
            self._records.pop(txn, None)

    def history(self) -> History:
        with self._lock:
            pairs = [pair for run in self._records.values() for pair in run]
            composition = dict(self._composition)
        pairs.sort(key=lambda pair: (pair[1].begin_seq, pair[0]))
        return History(records=[r for _, r in pairs], composition_parent=composition)
