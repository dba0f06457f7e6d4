"""Helper functions shared across test modules."""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.core.kernel import TransactionManager, TransactionProgram
from repro.objects.database import Database
from repro.orderentry.schema import OrderEntryDatabase
from repro.protocols.base import CCProtocol
from repro.runtime.scheduler import Scheduler
from repro.txn.locks import Lock, LockTable
from repro.txn.transaction import TransactionNode


def examples(n: int) -> int:
    """Hypothesis example budget, scaled for scheduled deep runs.

    Explicit ``@settings(max_examples=...)`` on a test overrides any
    hypothesis profile, so the nightly workflow raises the budget of the
    heavy property suites through this multiplier instead
    (``REPRO_HYPOTHESIS_MULTIPLIER=10`` turns 40 examples into 400).
    """
    return n * max(1, int(os.environ.get("REPRO_HYPOTHESIS_MULTIPLIER", "1")))


class ReferenceLockTable(LockTable):
    """The pre-index lock-table semantics, kept as a differential oracle.

    Release paths find locks by scanning every object's granted list
    with the original ownership predicates, and ``reevaluate`` re-tests
    every queue on every pass (no dirty-mark skipping) — i.e. the
    O(table size) behaviour the owner/blocker indices replaced.  The
    differential tests drive identical workloads through this class and
    the indexed one and require identical grant order, traces, and
    final state.  ``check_invariants`` still runs against the inherited
    index bookkeeping, so the oracle also cross-checks the indices.
    """

    def _queue_needs_retest(self, target, queue, dirty, retest) -> bool:
        return True

    def _scan(self, keep) -> list[Lock]:
        return [
            lock
            for locks in self._granted.values()
            for lock in locks
            if keep(lock)
        ]

    def locks_held_by_tree(self, root: TransactionNode) -> list[Lock]:
        return self._scan(lambda lock: lock.node.root() is root)

    def release_tree(self, root: TransactionNode) -> list[Lock]:
        self._count_release_op()
        released = self._scan(lambda lock: lock.node.root() is root)
        self._drop_locks(released)
        return released

    def _collect_subtree_locks(
        self, node: TransactionNode, include_self: bool
    ) -> list[Lock]:
        # Feeds release_descendant_locks / release_subtree /
        # reassign_locks_to_parent, which share the index bookkeeping.
        def keep(lock: Lock) -> bool:
            if lock.node is node:
                return include_self
            return node.is_ancestor_of(lock.node)

        return self._scan(keep)


def run_programs(
    database: Database,
    programs: dict[str, TransactionProgram],
    protocol: Optional[CCProtocol] = None,
    policy: str = "fifo",
    seed: Optional[int] = None,
    script: Optional[list[str]] = None,
    probe: Any = None,
    lock_table_cls: Optional[type[LockTable]] = None,
) -> TransactionManager:
    """Spawn and run programs on a fresh kernel; return the kernel."""
    scheduler = Scheduler(policy=policy, seed=seed, script=script)
    kernel = TransactionManager(
        database, protocol=protocol, scheduler=scheduler, lock_table_cls=lock_table_cls
    )
    if probe is not None:
        kernel.probe = probe
    for name, program in programs.items():
        kernel.spawn(name, program)
    kernel.run()
    return kernel


def status_atom_oid(built: OrderEntryDatabase, item_index: int, order_index: int):
    return built.status_atom(item_index, order_index).oid


def blocks_of(kernel: TransactionManager, txn: str) -> list:
    return [e for e in kernel.trace.of_kind("block") if e.txn == txn]


def page_store_files(root) -> list[str]:
    """Every page-store directory (``store``) or page file (``pages.db``)
    left anywhere under *root*: a shard or torture child runs on the
    in-memory database plus its WAL, so there should be none."""
    return [
        os.path.join(folder, name)
        for folder, dirs, files in os.walk(root)
        for name in dirs + files
        if name in ("store", "pages.db")
    ]
