"""The concurrency control protocol interface.

A protocol is a strategy object the kernel consults at three points of
an action's life:

* :meth:`CCProtocol.lock_specs` — which locks (target object + lock
  invocation) the action must acquire before executing;
* :meth:`CCProtocol.test_conflict` — whether a requested lock conflicts
  with a held/queued one, and if so which node's completion the
  requester must await;
* :attr:`CCProtocol.completion` — what happens to locks when a
  non-top-level action commits (retain them, release the subtree's,
  pass them to the parent): a declared
  :class:`~repro.txn.locks.Disposition` the lock table applies inside
  its one completion call.

Top-level commit is protocol-independent: the kernel releases every lock
of the transaction tree.

Every action asks for its locks, so a :class:`LockSpec` is a
:class:`typing.NamedTuple`: immutable, its fields read through C-level
getters, its equality and hash the tuple's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional

from repro.errors import ProtocolViolation
from repro.objects.database import Database
from repro.objects.oid import Oid
from repro.semantics.generic import READONLY_GENERIC_OPS
from repro.semantics.invocation import Invocation
from repro.txn.locks import Disposition
from repro.txn.transaction import TransactionNode

# Lock-mode invocations used by the read/write baselines.
READ_MODE = Invocation("R")
WRITE_MODE = Invocation("W")


class LockSpec(NamedTuple):
    """One lock an action must acquire: a target and a lock invocation."""

    target: Oid
    invocation: Invocation


def rw_mode_for(node: TransactionNode) -> Invocation:
    """Read/write lock mode for an action (used by the baselines)."""
    return READ_MODE if node.readonly else WRITE_MODE


def rw_compatible(held: Invocation, requested: Invocation) -> bool:
    """Classical R/W compatibility."""
    return held.operation == "R" and requested.operation == "R"


def is_generic_leaf(node: TransactionNode) -> bool:
    """True for generic operations on atoms and sets (storage-level ops)."""
    return node.invocation.operation in (
        "Get",
        "Put",
        "Insert",
        "Remove",
        "Select",
        "Scan",
        "Size",
    )


def is_readonly_generic(node: TransactionNode) -> bool:
    return node.invocation.operation in READONLY_GENERIC_OPS


class CCProtocol(ABC):
    """Strategy interface; see module docstring."""

    name: str = "abstract"

    #: True when the protocol's :meth:`test_conflict` reports its own
    #: fine-grained conflict-case outcomes into the bound metrics
    #: registry (the semantic protocols do); otherwise the kernel
    #: classifies outcomes coarsely from the return value alone.
    reports_conflict_cases: bool = False

    def __init__(self) -> None:
        self._db: Optional[Database] = None
        self._lock_table = None
        self._metrics = None

    def bind(self, db: Database) -> None:
        """Attach the protocol to the database it will run against."""
        self._db = db

    def bind_metrics(self, registry) -> None:
        """Give the protocol a :class:`~repro.obs.MetricsRegistry`.

        Protocols that account per-conflict-case outcomes (the semantic
        family) override this to cache their counters; the base just
        stores the registry.
        """
        self._metrics = registry

    def bind_lock_table(self, lock_table) -> None:
        """Give the protocol access to the live lock table.

        Needed by protocols with state-dependent compatibility cells
        (escrow-style predicates must see every granted invocation on
        the target).  The base implementation just stores it.
        """
        self._lock_table = lock_table

    @property
    def db(self) -> Database:
        if self._db is None:
            raise ProtocolViolation(f"protocol {self.name!r} is not bound to a database")
        return self._db

    @abstractmethod
    def lock_specs(self, node: TransactionNode) -> list[LockSpec]:
        """The locks *node* must hold before its operation executes."""

    @abstractmethod
    def test_conflict(
        self,
        holder: TransactionNode,
        holder_invocation: Invocation,
        requester: TransactionNode,
        requester_invocation: Invocation,
        target: Oid,
    ) -> Optional[TransactionNode]:
        """None if compatible; else the node whose completion to await."""

    #: What the lock table does with a non-top-level action's locks
    #: when it commits (``LockTableAPI.complete_node`` applies it in the
    #: same hold that re-evaluates the queues).  The default — keep
    #: every lock in place — yields the retained-lock behaviour of the
    #: paper's protocol: a lock's ``retained`` property derives from its
    #: node's parent's status, so no bookkeeping is needed.
    completion: Disposition = Disposition.RETAIN

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
