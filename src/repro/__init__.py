"""Semantic concurrency control for object-oriented databases.

A from-scratch reproduction of Muth, Rakow, Weikum, Brössler, Hasse:
*"Semantic Concurrency Control in Object-Oriented Database Systems"*,
ICDE 1993 — the open-nested locking protocol with retained semantic
locks and commutative-ancestor conflict relief, together with the
substrates it needs (object model, storage mapping, transaction trees,
deterministic runtimes), the conventional baseline protocols it is
compared against, the paper's order-entry running example, and a
semantic-serializability checker used as correctness ground truth.

Quickstart::

    from repro import (
        build_order_entry_database, make_t1, make_t2,
        run_transactions, is_semantically_serializable,
    )

    built = build_order_entry_database(n_items=2, orders_per_item=2)
    kernel = run_transactions(built.db, {
        "T1": make_t1(built.item(0), 1, built.item(1), 1),
        "T2": make_t2(built.item(0), 2, built.item(1), 2),
    })
    assert kernel.handles["T1"].committed
    assert is_semantically_serializable(kernel.history(), db=built.db).serializable
"""

from repro.errors import (
    CompensationError,
    DeadlockError,
    ProtocolViolation,
    ReproError,
    SchemaError,
    TransactionAborted,
)
from repro.objects import (
    AtomicObject,
    Database,
    DatabaseObject,
    EncapsulatedObject,
    Oid,
    SetObject,
    TupleObject,
    TypeSpec,
    describe_database,
)
from repro.semantics import (
    CompatibilityMatrix,
    Invocation,
    StateModel,
    derive_matrix,
    matrices_agree,
)
from repro.semantics.compatibility import StateView
from repro.semantics.lockmodes import LockMode, LockModeTable
from repro.core import (
    SemanticLockingProtocol,
    SemanticNoReliefProtocol,
    TransactionContext,
    TransactionManager,
    TxnHandle,
    is_semantically_serializable,
    test_conflict,
)
from repro.core.kernel import CostModel, run_transactions
from repro.protocols import (
    ClosedNestedProtocol,
    ObjectRW2PLProtocol,
    OpenNestedNaiveProtocol,
    PageLockingProtocol,
)
from repro.runtime import Scheduler
from repro.txn.timeline import render_lock_waits, render_timeline
from repro.recovery import WriteAheadLog, recover
from repro.orderentry import (
    OrderEntryWorkload,
    WorkloadConfig,
    build_order_entry_database,
    make_new_order_txn,
    make_t1,
    make_t2,
    make_t3,
    make_t4,
    make_t5,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "TransactionAborted",
    "DeadlockError",
    "CompensationError",
    "ProtocolViolation",
    # objects
    "Oid",
    "Database",
    "DatabaseObject",
    "AtomicObject",
    "TupleObject",
    "SetObject",
    "EncapsulatedObject",
    "TypeSpec",
    "describe_database",
    # semantics
    "Invocation",
    "CompatibilityMatrix",
    "StateView",
    "StateModel",
    "LockMode",
    "LockModeTable",
    "derive_matrix",
    "matrices_agree",
    # kernel & protocols
    "TransactionManager",
    "TransactionContext",
    "TxnHandle",
    "CostModel",
    "run_transactions",
    "test_conflict",
    "SemanticLockingProtocol",
    "SemanticNoReliefProtocol",
    "OpenNestedNaiveProtocol",
    "ClosedNestedProtocol",
    "ObjectRW2PLProtocol",
    "PageLockingProtocol",
    "Scheduler",
    # checker & rendering
    "is_semantically_serializable",
    "render_timeline",
    "render_lock_waits",
    # recovery
    "WriteAheadLog",
    "recover",
    # order entry
    "build_order_entry_database",
    "OrderEntryWorkload",
    "WorkloadConfig",
    "make_t1",
    "make_t2",
    "make_t3",
    "make_t4",
    "make_t5",
    "make_new_order_txn",
    "__version__",
]
