"""Property-based tests (hypothesis) for the protocol stack.

The central soundness property of the paper's protocol: **every history
it admits is semantically serializable**.  We generate random order-entry
workloads and random interleavings, run them through the kernel, and ask
the BBG89 reduction checker.  A serial-replay oracle strengthens this:
replaying the checker's serial order on a fresh database must reproduce
the concurrent run's final state.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.protocol import SemanticLockingProtocol, SemanticNoReliefProtocol
from repro.core.serializability import is_semantically_serializable
from repro.objects.atoms import AtomicObject
from repro.objects.database import Database
from repro.objects.sets import SetObject
from repro.orderentry.schema import build_order_entry_database
from repro.orderentry.transactions import (
    make_new_order_txn,
    make_t1,
    make_t2,
    make_t3,
    make_t4,
    make_t5,
)
from repro.protocols import protocols_by_name
from repro.protocols.closed_nested import ClosedNestedProtocol
from repro.protocols.open_nested_naive import OpenNestedNaiveProtocol
from repro.protocols.two_phase_object import ObjectRW2PLProtocol
from repro.protocols.two_phase_page import PageLockingProtocol

from tests.helpers import run_programs

N_ITEMS = 2
ORDERS_PER_ITEM = 2


def snapshot(db: Database) -> dict:
    """Final database state keyed by object path (OIDs vary per run)."""
    state = {}
    for obj in db.subtree():
        if isinstance(obj, AtomicObject):
            state[obj.path] = obj.raw_get()
        elif isinstance(obj, SetObject):
            state[obj.path + "/keys"] = tuple(sorted(k for k, __ in obj.raw_scan()))
    return state


# Atoms whose values are system-generated surrogates: behavioural
# equivalence holds *up to renaming* of these (the paper's Enqueue
# argument for NewOrder/NewOrder — which order draws which number is
# not semantically meaningful).
_SURROGATE_ATOMS = frozenset({"OrderNo", "NextOrderNo"})


def canonical(obj) -> tuple:
    """Order-insensitive, surrogate-free description of an object tree.

    Set members are compared as a multiset of their canonical forms with
    their keys dropped, so two executions that assign order numbers in a
    different order — but are otherwise behaviourally identical — get
    equal canonical states.
    """
    from repro.objects.encapsulated import EncapsulatedObject
    from repro.objects.tuples import TupleObject

    def freeze_value(value):
        if isinstance(value, frozenset):
            return ("frozenset", tuple(sorted(map(repr, value))))
        return value

    if isinstance(obj, AtomicObject):
        return ("atom", freeze_value(obj.raw_get()))
    if isinstance(obj, TupleObject):
        return (
            "tuple",
            tuple(
                sorted(
                    (label, canonical(obj.component(label)))
                    for label in obj.component_labels
                    if label not in _SURROGATE_ATOMS
                )
            ),
        )
    if isinstance(obj, SetObject):
        return ("set", tuple(sorted(repr(canonical(m)) for __, m in obj.raw_scan())))
    if isinstance(obj, EncapsulatedObject):
        return ("enc", obj.spec.name, canonical(obj.impl))
    return (
        "obj",
        obj.name,
        tuple(
            canonical(child)
            for child in obj.children
            if not (isinstance(child, AtomicObject) and child.name in _SURROGATE_ATOMS)
        ),
    )


def canonical_state(db: Database) -> tuple:
    return tuple(canonical(child) for child in db.children)


def make_program(spec: tuple, built):
    """Materialise a transaction description against a database."""
    kind = spec[0]
    if kind == "T1":
        __, i1, o1, i2, o2 = spec
        return make_t1(built.item(i1), built.order_no(i1, o1), built.item(i2), built.order_no(i2, o2))
    if kind == "T2":
        __, i1, o1, i2, o2 = spec
        return make_t2(built.item(i1), built.order_no(i1, o1), built.item(i2), built.order_no(i2, o2))
    if kind == "T3":
        __, i1, o1, i2, o2 = spec
        return make_t3(built.order(i1, o1), built.order(i2, o2))
    if kind == "T4":
        __, i1, o1, i2, o2 = spec
        return make_t4(built.order(i1, o1), built.order(i2, o2))
    if kind == "T5":
        return make_t5(built.item(spec[1]))
    if kind == "T0":
        __, i1, customer, qty = spec
        return make_new_order_txn(built.item(i1), customer, qty)
    raise AssertionError(kind)


item_idx = st.integers(0, N_ITEMS - 1)
order_idx = st.integers(0, ORDERS_PER_ITEM - 1)

txn_spec = st.one_of(
    st.tuples(st.just("T1"), item_idx, order_idx, item_idx, order_idx),
    st.tuples(st.just("T2"), item_idx, order_idx, item_idx, order_idx),
    st.tuples(st.just("T3"), item_idx, order_idx, item_idx, order_idx),
    st.tuples(st.just("T4"), item_idx, order_idx, item_idx, order_idx),
    st.tuples(st.just("T5"), item_idx),
    st.tuples(st.just("T0"), item_idx, st.integers(100, 105), st.integers(1, 3)),
)

workload = st.lists(txn_spec, min_size=2, max_size=4)
seeds = st.integers(0, 10_000)


def run_workload(specs, seed, protocol):
    built = build_order_entry_database(n_items=N_ITEMS, orders_per_item=ORDERS_PER_ITEM)
    programs = {f"X{i}-{spec[0]}": make_program(spec, built) for i, spec in enumerate(specs)}
    kernel = run_programs(built.db, programs, protocol=protocol, policy="random", seed=seed)
    return built, kernel


class TestSemanticProtocolSoundness:
    # Regression: T1 shipping the same order twice around T4's two status
    # reads used to be misjudged non-serializable — the checker ordered
    # TestStatus (status atom only) against reads of the *amount* atom
    # until the leaf-footprint refinement in serializability.py.
    @example(specs=[("T1", 0, 0, 0, 0), ("T4", 0, 0, 0, 0)], seed=0)
    @settings(max_examples=60, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_every_admitted_history_is_serializable(self, specs, seed):
        built, kernel = run_workload(specs, seed, SemanticLockingProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable, kernel.history().format()

    @example(specs=[("T1", 0, 0, 0, 0), ("T4", 0, 0, 0, 0)], seed=0)
    @settings(max_examples=40, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_serial_replay_oracle(self, specs, seed):
        """Replaying the checker's serial order reproduces the state."""
        built, kernel = run_workload(specs, seed, SemanticLockingProtocol())
        if kernel.metrics.aborts:
            return  # oracle only meaningful when everything committed
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable
        assert result.serial_order is not None

        # replay serially in the checker's order on a fresh database
        fresh = build_order_entry_database(n_items=N_ITEMS, orders_per_item=ORDERS_PER_ITEM)
        name_to_spec = {f"X{i}-{spec[0]}": spec for i, spec in enumerate(specs)}
        for txn_name in result.serial_order:
            program = make_program(name_to_spec[txn_name], fresh)
            serial_kernel = run_programs(fresh.db, {txn_name: program})
            assert serial_kernel.handles[txn_name].committed
        # Equality is modulo surrogate order-number renaming: NewOrder is
        # declared self-commutative although which invocation draws which
        # number depends on the interleaving (the paper's idealisation).
        assert canonical_state(built.db) == canonical_state(fresh.db)

    @settings(max_examples=40, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_no_locks_leak(self, specs, seed):
        __, kernel = run_workload(specs, seed, SemanticLockingProtocol())
        assert kernel.locks.lock_count == 0
        assert kernel.locks.pending_count == 0
        assert kernel.waits.edge_count == 0

    @pytest.mark.parametrize("protocol", sorted(protocols_by_name()))
    # Overlapping T1/T2 pairs on shared items: every conflict case.
    @example(
        specs=[("T1", 0, 0, 1, 1), ("T2", 0, 0, 1, 0), ("T1", 1, 1, 0, 1), ("T2", 1, 0, 0, 0)],
        seed=0,
    )
    @settings(max_examples=30, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_determinism(self, protocol, specs, seed):
        """Every protocol replays a seeded run bit for bit: same trace,
        same history, same final state."""
        factory = protocols_by_name()[protocol]

        def fingerprint():
            built, kernel = run_workload(specs, seed, factory())
            return (
                [event.to_dict() for event in kernel.trace],
                [(r.txn, r.node_id, r.operation, r.begin_seq) for r in kernel.history().records],
                snapshot(built.db),
            )

        assert fingerprint() == fingerprint()


class TestBaselineSoundness:
    @settings(max_examples=25, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_object_rw_2pl_serializable(self, specs, seed):
        built, kernel = run_workload(specs, seed, ObjectRW2PLProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable

    @settings(max_examples=25, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_page_locking_serializable(self, specs, seed):
        built, kernel = run_workload(specs, seed, PageLockingProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable

    @settings(max_examples=25, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_closed_nested_serializable(self, specs, seed):
        built, kernel = run_workload(specs, seed, ClosedNestedProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable

    @settings(max_examples=25, deadline=None)
    @given(specs=workload, seed=seeds)
    def test_no_relief_ablation_serializable(self, specs, seed):
        """Disabling ancestor relief loses concurrency, never safety."""
        built, kernel = run_workload(specs, seed, SemanticNoReliefProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable

    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(
            st.one_of(
                st.tuples(st.just("T1"), item_idx, order_idx, item_idx, order_idx),
                st.tuples(st.just("T2"), item_idx, order_idx, item_idx, order_idx),
            ),
            min_size=2,
            max_size=3,
        ),
        seed=seeds,
    )
    def test_naive_protocol_sound_without_bypassing(self, specs, seed):
        """T1/T2 respect encapsulation, so Section 3's protocol is
        correct on them (the paper's stated precondition)."""
        built, kernel = run_workload(specs, seed, OpenNestedNaiveProtocol())
        result = is_semantically_serializable(kernel.history(), db=built.db, budget=400_000)
        assert result.serializable


class TestCommutativitySymmetry:
    @settings(max_examples=100, deadline=None)
    @given(
        op_a=st.sampled_from(["ChangeStatus", "TestStatus", "RemoveStatus"]),
        op_b=st.sampled_from(["ChangeStatus", "TestStatus", "RemoveStatus"]),
        ev_a=st.sampled_from(["shipped", "paid"]),
        ev_b=st.sampled_from(["shipped", "paid"]),
        state=st.frozensets(st.sampled_from(["shipped", "paid"])),
    )
    def test_behavioural_commutativity_is_symmetric(self, op_a, op_b, ev_a, ev_b, state):
        from repro.orderentry.models import OrderModel
        from repro.semantics.derive import invocations_commute
        from repro.semantics.invocation import Invocation

        model = OrderModel()
        f = Invocation(op_a, (ev_a,))
        g = Invocation(op_b, (ev_b,))
        assert invocations_commute(model, state, f, g) == invocations_commute(
            model, state, g, f
        )

    @settings(max_examples=100, deadline=None)
    @given(
        op_a=st.sampled_from(["ChangeStatus", "TestStatus"]),
        op_b=st.sampled_from(["ChangeStatus", "TestStatus"]),
        ev_a=st.sampled_from(["shipped", "paid"]),
        ev_b=st.sampled_from(["shipped", "paid"]),
    )
    def test_declared_matrix_is_symmetric(self, op_a, op_b, ev_a, ev_b):
        from repro.orderentry.schema import ORDER_TYPE
        from repro.semantics.invocation import Invocation

        f = Invocation(op_a, (ev_a,))
        g = Invocation(op_b, (ev_b,))
        assert ORDER_TYPE.matrix.compatible(f, g) == ORDER_TYPE.matrix.compatible(g, f)
