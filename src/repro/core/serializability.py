"""Semantic serializability checking by tree reduction (BBG89).

Section 3 of the paper defines a concurrent execution of open nested
transactions to be *semantically serializable* if it can be transformed
into a serial execution of the transaction roots by repeatedly

1. exchanging the order of two adjacent, non-interleaving subtrees whose
   roots are commuting actions, and
2. reducing an isolated subtree (all descendants serial, not interleaved
   with other subtrees) to its root.

Commutativity of two actions is decided as follows: on the *same*
object, by the object's compatibility matrix; on objects in *disjoint*
composition subtrees, trivially (the paper's complex objects are
disjoint, so the actions touch disjoint state); on hierarchically
*related* objects, by two sound refinements before giving up:

1. a set object's own state is only its membership directory, which is
   disjoint from the state inside its members, so a set operation
   commutes with any action strictly below a member; and
2. the *executed leaf footprints* are compared — a composite object has
   no state of its own (its state lives entirely in its atoms and set
   directories), so two actions whose recorded primitive accesses are
   pairwise compatible physically commute regardless of where they sit
   in the composition hierarchy.  This is the classical conflict test:
   distinct primitive objects hold disjoint state, and same-object leaf
   pairs are decided by the primitive type's matrix.

Without refinement 2, a method on an ancestor object was conservatively
ordered against *every* access inside it — e.g. ``TestStatus`` on an
order (which only reads the status atom) against a read of the same
order's amount atom — which produced false non-serializable verdicts
for histories the Fig. 9 protocol correctly admits.

**Algorithm.**  Sequences that differ only by exchanges of commuting
elements form one Mazurkiewicz *trace*, so the search works on traces,
not sequences: a state is a set of elements (collapsed subtrees;
initially the leaves) plus their *dependence partial order* (an edge
between two elements iff they do not commute, directed by execution
order).  The only move is a *collapse*: replace some action's children
by the action itself, legal exactly when no foreign element lies
strictly between two of the children in the dependence order (the
standard trace-theoretic contiguity criterion — some representative
sequence makes the children adjacent).  Collapsing recomputes the new
element's dependencies at its own semantic level, which is precisely
where commutativity "relief" happens: two interleaved ``ChangeStatus``
subtrees are leaf-level ordered, but once collapsed the order
dissolves because the method invocations commute.

A collapse yields exactly one successor state.  When it creates a
dependence between the new element and one it had no inherited order
with (possible only through the conservative related-objects rule), the
pair is left unordered: the partner commuted with every member, so either
side of the group is reachable, and such a free pair never blocks a
later contiguity check.  The final topological sort orients it, so the
procedure remains exact without branching.  The execution is
semantically serializable iff some sequence of collapses reduces the
state to top-level roots only.  The search is exact up to its state
budget; exhausting the budget is reported distinctly from a proven
negative.

The checker is deliberately independent of the locking protocol: the
property tests drive random workloads through each protocol and ask
whether every admitted history is reducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.objects.database import Database
from repro.objects.encapsulated import EncapsulatedObject
from repro.semantics.compatibility import CompatibilityMatrix
from repro.semantics.generic import generic_matrix_for
from repro.semantics.invocation import Invocation
from repro.txn.history import ActionRecord, History


@dataclass
class ReductionResult:
    """Outcome of the reduction search."""

    serializable: bool
    serial_order: Optional[list[str]]  # top-level txn names, serial order found
    states_explored: int
    exhausted: bool  # True if the budget ran out before a proof either way

    def __bool__(self) -> bool:
        return self.serializable


def matrices_from_database(db: Database) -> dict[str, CompatibilityMatrix]:
    """Collect the compatibility matrices of all encapsulated types in use."""
    matrices: dict[str, CompatibilityMatrix] = {}
    for obj in db.subtree():
        if isinstance(obj, EncapsulatedObject):
            matrices.setdefault(obj.spec.name, obj.spec.matrix)
    return matrices


# A state: elements currently present (node ids) and the direct edges of
# their dependence order.  Both frozen for memoisation.
_State = tuple[frozenset, frozenset]


class _Reducer:
    def __init__(
        self,
        history: History,
        type_matrices: Mapping[str, CompatibilityMatrix],
        budget: int,
    ) -> None:
        self.history = history
        self.type_matrices = dict(type_matrices)
        self.budget = budget
        self.states_explored = 0
        self.exhausted = False
        self.records: dict[str, ActionRecord] = {r.node_id: r for r in history.records}
        self.child_ids: dict[str, tuple[str, ...]] = {}
        for record in history.records:
            children = history.children_of(record.node_id)
            self.child_ids[record.node_id] = tuple(c.node_id for c in children)
        self._commute_cache: dict[tuple[str, str], bool] = {}
        self._related_cache: dict[tuple, bool] = {}
        self._footprint_cache: dict[str, tuple[ActionRecord, ...]] = {}

    # ------------------------------------------------------------------
    # Commutativity of elements
    # ------------------------------------------------------------------
    def _matrix_for(self, type_name: str) -> Optional[CompatibilityMatrix]:
        matrix = self.type_matrices.get(type_name)
        if matrix is not None:
            return matrix
        return generic_matrix_for(type_name)

    def _related(self, a: ActionRecord, b: ActionRecord) -> bool:
        key = (a.target, b.target)
        cached = self._related_cache.get(key)
        if cached is None:
            cached = self.history.composition_related(a.target, b.target)
            self._related_cache[key] = cached
        return cached

    def commute(self, id_a: str, id_b: str) -> bool:
        if id_a > id_b:  # symmetric; cache one orientation
            id_a, id_b = id_b, id_a
        key = (id_a, id_b)
        cached = self._commute_cache.get(key)
        if cached is not None:
            return cached
        a = self.records[id_a]
        b = self.records[id_b]
        if a.txn == b.txn:
            result = False  # program order within a transaction is fixed
        elif a.target == b.target:
            matrix = self._matrix_for(a.target.type_name)
            result = matrix is not None and matrix.compatible(
                Invocation(a.operation, a.args), Invocation(b.operation, b.args)
            )
        else:
            result = self._cross_level_commute(a, b)
        self._commute_cache[key] = result
        return result

    def _cross_level_commute(self, a: ActionRecord, b: ActionRecord) -> bool:
        """Commutativity of actions on *different* objects (see module doc)."""
        if not self._related(a, b):
            return True  # disjoint composition subtrees: disjoint state
        if a.target in self.history.composition_chain(b.target):
            ancestor = a
        else:
            ancestor = b
        if ancestor.target.type_name == "Set":
            return True  # directory state vs member-internal state
        return self._footprints_commute(a, b)

    def _leaf_footprint(self, node_id: str) -> tuple[ActionRecord, ...]:
        """The primitive accesses recorded under a node (itself if a leaf)."""
        cached = self._footprint_cache.get(node_id)
        if cached is not None:
            return cached
        children = self.child_ids.get(node_id, ())
        if not children:
            footprint: tuple[ActionRecord, ...] = (self.records[node_id],)
        else:
            footprint = tuple(
                leaf for child in children for leaf in self._leaf_footprint(child)
            )
        self._footprint_cache[node_id] = footprint
        return footprint

    def _footprints_commute(self, a: ActionRecord, b: ActionRecord) -> bool:
        """Physical conflict test over the executed leaf accesses.

        Leaves on distinct primitive objects touch disjoint state and
        commute; leaves on the same object are decided by that object's
        matrix.  Sound because the recorded leaves are exactly the state
        the two subtrees read or wrote in this execution.
        """
        for la in self._leaf_footprint(a.node_id):
            for lb in self._leaf_footprint(b.node_id):
                if la.target != lb.target:
                    continue
                matrix = self._matrix_for(la.target.type_name)
                if matrix is None or not matrix.compatible(
                    Invocation(la.operation, la.args), Invocation(lb.operation, lb.args)
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # Initial state
    # ------------------------------------------------------------------
    def initial_state(self) -> _State:
        leaves = self.history.leaves()
        ids = [r.node_id for r in leaves]
        edges = set()
        for i, first in enumerate(ids):
            for second in ids[i + 1 :]:
                if not self.commute(first, second):
                    edges.add((first, second))
        return frozenset(ids), frozenset(edges)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def reduce(self, initial: _State) -> Optional[_State]:
        visited: set[_State] = set()
        stack: list[_State] = [initial]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            self.states_explored += 1
            if self.states_explored > self.budget:
                self.exhausted = True
                return None
            if self._is_goal(state):
                return state
            stack.extend(self._collapse_moves(state))
        return None

    def _is_goal(self, state: _State) -> bool:
        elements, __ = state
        return all(self.records[node_id].parent_id is None for node_id in elements)

    @staticmethod
    def _reachability(
        elements: frozenset, edges: frozenset
    ) -> dict[str, set[str]]:
        """Transitive successors of every element (DFS per node)."""
        direct: dict[str, set[str]] = {e: set() for e in elements}
        for src, dst in edges:
            direct[src].add(dst)
        reach: dict[str, set[str]] = {}

        def visit(node: str) -> set[str]:
            if node in reach:
                return reach[node]
            reach[node] = set()  # placeholder breaks (impossible) cycles
            result: set[str] = set()
            for succ in direct[node]:
                result.add(succ)
                result |= visit(succ)
            reach[node] = result
            return result

        for element in elements:
            visit(element)
        return reach

    def _collapse_moves(self, state: _State) -> Iterator[_State]:
        elements, edges = state
        reach = self._reachability(elements, edges)

        parents: dict[str, list[str]] = {}
        for node_id in elements:
            parent = self.records[node_id].parent_id
            if parent is not None:
                parents.setdefault(parent, []).append(node_id)

        # Shallowest parent first, so the depth-first search pops the
        # deepest collapse: a root collapsed while another tree still has
        # uncollapsed subtransactions inherits leaf-level orderings that
        # commuting parents would have dissolved, and the search then has
        # an exponential dead subtree to exhaust before backtracking.
        for parent, members in sorted(
            parents.items(), key=lambda item: self.records[item[0]].depth
        ):
            expected = self.child_ids.get(parent, ())
            if len(members) != len(expected) or set(members) != set(expected):
                continue  # not all children are elements yet
            group = set(members)
            # Contiguity: no foreign element strictly between two members.
            blocked = False
            for x in elements:
                if x in group:
                    continue
                after_some = any(x in reach[s] for s in group)
                before_some = any(s in reach[x] for s in group)
                if after_some and before_some:
                    blocked = True
                    break
            if blocked:
                continue
            yield from self._apply_collapse(state, parent, group, reach)

    def _apply_collapse(
        self,
        state: _State,
        parent: str,
        group: set[str],
        reach: dict[str, set[str]],
    ) -> Iterator[_State]:
        elements, edges = state
        new_elements = frozenset((elements - group) | {parent})
        base_edges = {
            (src, dst)
            for src, dst in edges
            if src not in group and dst not in group
        }
        forced: set[tuple[str, str]] = set()
        for x in new_elements:
            if x == parent:
                continue
            if self.commute(parent, x):
                continue  # relief: the inherited order (if any) dissolves
            after = any(x in reach[s] for s in group)   # some member precedes x
            before = any(s in reach[x] for s in group)  # x precedes some member
            if after:
                forced.add((parent, x))
            elif before:
                forced.add((x, parent))
            # else: no inherited orientation.  The partner commuted with
            # every member individually, so before the collapse it could
            # be swapped to either side of the group — the pair's order
            # is genuinely free.  A free conflicting pair never blocks a
            # later contiguity check from both sides (that would need
            # *ordered* paths both ways, which are tracked), so it is
            # left unordered and oriented by the final topological sort.
        yield new_elements, frozenset(base_edges | forced)

    # ------------------------------------------------------------------
    # Serial order extraction
    # ------------------------------------------------------------------
    def serial_order(self, state: _State) -> list[str]:
        elements, edges = state
        direct: dict[str, set[str]] = {e: set() for e in elements}
        indegree: dict[str, int] = {e: 0 for e in elements}
        for src, dst in edges:
            direct[src].add(dst)
            indegree[dst] += 1
        # Kahn's algorithm; ties broken by begin_seq for stability.
        ready = sorted(
            (e for e in elements if indegree[e] == 0),
            key=lambda e: self.records[e].begin_seq,
        )
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(direct[node], key=lambda e: self.records[e].begin_seq):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        return [self.records[node_id].txn for node_id in order]


def is_semantically_serializable(
    history: History,
    type_matrices: Optional[Mapping[str, CompatibilityMatrix]] = None,
    db: Optional[Database] = None,
    budget: int = 200_000,
) -> ReductionResult:
    """Check a recorded history for semantic serializability.

    Args:
        history: A recorded execution (aborted transactions are filtered
            out; serializability concerns the committed ones).
        type_matrices: Compatibility matrices of the encapsulated types
            appearing in the history, keyed by type name.  Generic-type
            matrices are always available implicitly.
        db: Convenience alternative — the matrices are collected from the
            database's live encapsulated objects.
        budget: Maximum number of reduction states to explore.

    Returns:
        A :class:`ReductionResult`; ``serializable`` is True iff the
        reduction reached a serial order of the transaction roots.
    """
    matrices: dict[str, CompatibilityMatrix] = {}
    if db is not None:
        matrices.update(matrices_from_database(db))
    if type_matrices is not None:
        matrices.update(type_matrices)

    committed = history.committed_only()
    if not committed.leaves():
        return ReductionResult(True, [], 0, False)

    reducer = _Reducer(committed, matrices, budget)
    final = reducer.reduce(reducer.initial_state())
    if final is None:
        return ReductionResult(
            serializable=False,
            serial_order=None,
            states_explored=reducer.states_explored,
            exhausted=reducer.exhausted,
        )
    return ReductionResult(
        serializable=True,
        serial_order=reducer.serial_order(final),
        states_explored=reducer.states_explored,
        exhausted=reducer.exhausted,
    )
