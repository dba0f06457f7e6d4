"""Waits-for graph and deadlock detection.

Blocked lock requests induce wait edges between *top-level* transactions
(a blocked subtransaction blocks its whole transaction, since execution
within a transaction is sequential).  The kernel updates this graph on
every block / wake and asks for a cycle through the transaction that just
blocked; a cycle is a deadlock and one member is aborted (compensated).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry


class WaitsForGraph:
    """Directed graph: waiter transaction name -> holder transaction names.

    With a metrics registry bound, the graph keeps the ``waits.edges``
    gauge current (high-water mark included) and counts every cycle
    check under ``waits.cycle_checks``.

    Not locked itself: under the threaded runtime every update (the
    lock table's waits hook, a commit or abort) and every walk (the
    deadlock coordinator) runs under the kernel lock.
    """

    def __init__(self, metrics: Optional["MetricsRegistry"] = None) -> None:
        self._edges: defaultdict[str, set[str]] = defaultdict(set)
        self._edge_gauge = metrics.gauge("waits.edges") if metrics else None
        self._cycle_counter = metrics.counter("waits.cycle_checks") if metrics else None
        # Starting from zero keeps the gauge truthful when a graph is
        # constructed over an already-used registry (the hwm survives in
        # the registry's gauge object).
        self._edges_changed()

    def _edges_changed(self) -> None:
        if self._edge_gauge is not None:
            self._edge_gauge.set(self.edge_count)

    def set_waits(self, waiter: str, holders: set[str]) -> None:
        """Replace *waiter*'s outgoing edges (self-edges are dropped)."""
        self._edges[waiter] = {h for h in holders if h != waiter}
        self._edges_changed()

    def clear_waits(self, waiter: str) -> None:
        self._edges.pop(waiter, None)
        self._edges_changed()

    def remove_transaction(self, name: str) -> None:
        """Drop the transaction entirely (it committed or aborted)."""
        self._edges.pop(name, None)
        for holders in self._edges.values():
            holders.discard(name)
        self._edges_changed()

    def waits_of(self, waiter: str) -> frozenset[str]:
        return frozenset(self._edges.get(waiter, ()))

    @property
    def edge_count(self) -> int:
        return sum(len(holders) for holders in self._edges.values())

    def edges_involving(self, names: set[str]) -> list[tuple[str, str]]:
        """Every edge touching one of *names*, as (waiter, holder) pairs.

        The torture harness's leak check: a transaction that committed
        or aborted must appear in no edge, in either role.
        """
        return sorted(
            (waiter, holder)
            for waiter, holders in self._edges.items()
            for holder in holders
            if waiter in names or holder in names
        )

    def find_cycle_through(self, start: str) -> Optional[list[str]]:
        """A cycle containing *start*, as a list of names, or None.

        Depth-first search from *start* following wait edges; the first
        path returning to *start* is reported (deterministically, since
        neighbours are visited in sorted order).
        """
        if self._cycle_counter is not None:
            self._cycle_counter.inc()
        # Iterative, with one sorted-neighbour iterator per path entry: a
        # recursive closure would leave a function <-> cell reference
        # cycle behind on every check.
        path: list[str] = [start]
        on_path = {start}
        visited: set[str] = set()
        frontier = [iter(sorted(self._edges.get(start, ())))]
        while frontier:
            for neighbour in frontier[-1]:
                if neighbour == start:
                    return list(path)
                if neighbour in on_path or neighbour in visited:
                    continue
                path.append(neighbour)
                on_path.add(neighbour)
                frontier.append(iter(sorted(self._edges.get(neighbour, ()))))
                break
            else:
                frontier.pop()
                node = path.pop()
                on_path.discard(node)
                visited.add(node)
        return None

    def find_any_cycle(self) -> Optional[list[str]]:
        """Any cycle in the graph (used as a quiescence backstop)."""
        for start in sorted(self._edges):
            cycle = self.find_cycle_through(start)
            if cycle is not None:
                return cycle
        return None
