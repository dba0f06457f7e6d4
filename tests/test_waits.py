"""Unit tests for the waits-for graph and cycle detection."""

from __future__ import annotations

import gc
import random

from repro.obs import MetricsRegistry
from repro.txn.waits import WaitsForGraph


class TestEdges:
    def test_set_and_clear(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B", "C"})
        assert g.waits_of("A") == {"B", "C"}
        g.clear_waits("A")
        assert g.waits_of("A") == frozenset()

    def test_self_edges_dropped(self):
        g = WaitsForGraph()
        g.set_waits("A", {"A", "B"})
        assert g.waits_of("A") == {"B"}

    def test_remove_transaction(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        g.set_waits("C", {"A"})
        g.remove_transaction("A")
        assert g.waits_of("A") == frozenset()
        assert g.waits_of("C") == frozenset()

    def test_edge_count(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B", "C"})
        g.set_waits("B", {"C"})
        assert g.edge_count == 3


class TestCycles:
    def test_no_cycle(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        assert g.find_cycle_through("A") is None
        assert g.find_any_cycle() is None

    def test_two_cycle(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        g.set_waits("B", {"A"})
        cycle = g.find_cycle_through("A")
        assert cycle is not None
        assert set(cycle) == {"A", "B"}

    def test_three_cycle(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        g.set_waits("C", {"A"})
        cycle = g.find_cycle_through("B")
        assert cycle is not None
        assert set(cycle) == {"A", "B", "C"}

    def test_cycle_must_pass_through_start(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        g.set_waits("C", {"B"})  # cycle B<->C not through A
        assert g.find_cycle_through("A") is None
        assert g.find_any_cycle() is not None

    def test_deterministic_cycle_report(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B", "C"})
        g.set_waits("B", {"A"})
        g.set_waits("C", {"A"})
        # sorted neighbour order: B explored before C
        assert g.find_cycle_through("A") == ["A", "B"]

    def test_find_any_cycle_empty_graph(self):
        assert WaitsForGraph().find_any_cycle() is None

    def test_branching_graph_with_deep_cycle(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B", "D"})
        g.set_waits("B", {"C"})
        g.set_waits("D", {"E"})
        g.set_waits("E", {"A"})
        cycle = g.find_cycle_through("A")
        assert cycle == ["A", "D", "E"]


def recursive_cycle_through(edges: dict[str, set[str]], start: str):
    """The recursive depth-first search the graph once ran, kept as the
    oracle for the iterative one: sorted neighbours, first path back."""
    path, on_path, visited = [start], {start}, set()

    def dfs(node):
        for neighbour in sorted(edges.get(node, ())):
            if neighbour == start:
                return list(path)
            if neighbour in on_path or neighbour in visited:
                continue
            path.append(neighbour)
            on_path.add(neighbour)
            found = dfs(neighbour)
            if found is not None:
                return found
            on_path.discard(neighbour)
            path.pop()
        visited.add(node)
        return None

    return dfs(start)


class TestIterativeSearch:
    def test_same_cycle_as_the_recursive_search(self):
        """On 500 seeded random graphs the search reports the very cycle
        (or None) the recursive one did, from every start."""
        rng = random.Random(7)
        names = [f"T{i}" for i in range(7)]
        for __ in range(500):
            g = WaitsForGraph()
            edges = {}
            for waiter in rng.sample(names, rng.randint(1, len(names))):
                holders = set(rng.sample(names, rng.randint(0, 3))) - {waiter}
                g.set_waits(waiter, holders)
                edges[waiter] = holders
            for start in names:
                assert g.find_cycle_through(start) == recursive_cycle_through(edges, start)

    def test_a_check_leaves_no_reference_cycle(self):
        """A recursive closure would leave a function <-> cell cycle per
        check for the cyclic collector; the iterative search leaves none."""
        g = WaitsForGraph()
        g.set_waits("A", {"B", "D"})
        g.set_waits("B", {"C"})
        g.set_waits("D", {"E"})
        g.set_waits("E", {"A"})
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for __ in range(10):
                assert g.find_cycle_through("A") == ["A", "D", "E"]
                assert g.find_cycle_through("C") is None
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestMetricsIntegration:
    """The waits.edges gauge and waits.cycle_checks counter invariants."""

    def test_edge_gauge_tracks_every_mutation(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("waits.edges")
        g = WaitsForGraph(registry)
        assert gauge.value == 0

        g.set_waits("A", {"B", "C"})
        assert gauge.value == g.edge_count == 2
        g.set_waits("B", {"C"})
        assert gauge.value == g.edge_count == 3
        g.clear_waits("A")
        assert gauge.value == g.edge_count == 1
        g.remove_transaction("C")
        assert gauge.value == g.edge_count == 0
        assert gauge.hwm == 3

    def test_self_edges_never_counted(self):
        registry = MetricsRegistry()
        g = WaitsForGraph(registry)
        g.set_waits("A", {"A", "B"})
        assert registry.gauge("waits.edges").value == 1

    def test_remove_drops_incoming_and_outgoing_edges(self):
        registry = MetricsRegistry()
        g = WaitsForGraph(registry)
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        g.set_waits("C", {"A"})
        g.remove_transaction("A")
        assert g.edge_count == 1  # only B -> C survives
        assert registry.gauge("waits.edges").value == 1

    def test_rebuild_resets_gauge_but_keeps_hwm(self):
        """A fresh graph on the same registry must zero the live value
        while the run-wide high-water mark survives in the registry's
        gauge.  (The kernel now maintains its graph incrementally, but
        construct-over-the-same-registry remains part of the API.)"""
        registry = MetricsRegistry()
        g = WaitsForGraph(registry)
        g.set_waits("A", {"B", "C", "D"})
        rebuilt = WaitsForGraph(registry)
        gauge = registry.gauge("waits.edges")
        assert gauge.value == 0
        assert gauge.hwm == 3
        assert rebuilt.edge_count == 0

    def test_cycle_checks_counted_including_backstop_scan(self):
        registry = MetricsRegistry()
        counter = registry.counter("waits.cycle_checks")
        g = WaitsForGraph(registry)
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        g.find_cycle_through("A")
        assert counter.value == 1
        # find_any_cycle scans via find_cycle_through per start node
        g.find_any_cycle()
        assert counter.value == 3

    def test_three_txn_ring_detected_with_metrics_bound(self):
        registry = MetricsRegistry()
        g = WaitsForGraph(registry)
        g.set_waits("A", {"B"})
        g.set_waits("B", {"C"})
        g.set_waits("C", {"A"})
        assert registry.gauge("waits.edges").value == 3
        cycle = g.find_cycle_through("A")
        assert cycle is not None and set(cycle) == {"A", "B", "C"}
        assert registry.counter("waits.cycle_checks").value == 1

    def test_unbound_graph_has_no_instruments(self):
        g = WaitsForGraph()
        g.set_waits("A", {"B"})
        assert g.find_cycle_through("A") is None  # no counter, no crash


def _expected_edges(kernel) -> dict[str, set[str]]:
    """The waits-for edges implied by the live lock queues."""
    expected: dict[str, set[str]] = {}
    for pending in kernel.locks.iter_pending():
        waiter = pending.node.top_level_name
        holders = {b.top_level_name for b in pending.blockers} - {waiter}
        if holders:
            expected[waiter] = holders
    return expected


def _actual_edges(kernel) -> dict[str, set[str]]:
    return {w: set(hs) for w, hs in kernel.waits._edges.items() if hs}


class TestIncrementalGraphInvariant:
    """The incrementally maintained graph must always equal the graph a
    full rebuild from the queues would produce — in particular across
    cancellations (victim abort, an expiring lock-wait budget, an
    external interrupt), which used to leave stale ``pending.blockers``
    behind."""

    def _run_checked(self, programs_factory, seed=None, setup=None, **kernel_options):
        from repro.core.kernel import TransactionManager
        from repro.runtime.scheduler import Scheduler

        db, programs = programs_factory()
        policy = "random" if seed is not None else "fifo"
        kernel = TransactionManager(
            db, scheduler=Scheduler(policy=policy, seed=seed), **kernel_options
        )
        if setup is not None:
            setup(kernel)
        checks = {"n": 0}

        def probe(node, phase):
            assert _actual_edges(kernel) == _expected_edges(kernel)
            kernel.locks.check_invariants()
            checks["n"] += 1
            return None

        kernel.probe = probe
        for name, program in programs.items():
            kernel.spawn(name, program)
        kernel.run()
        assert checks["n"] > 0
        assert _actual_edges(kernel) == {} == _expected_edges(kernel)
        assert kernel.waits.edge_count == 0
        return kernel

    @staticmethod
    def _opposing_writes():
        from repro.objects.database import Database

        db = Database()
        x = db.new_atom("x", 0)
        y = db.new_atom("y", 0)
        db.attach_child(x)
        db.attach_child(y)

        async def ab(tx):
            await tx.put(x, "A")
            await tx.pause()
            await tx.put(y, "A")
            return "A"

        async def ba(tx):
            await tx.put(y, "B")
            await tx.pause()
            await tx.put(x, "B")
            return "B"

        return db, {"A": ab, "B": ba}

    @staticmethod
    def _holder_and_waiters():
        """H holds x for 150 virtual units, then writes y; W1 and W2
        queue behind it on x (W2 also behind W1's request)."""
        from repro.objects.database import Database
        from repro.runtime.scheduler import Pause

        db = Database()
        x = db.new_atom("x", 0)
        y = db.new_atom("y", 0)
        db.attach_child(x)
        db.attach_child(y)

        async def holder(tx):
            await tx.put(x, "H")
            await Pause(150.0)
            await tx.put(y, "H")  # probed after the waiters' requests went
            return "H"

        def waiter(name):
            async def program(tx):
                await tx.pause()  # let H grab x
                await tx.put(x, name)
                return name

            return program

        return db, {"H": holder, "W1": waiter("W1"), "W2": waiter("W2")}

    def test_cancel_on_lock_timeout_leaves_no_stale_edges(self):
        """An expiring budget cancels each blocked waiter's request; its
        edges (and blocker-index entries) must vanish with it."""
        from repro.errors import LockTimeout

        kernel = self._run_checked(self._holder_and_waiters, lock_timeout=20.0)
        assert kernel.handles["H"].committed
        for name in ("W1", "W2"):
            assert isinstance(kernel.handles[name].error, LockTimeout)
        assert kernel.obs.snapshot().counter("timeout.fired") == 2

    def test_cancel_on_interrupt_leaves_no_stale_edges(self):
        """``interrupt_transaction`` on a blocked waiter cancels its
        queued request; W2, queued behind it, is re-tested and keeps
        only the edge to H."""
        from repro.errors import TransactionAborted

        reason = TransactionAborted("W1", "interrupted by the test")

        def interrupt_w1(kernel):
            kernel.scheduler.call_later(5.0, lambda: kernel.interrupt_transaction("W1", reason))

        kernel = self._run_checked(self._holder_and_waiters, setup=interrupt_w1)
        assert kernel.handles["W1"].aborted and kernel.handles["W1"].error is reason
        assert kernel.handles["H"].committed and kernel.handles["W2"].committed

    def test_cancel_during_detection_victim_abort(self):
        kernel = self._run_checked(self._opposing_writes)
        outcomes = sorted(
            (h.committed, h.aborted) for h in kernel.handles.values()
        )
        assert (True, False) in outcomes  # at least one side commits

    def test_contended_workload_under_detection(self):
        def factory():
            from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig

            workload = OrderEntryWorkload(
                WorkloadConfig(n_items=2, orders_per_item=2, seed=7)
            )
            return workload.db, dict(workload.take(6))

        kernel = self._run_checked(factory, seed=7)
        assert kernel.metrics.blocks > 0
