"""In-process tests for the overload-robust transaction server.

Each test builds a small real server (real threads, real kernel) and
drives it through one robustness behaviour: plain commits, queue-full
and deadline-unmeetable shedding, deadline interrupts of in-flight
work, degraded read-only mode with hysteretic recovery, graceful drain
with straggler aborts, and fault-injected delays and worker crashes.
Every server is shut down and its drain report checked — lock hygiene
after chaos is the point of the exercise.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.orderentry.schema import build_order_entry_database
from repro.runtime.scheduler import Pause
from repro.server import (
    AdmissionConfig,
    DegradeConfig,
    Request,
    TransactionServer,
)
from tests.helpers import Caller, wait_until


def make_server(**kwargs) -> TransactionServer:
    kwargs.setdefault(
        "built", build_order_entry_database(n_items=2, orders_per_item=4)
    )
    kwargs.setdefault("n_threads", 2)
    return TransactionServer(**kwargs).start()


class TestBasicServing:
    def test_write_and_read_requests_commit(self):
        server = make_server()
        try:
            placed = server.submit(Request(op="place", item=0, customer_no=42))
            assert placed.ok, placed.to_dict()
            assert isinstance(placed.result, int)
            stock = server.submit(Request(op="stock-check", item=0))
            assert stock.ok and stock.result == 1000
            restock = server.submit(Request(op="restock", item=0, quantity=7))
            assert restock.ok and restock.result is None
            stock = server.submit(Request(op="stock-check", item=0))
            assert stock.ok and stock.result == 1007
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()

    def test_unknown_op_fails_with_stable_code(self):
        server = make_server()
        try:
            response = server.submit(Request(op="frobnicate"))
            assert response.status == "failed"
            assert response.error["code"] == "unknown-operation"
        finally:
            assert server.shutdown().clean

    def test_unknown_item_fails_cleanly(self):
        server = make_server()
        try:
            response = server.submit(Request(op="place", item=99))
            assert response.status == "failed"
            assert response.error["code"] == "unknown-object"
        finally:
            assert server.shutdown().clean

    def test_stats_shape(self):
        server = make_server()
        try:
            server.submit(Request(op="stock-check", item=0))
            stats = server.stats()
            for key in ("requests", "ok", "shed", "inflight", "degraded",
                        "draining", "service_estimate"):
                assert key in stats
            assert stats["ok"] >= 1
        finally:
            assert server.shutdown().clean


class TestOverloadShedding:
    def test_queue_full_sheds_with_retry_after(self):
        server = make_server(
            time_scale=0.002,
            think_cost=25.0,  # ~50 ms service time
            admission=AdmissionConfig(max_inflight=1, queue_cap=1),
            default_deadline=5.0,
        )
        try:
            pendings = [
                Caller(server, Request(op="place", item=0, request_id=f"r{i}"))
                for i in range(12)
            ]
            responses = [p.wait(10.0) for p in pendings]
            sheds = [r for r in responses if r is not None and r.shed]
            assert sheds, [r.to_dict() for r in responses if r]
            for shed in sheds:
                assert shed.retry_after is not None and shed.retry_after > 0
                assert shed.error["code"] == "request-shed"
                assert shed.error["reason_code"] in {
                    "queue-full", "deadline-unmeetable", "expired-in-queue",
                    "degraded-writes",
                }
            oks = [r for r in responses if r is not None and r.ok]
            assert oks  # admitted work still finishes
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()

    def test_deadline_unmeetable_shed_at_admission(self):
        server = make_server(
            time_scale=0.002,
            think_cost=250.0,  # ~500 ms service time
            admission=AdmissionConfig(
                max_inflight=1, queue_cap=64, initial_service_estimate=0.5
            ),
        )
        try:
            # One long request occupies the only slot; the estimator then
            # predicts ~500 ms of wait, dooming a 50 ms deadline upfront.
            slow = Caller(server, Request(op="place", item=0, deadline=5.0))
            wait_until(lambda: server.inflight_count() == 1)
            response = server.submit(Request(op="place", item=1, deadline=0.05))
            assert response.shed, response.to_dict()
            assert response.error["reason_code"] == "deadline-unmeetable"
            assert response.retry_after > 0
            assert slow.wait(10.0).ok
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()


class TestDeadlines:
    def test_slow_request_is_deadline_aborted(self):
        server = make_server(
            time_scale=0.002,
            think_cost=400.0,  # ~800 ms service time
            deadline_check=0.01,
        )
        try:
            response = server.submit(Request(op="place", item=0, deadline=0.1))
            assert response.status == "aborted", response.to_dict()
            assert response.error["code"] == "deadline-exceeded"
            # The server survives and still serves within-deadline work.
            follow_up = server.submit(
                Request(op="stock-check", item=0, deadline=5.0)
            )
            assert follow_up.ok
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()

    def test_deadline_bounds_lock_waits(self):
        server = make_server()
        try:
            response = server.submit(Request(op="place", item=0, deadline=0.2))
            assert response.ok
            # The propagation seam is installed and clamps to the floor.
            assert server.tk.lock_timeout_fn == server._lock_wait_budget
        finally:
            assert server.shutdown().clean


class TestDeadlockDetection:
    """The server's kernel detects cycles when the closing waits-for
    edge is recorded; lock-wait budgets still bound every other wait."""

    def test_crossing_places_resolved_without_the_stall_poll(self):
        """Two two-line places in crossing item order.  A probe holds
        each NewOrder on item 0 between its counter read and its counter
        write until both transactions have read, so the read->write
        upgrade cycle is certain; with the stall poll pushed out to 5 s
        only block-time detection can resolve it inside a second."""
        server = make_server()
        server.tk.scheduler.stall_check = 5.0
        kernel = server.tk
        counter = server.built.items[0].impl_component("NextOrderNo").oid
        have_read = set()

        def probe(node, phase):
            if node.target != counter:
                return None
            if phase == "post" and node.invocation.operation == "Get":
                have_read.add(node.top_level_name)
            if phase != "pre" or node.invocation.operation != "Put":
                return None

            async def until_both_have_read():
                give_up = time.monotonic() + 2.0
                while len(have_read) < 2 and time.monotonic() < give_up:
                    await Pause(0.0)

            return until_both_have_read()

        kernel.probe = probe
        try:
            started = time.monotonic()
            pending = [
                Caller(server, Request(op="place", customer_no=1, lines=lines, deadline=5.0))
                for lines in (((0, 1), (1, 1)), ((1, 1), (0, 1)))
            ]
            responses = [p.wait(5.0) for p in pending]
            elapsed = time.monotonic() - started
            assert all(r is not None and r.ok for r in responses), responses
            assert elapsed < 1.0, elapsed
            assert len(have_read) == 2
            snapshot = server.tk.obs.snapshot()
            assert kernel.metrics.deadlocks >= 1
            assert kernel.metrics.subtxn_restarts >= 1  # victims restart, nobody aborts
            assert snapshot.counter("thread.stall_checks") == 0
            assert snapshot.counter("timeout.fired") == 0
            server.tk.locks.check_invariants()
        finally:
            kernel.probe = None
            assert server.shutdown().clean

    def test_deadline_bounded_wait_still_ends_in_lock_timeout(self):
        """No cycle, just a holder that outlives the waiter's deadline:
        the wait budget (remaining deadline) fires under "detect" too.
        The reaper is slowed so the budget, not the reaper, ends it."""
        server = make_server(time_scale=0.002, think_cost=300.0, deadline_check=5.0)
        try:
            holder = Caller(server, Request(op="place", item=0, deadline=5.0))
            give_up = time.monotonic() + 2.0
            while server.tk.locks.lock_count == 0 and time.monotonic() < give_up:
                time.sleep(0.001)
            time.sleep(0.05)  # NewOrder(item 0) is granted; its think time runs
            blocked = server.submit(Request(op="ship", item=0, order_no=1, deadline=0.15))
            assert blocked.status == "aborted", blocked.to_dict()
            assert blocked.error["code"] == "lock-timeout"
            assert server.tk.obs.snapshot().counter("timeout.fired") >= 1
            held = holder.wait(5.0)
            assert held is not None and held.ok
        finally:
            assert server.shutdown().clean


class TestSlotWait:
    def test_a_caller_whose_slot_wait_runs_out_is_never_run(self):
        """A queued caller gives up after its deadline plus the stall
        backstop.  By then its ticket has expired, so the dequeue that
        follows sheds it instead of running it: one spawned task, the
        holder's."""
        server = make_server(
            time_scale=0.002,
            think_cost=150.0,  # ~300 ms holding the only slot
            admission=AdmissionConfig(max_inflight=1, queue_cap=4),
        )
        server.tk.scheduler.stall_timeout = 0.05
        try:
            holder = Caller(server, Request(op="restock", item=0, deadline=5.0))
            wait_until(lambda: server.inflight_count() == 1)
            late = server.submit(Request(op="stock-check", item=1, deadline=0.05))
            assert server.admission.depth() == 1  # still queued when it gave up
            held = holder.wait(10.0)
            counters = server.obs.snapshot().counters
        finally:
            report = server.shutdown()
        assert late.status == "failed", late.to_dict()
        assert "response wait timed out" in late.error["message"]
        assert held is not None and held.ok, held
        assert counters["thread.spawned"] == counters["thread.caller_drives"] == 1
        assert counters["admission.shed.expired-in-queue"] == 1
        assert report.clean, report.to_dict()


class TestDegradedMode:
    def test_degraded_sheds_writes_serves_reads(self):
        server = make_server()
        try:
            server.degrade.force(True)
            write = server.submit(Request(op="place", item=0))
            assert write.shed
            assert write.error["reason_code"] == "degraded-writes"
            assert write.degraded
            read = server.submit(Request(op="stock-check", item=0))
            assert read.ok
            server.degrade.force(False)
            write = server.submit(Request(op="place", item=0))
            assert write.ok
        finally:
            assert server.shutdown().clean

    def test_sustained_overload_enters_and_exits_degraded(self):
        server = make_server(
            time_scale=0.002,
            think_cost=50.0,  # ~100 ms service time
            degrade=DegradeConfig(alpha=0.5, enter_threshold=0.5,
                                  exit_threshold=0.1, min_dwell=0.0),
            admission=AdmissionConfig(max_inflight=1, queue_cap=1),
            default_deadline=10.0,
        )
        try:
            # A write burst against one slot and a one-deep queue: the
            # overflow sheds queue-full, driving the EWMA over the enter
            # threshold.
            pendings = [
                Caller(server, Request(op="place", item=0, request_id=f"ov{i}"))
                for i in range(8)
            ]
            # One runs, one queues, the other six are shed at once.
            wait_until(lambda: sum(p.done for p in pendings) >= 6)
            assert server.degrade.degraded
            assert server.degrade.entered_count == 1
            # Read-only work keeps flowing while degraded, and each
            # admitted read decays the EWMA until hysteretic recovery.
            response = None
            for i in range(30):
                response = server.submit(
                    Request(op="stock-check", item=0, request_id=f"rec{i}",
                            deadline=10.0)
                )
                if not server.degrade.degraded:
                    break
            assert not server.degrade.degraded
            assert response is not None and response.ok
            assert server.degrade.exited_count == 1
            for p in pendings:
                assert p.wait(10.0) is not None
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()


class TestDrain:
    def test_drain_finishes_inflight_and_sheds_queued(self):
        server = make_server(
            time_scale=0.002,
            think_cost=50.0,  # ~100 ms per request
            admission=AdmissionConfig(max_inflight=1, queue_cap=8),
            default_deadline=10.0,
        )
        pendings = [
            Caller(server, Request(op="place", item=0, request_id=f"d{i}"))
            for i in range(4)
        ]
        # The first request is in the kernel, the other three queue.
        wait_until(lambda: server.tk.locks.lock_count > 0 and server.admission.depth() == 3)
        report = server.shutdown(drain_deadline=5.0)
        assert report.clean, report.to_dict()
        responses = [p.wait(1.0) for p in pendings]
        assert all(r is not None for r in responses)
        statuses = {r.status for r in responses}
        assert "ok" in statuses  # in-flight work finished
        draining = [r for r in responses if r.shed]
        for shed in draining:
            assert shed.error["reason_code"] == "draining"
            assert shed.retry_after > 0

    def test_post_drain_submissions_are_shed(self):
        server = make_server()
        report = server.shutdown()
        assert report.clean
        response = server.submit(Request(op="place", item=0))
        assert response.shed
        assert response.error["reason_code"] == "draining"

    def test_drain_aborts_stragglers_past_deadline(self):
        server = make_server(
            time_scale=0.002,
            think_cost=1000.0,  # ~2 s service time, far past the drain budget
            default_deadline=30.0,
        )
        pending = Caller(server, Request(op="place", item=0))
        wait_until(lambda: server.tk.locks.lock_count > 0)
        report = server.shutdown(drain_deadline=0.1, grace=2.0)
        assert report.stragglers_aborted == 1, report.to_dict()
        assert report.clean, report.to_dict()
        response = pending.wait(1.0)
        assert response is not None and response.status == "aborted"

    def test_double_shutdown_is_safe(self):
        server = make_server()
        first = server.shutdown()
        second = server.shutdown()
        assert first.clean and second.clean


class TestFaultInjection:
    def test_injected_delay_stretches_but_commits(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="pre-acquire", action="delay", delay=50.0, max_fires=1),
        ))
        server = make_server(time_scale=0.002, faults=plan)
        try:
            response = server.submit(Request(op="place", item=0, deadline=5.0))
            assert response.ok, response.to_dict()
        finally:
            assert server.shutdown().clean

    def test_injected_crash_aborts_request_not_server(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="pre-acquire", action="crash", txn="req-0", max_fires=1),
        ))
        server = make_server(faults=plan)
        try:
            crashed = server.submit(Request(op="place", item=0))
            assert crashed.status == "aborted", crashed.to_dict()
            assert "injected worker crash" in crashed.error["message"]
            # The worker survived: the very next request commits.
            follow_up = server.submit(Request(op="place", item=0))
            assert follow_up.ok, follow_up.to_dict()
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()

    def test_injected_crash_during_overload_keeps_queue_bounded(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="pre-acquire", action="crash", probability=0.3,
                      max_fires=0),
        ), seed=7)
        server = make_server(
            time_scale=0.001,
            think_cost=10.0,
            faults=plan,
            admission=AdmissionConfig(max_inflight=2, queue_cap=4),
        )
        try:
            pendings = [
                Caller(server, Request(op="place", item=i % 2, request_id=f"f{i}"))
                for i in range(20)
            ]
            responses = [p.wait(10.0) for p in pendings]
            assert all(r is not None for r in responses)
            assert server.admission.depth() <= 4
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()


class TestConcurrentClients:
    def test_many_threads_submitting_concurrently(self):
        server = make_server(n_threads=4)
        results = []
        lock = threading.Lock()

        def client(index: int) -> None:
            response = server.submit(
                Request(op="place" if index % 2 else "stock-check",
                        item=index % 2, request_id=f"c{index}", deadline=5.0)
            )
            with lock:
                results.append(response)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
        try:
            assert len(results) == 16
            assert all(r.ok or r.shed for r in results), [
                r.to_dict() for r in results if not (r.ok or r.shed)
            ]
            assert any(r.ok for r in results)
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()


class TestAdmissionFastPath:
    """A request that finds a free slot and nobody waiting runs at once:
    no queue round trip and no hand-off event.  Counts, not timings."""

    def test_free_slots_take_no_queue_round_trip_and_no_event(self, monkeypatch):
        """One client, 300 requests, slots always free: admission never
        dequeues, no ticket builds an Event, and every admit observes a
        queue wait (of 0)."""
        server = make_server(admission=AdmissionConfig(max_inflight=4))
        acquires = []
        acquire_next = server.admission.acquire_next

        def counting_acquire_next(*args, **kwargs):
            acquires.append(1)
            return acquire_next(*args, **kwargs)

        events = []

        class CountingEvent(threading.Event):
            def __init__(self) -> None:
                events.append(1)
                super().__init__()

        monkeypatch.setattr(server.admission, "acquire_next", counting_acquire_next)
        monkeypatch.setattr(threading, "Event", CountingEvent)
        try:
            responses = [
                server.submit(Request(op=("place", "stock-check", "restock")[i % 3], item=i % 2))
                for i in range(300)
            ]
            snapshot = server.obs.snapshot()
        finally:
            monkeypatch.undo()
            report = server.shutdown()
        assert report.clean, report.to_dict()
        assert all(r.ok for r in responses)
        assert acquires == []
        assert events == []
        assert all(r.queue_wait == 0.0 for r in responses)
        admitted = snapshot.counters["admission.admitted"]
        assert admitted == 300
        assert snapshot.histograms["queue.wait"].count == admitted
        assert snapshot.histograms["queue.wait"].sum == 0.0
        assert snapshot.gauges["queue.depth.read"]["hwm"] == 0
        assert snapshot.gauges["queue.depth.write"]["hwm"] == 0

    def test_a_full_slot_queues_and_hands_over_at_the_holders_end(self):
        server = make_server(
            time_scale=0.002,
            think_cost=150.0,  # ~300 ms holding the only slot
            admission=AdmissionConfig(max_inflight=1, queue_cap=4),
        )
        try:
            holder = Caller(server, Request(op="restock", item=0, deadline=5.0))
            wait_until(lambda: server.inflight_count() == 1)
            second = Caller(server, Request(op="stock-check", item=1, deadline=5.0))
            wait_until(lambda: server.admission.depth("read") == 1)
            held, handed = holder.wait(10.0), second.wait(10.0)
            snapshot = server.obs.snapshot()
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()
        assert held is not None and held.ok, held
        assert handed is not None and handed.ok, handed
        assert handed.queue_wait > 0
        assert snapshot.counters["admission.admitted"] == 2
        assert snapshot.histograms["queue.wait"].count == 2
        assert snapshot.gauges["queue.depth.read"]["hwm"] == 1
        assert snapshot.counters["thread.caller_drives"] == 2

    def test_an_expired_queued_ticket_is_shed_expired_in_queue(self):
        server = make_server(
            time_scale=0.002,
            think_cost=150.0,  # ~300 ms holding the only slot
            admission=AdmissionConfig(max_inflight=1, queue_cap=4),
        )
        try:
            holder = Caller(server, Request(op="restock", item=0, deadline=5.0))
            wait_until(lambda: server.inflight_count() == 1)
            late = Caller(server, Request(op="stock-check", item=1, deadline=0.05))
            held, expired = holder.wait(10.0), late.wait(10.0)
            counters = server.obs.snapshot().counters
        finally:
            report = server.shutdown()
        assert report.clean, report.to_dict()
        assert held is not None and held.ok, held
        assert expired is not None and expired.shed, expired
        assert expired.error["reason_code"] == "expired-in-queue"
        assert counters["admission.shed.expired-in-queue"] == 1
        assert counters["thread.spawned"] == 1


class TestLifecycle:
    def test_double_start_rejected(self):
        server = make_server()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            assert server.shutdown().clean

    def test_invalid_deadline_config_rejected(self):
        with pytest.raises(ValueError):
            TransactionServer(default_deadline=0.0)


class TestMultiRootRequests:
    """Multi-line place and multi-item total-payment — the request
    shapes the cluster router splits into cross-shard 2PC branches —
    must first work as plain single-server transactions."""

    def test_multi_line_place_opens_one_order_per_line(self):
        server = make_server()
        try:
            placed = server.submit(
                Request(op="place", customer_no=7, lines=((0, 3), (1, 2)))
            )
            assert placed.ok, placed.to_dict()
            assert isinstance(placed.result, list) and len(placed.result) == 2
            assert all(isinstance(no, int) for no in placed.result)
            # Each line's order exists on its own item: paying it works.
            for item, order_no in zip((0, 1), placed.result):
                paid = server.submit(
                    Request(op="pay", item=item, order_no=order_no)
                )
                assert paid.ok, paid.to_dict()
        finally:
            assert server.shutdown().clean

    def test_multi_item_total_payment_sums_the_singles(self):
        server = make_server()
        try:
            for item in (0, 1):
                placed = server.submit(Request(op="place", item=item, quantity=2))
                paid = server.submit(
                    Request(op="pay", item=item, order_no=placed.result)
                )
                assert paid.ok, paid.to_dict()
            singles = [
                server.submit(Request(op="total-payment", item=item)).result
                for item in (0, 1)
            ]
            combined = server.submit(Request(op="total-payment", items=(0, 1)))
            assert combined.ok, combined.to_dict()
            assert combined.result == sum(singles) > 0
        finally:
            assert server.shutdown().clean

    def test_bad_line_item_fails_whole_request_atomically(self):
        server = make_server()
        try:
            probe = server.submit(Request(op="place", item=0))
            placed = server.submit(
                Request(op="place", customer_no=7, lines=((0, 3), (99, 1)))
            )
            assert placed.status == "failed"
            assert placed.error["code"] == "unknown-object"
            # Nothing escaped the failed place: the order counter did not
            # advance, so the next single place gets the adjacent number.
            after = server.submit(Request(op="place", item=0))
            assert after.result == probe.result + 1
        finally:
            assert server.shutdown().clean

    def test_empty_lines_and_items_are_rejected(self):
        server = make_server()
        try:
            empty_place = server.submit(Request(op="place", lines=()))
            assert empty_place.status == "failed"
            assert empty_place.error["code"] == "unknown-object"
            empty_total = server.submit(Request(op="total-payment", items=()))
            assert empty_total.status == "failed"
            assert empty_total.error["code"] == "unknown-object"
        finally:
            assert server.shutdown().clean

    def test_request_roundtrips_lines_and_items_through_json(self):
        original = Request(op="place", customer_no=3, lines=((0, 1), (1, 2)))
        decoded = Request.from_dict(original.to_dict())
        assert decoded.lines == ((0, 1), (1, 2))
        original = Request(op="total-payment", items=(0, 1))
        decoded = Request.from_dict(original.to_dict())
        assert decoded.items == (0, 1)
