"""Admission-control properties of the transaction server.

Admission control is *bounded* no matter what sequence of arrivals,
completions, and mode flips hits it — queue depth never exceeds the
configured cap, in-flight never exceeds the slot count, and every shed
tells the client a positive ``retry_after``.  An arrival takes a free
slot at once only when nothing waits, so it never passes a queued
ticket.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RequestShed
from repro.obs.registry import MetricsRegistry
from repro.server.admission import QUEUED, TOOK_SLOT, AdmissionConfig, AdmissionController
from repro.server.degrade import DegradationController, DegradeConfig


# ----------------------------------------------------------------------
# Admission bounds (property-based)
# ----------------------------------------------------------------------
#: One abstract event: admit a read, admit a write, finish an in-flight
#: request (with some service time), or flip degraded mode.
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.sampled_from(["read", "write"]),
                  st.floats(min_value=0.0, max_value=2.0)),
        st.tuples(st.just("finish"), st.just(""),
                  st.floats(min_value=0.0, max_value=0.5)),
        st.tuples(st.just("degrade"), st.just(""), st.booleans()),
    ),
    min_size=1,
    max_size=200,
)


class TestAdmissionProperties:
    @given(events=EVENTS, max_inflight=st.integers(1, 4), queue_cap=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold_under_any_event_sequence(self, events, max_inflight, queue_cap):
        clock = [0.0]
        control = AdmissionController(
            AdmissionConfig(max_inflight=max_inflight, queue_cap=queue_cap),
            clock=lambda: clock[0],
        )
        inflight = 0
        degraded = False
        for index, (kind, klass, value) in enumerate(events):
            clock[0] += 0.01
            if kind == "admit":
                waiting = control.depth()
                outcome = control.admit(f"t{index}", klass, clock[0] + value, degraded)
                if isinstance(outcome, RequestShed):
                    assert outcome.retry_after >= control.config.min_retry_after > 0
                    assert outcome.reason_code in {
                        "queue-full", "deadline-unmeetable", "degraded-writes",
                        "draining", "expired-in-queue",
                    }
                elif outcome == TOOK_SLOT:
                    # Only a free slot with nobody waiting is taken.
                    assert waiting == 0 and inflight < max_inflight
                    inflight += 1
                else:
                    assert outcome == QUEUED
                    assert waiting > 0 or inflight == max_inflight
                ticket, expired = control.acquire_next(clock[0], degraded)
                if ticket is not None:
                    inflight += 1
            elif kind == "finish" and inflight > 0:
                control.release(value)
                inflight -= 1
                ticket, expired = control.acquire_next(clock[0], degraded)
                if ticket is not None:
                    inflight += 1
            elif kind == "degrade":
                degraded = value
            # The two bounds, checked after every single event.
            assert control.depth("read") <= queue_cap
            assert control.depth("write") <= queue_cap
            assert control.inflight <= max_inflight
            assert control.inflight == inflight

    def test_draining_sheds_everything(self):
        control = AdmissionController(AdmissionConfig())
        control.close()
        shed = control.admit("t", "read", 1e9)
        assert shed is not None and shed.reason_code == "draining"

    def test_degraded_sheds_writes_admits_reads(self):
        control = AdmissionController(AdmissionConfig())
        assert control.admit("w", "write", 1e9, degraded=True).reason_code == "degraded-writes"
        assert control.admit("r", "read", 1e9, degraded=True) == TOOK_SLOT
        assert control.admit("w", "write", 1e9) == TOOK_SLOT

    def test_expired_in_queue_recheck_at_dequeue(self):
        clock = [0.0]
        control = AdmissionController(AdmissionConfig(max_inflight=1), clock=lambda: clock[0])
        assert control.admit("holder", "write", 1e9) == TOOK_SLOT
        assert control.admit("doomed", "read", 0.05) == QUEUED
        clock[0] = 1.0
        assert control.release(0.0) is True
        ticket, expired = control.acquire_next(clock[0])
        assert ticket is None and expired == ["doomed"]
        assert control.expired_retry_hint("read") > 0

    def test_release_without_acquire_raises(self):
        control = AdmissionController(AdmissionConfig())
        with pytest.raises(ValueError):
            control.release(0.01)


# ----------------------------------------------------------------------
# A free slot is taken at admission
# ----------------------------------------------------------------------
class TestFreeSlotAtAdmission:
    def test_free_slot_taken_only_when_both_queues_are_empty(self):
        registry = MetricsRegistry()
        control = AdmissionController(AdmissionConfig(max_inflight=2), metrics=registry)
        assert control.admit("a", "read", 1e9) == TOOK_SLOT
        assert control.admit("b", "write", 1e9) == TOOK_SLOT
        assert control.inflight == 2 and control.depth() == 0
        # Slots full: the next one queues, and a release reports it.
        assert control.admit("c", "write", 1e9) == QUEUED
        assert control.release(0.01) is True
        # A slot is free now, but the write queue is not empty, so a
        # read arrival queues too; the dispatcher serves FIFO.
        assert control.admit("d", "read", 1e9) == QUEUED
        assert control.acquire_next()[0] == "c"
        assert control.release(0.01) is True
        assert control.acquire_next()[0] == "d"
        assert control.release(0.01) is False
        assert control.release(0.01) is False
        snapshot = registry.snapshot()
        assert snapshot.counter("admission.admitted") == 4
        # Two direct admits observed a queue wait of 0, two dequeues theirs.
        assert registry.histogram("queue.wait").count == 4

    def test_arrival_behind_a_queued_ticket_queues(self):
        control = AdmissionController(AdmissionConfig(max_inflight=1))
        assert control.admit("holder", "write", 1e9) == TOOK_SLOT
        assert control.admit("first", "read", 1e9) == QUEUED
        control.release(0.0)  # the slot frees; "first" has not been dispatched
        assert control.inflight == 0
        assert control.admit("second", "read", 1e9) == QUEUED
        assert control.acquire_next() == ("first", [])
        assert control.depth("read") == 1

    def test_before_queue_runs_once_outside_the_lock_and_only_to_queue(self):
        control = AdmissionController(AdmissionConfig(max_inflight=1))
        calls = []

        def before_queue():
            # Outside the lock: another call on the controller works.
            calls.append(control.depth())

        assert control.admit("a", "read", 1e9, before_queue=before_queue) == TOOK_SLOT
        assert calls == []
        assert control.admit("b", "read", 1e9, before_queue=before_queue) == QUEUED
        assert calls == [0] and control.depth() == 1

    def test_slot_freed_while_preparing_to_queue_is_taken(self):
        control = AdmissionController(AdmissionConfig(max_inflight=1))
        assert control.admit("holder", "read", 1e9) == TOOK_SLOT
        # The holder ends between the first decision and the second.
        outcome = control.admit("b", "read", 1e9, before_queue=lambda: control.release(0.0))
        assert outcome == TOOK_SLOT
        assert control.inflight == 1 and control.depth() == 0

    @pytest.mark.parametrize(
        "reason", ["draining", "degraded-writes", "queue-full", "deadline-unmeetable"]
    )
    def test_every_shed_reason_fires_with_a_slot_free(self, reason):
        clock = [0.0]
        control = AdmissionController(
            AdmissionConfig(max_inflight=2, queue_cap=1), clock=lambda: clock[0]
        )
        deadline, degraded = 1e9, False
        if reason == "draining":
            control.close()
        elif reason == "degraded-writes":
            degraded = True
        elif reason == "queue-full":
            # Fill the slots, queue one, then free a slot: the write queue
            # is full while a slot is free.
            control.admit("a", "write", 1e9)
            control.admit("b", "write", 1e9)
            assert control.admit("c", "write", 1e9) == QUEUED
            control.release(0.0)
        else:
            deadline = clock[0] - 1.0
        assert control.inflight < control.config.max_inflight
        shed = control.admit("t", "write", deadline, degraded)
        assert isinstance(shed, RequestShed) and shed.reason_code == reason
        assert shed.retry_after > 0


class TestShedEwmaGauge:
    def test_shed_ewma_is_collected_with_its_peak(self):
        registry = MetricsRegistry()
        control = DegradationController(DegradeConfig(alpha=0.5), metrics=registry)
        control.observe(True)
        control.observe(False)
        gauge = registry.snapshot().gauges["degrade.shed_ewma"]
        assert gauge == {"value": 0.25, "hwm": 0.5}
        registry.reset()
        assert registry.snapshot().gauges["degrade.shed_ewma"] == {"value": 0.25, "hwm": 0.25}
