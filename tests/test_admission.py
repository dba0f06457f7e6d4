"""Admission-control properties of the transaction server.

Admission control is *bounded* no matter what sequence of arrivals,
completions, and mode flips hits it — queue depth never exceeds the
configured cap, in-flight never exceeds the slot count, and every shed
tells the client a positive ``retry_after``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RequestShed
from repro.server.admission import AdmissionConfig, AdmissionController


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
                shed = control.admit(f"t{index}", klass, clock[0] + value, degraded)
                if shed is not None:
                    assert isinstance(shed, RequestShed)
                    assert shed.retry_after >= control.config.min_retry_after > 0
                    assert shed.reason_code in {
                        "queue-full", "deadline-unmeetable", "degraded-writes",
                        "draining", "expired-in-queue",
                    }
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
        assert control.admit("r", "read", 1e9, degraded=True) is None
        assert control.admit("w", "write", 1e9) is None

    def test_expired_in_queue_recheck_at_dequeue(self):
        clock = [0.0]
        control = AdmissionController(AdmissionConfig(), clock=lambda: clock[0])
        assert control.admit("doomed", "read", 0.05) is None
        clock[0] = 1.0
        ticket, expired = control.acquire_next(clock[0])
        assert ticket is None and expired == ["doomed"]
        assert control.expired_retry_hint("read") > 0

    def test_release_without_acquire_raises(self):
        control = AdmissionController(AdmissionConfig())
        with pytest.raises(ValueError):
            control.release(0.01)
