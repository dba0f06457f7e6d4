"""Open-loop generator determinism and admission-control properties.

The two satellite guarantees of the overload work: (1) the load
generator is a pure function of its config — same seed, same arrival
times, same keys, same op mix — so saturation curves are comparable
across runs and machines; (2) admission control is *bounded* no matter
what sequence of arrivals, completions, and mode flips hits it — queue
depth never exceeds the configured cap, in-flight never exceeds the
slot count, and every shed tells the client a positive ``retry_after``.

The ``slow`` class at the bottom is what the retired server-baseline
sweep asserted, kept as relations rather than committed timings: it
drives a real server past saturation in wall time, so it stays out of
Tier-1 and runs in the CI ``server-smoke`` job (``-m slow``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.openloop import OpenLoopConfig, generate_arrivals, run_open_loop
from repro.errors import RequestShed
from repro.server.admission import AdmissionConfig, AdmissionController
from repro.server.requests import READ_OPS, WRITE_OPS, op_class


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------
class TestGeneratorDeterminism:
    def test_same_seed_same_schedule(self):
        config = OpenLoopConfig(rate=200, duration=1.0, seed=17)
        first = generate_arrivals(config)
        second = generate_arrivals(config)
        assert first == second
        assert len(first) > 50

    def test_schedule_covers_arrival_times_keys_and_ops(self):
        config = OpenLoopConfig(rate=300, duration=1.0, seed=3)
        arrivals = generate_arrivals(config)
        assert all(0 <= a.at < config.duration for a in arrivals)
        ats = [a.at for a in arrivals]
        assert ats == sorted(ats)
        items = {a.request.item for a in arrivals}
        assert items <= set(range(config.n_items))
        ops = {a.request.op for a in arrivals}
        assert ops <= READ_OPS | WRITE_OPS
        assert any(op_class(op) == "read" for op in ops)
        assert any(op_class(op) == "write" for op in ops)

    def test_different_seed_different_schedule(self):
        base = OpenLoopConfig(rate=200, duration=1.0, seed=1)
        other = OpenLoopConfig(rate=200, duration=1.0, seed=2)
        assert generate_arrivals(base) != generate_arrivals(other)

    def test_zipf_skews_toward_hot_item(self):
        config = OpenLoopConfig(rate=500, duration=2.0, seed=9, zipf_s=1.5, n_items=4)
        arrivals = generate_arrivals(config)
        counts = [0] * config.n_items
        for a in arrivals:
            counts[a.request.item] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[-1]

    def test_every_request_carries_deadline_and_id(self):
        arrivals = generate_arrivals(OpenLoopConfig(rate=100, duration=0.5, seed=4))
        assert all(a.request.deadline == 0.25 for a in arrivals)
        assert len({a.request.request_id for a in arrivals}) == len(arrivals)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(OpenLoopConfig(rate=0))
        with pytest.raises(ValueError):
            generate_arrivals(OpenLoopConfig(n_items=0))


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


# ----------------------------------------------------------------------
# Real runs: a short underload smoke, and the 2x-saturation relations
# ----------------------------------------------------------------------
class TestOpenLoopRun:
    def test_underload_run_commits_everything(self):
        config = OpenLoopConfig(rate=30, duration=0.4, seed=5, think_cost=5.0)
        result = run_open_loop(config, protocol="semantic")
        assert result.offered == len(generate_arrivals(config))
        assert result.ok + result.aborted + result.failed + result.shed == result.offered
        assert result.unanswered == 0
        assert result.failed == 0
        assert result.ok > 0
        assert result.drain_clean
        record = result.metrics_record()
        assert record["goodput"] > 0
        assert record["p95_latency"] >= record["p50_latency"] >= 0


@pytest.mark.slow
class TestSaturationBurst:
    """~2x saturation: max_inflight 4 / 50 ms of service is ~80 req/s."""

    @pytest.fixture(scope="class")
    def bursts(self):
        config = OpenLoopConfig(rate=160.0, duration=1.5, seed=42)
        return {
            protocol: run_open_loop(config, protocol=protocol)
            for protocol in ("semantic", "object-rw-2pl")
        }

    @pytest.mark.parametrize("protocol", ["semantic", "object-rw-2pl"])
    def test_overload_sheds_bounds_latency_and_drains(self, bursts, protocol):
        burst = bursts[protocol]
        record = burst.to_dict()
        assert burst.shed > 0, record
        assert len(burst.shed_retry_after) == burst.shed
        assert all(hint > 0 for hint in burst.shed_retry_after), burst.shed_retry_after
        assert record["p95_latency"] <= 1.5 * burst.config.deadline, record
        assert burst.drain_clean, record
        assert burst.unanswered == 0, record

    def test_semantic_out_serves_object_rw_2pl(self, bursts):
        semantic, rw2pl = bursts["semantic"], bursts["object-rw-2pl"]
        print(f"goodput: semantic {semantic.goodput:.1f}/s, "
              f"object-rw-2pl {rw2pl.goodput:.1f}/s")
        assert semantic.goodput > rw2pl.goodput, (semantic.to_dict(), rw2pl.to_dict())
