"""Unit tests for the observability layer (repro.obs).

Covers the instrument semantics (counter, gauge + high-water mark,
fixed-bucket histogram, timer), registry get-or-create behaviour,
snapshot comparability / merging, and the JSONL round trip.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    CASE1_RELIEF,
    CONFLICT_CASES,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    Snapshot,
    conflict_breakdown,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = MetricsRegistry().counter("events")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset(self):
        c = MetricsRegistry().counter("events")
        c.inc(7)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_tracks_high_water_mark(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        assert g.hwm == 3

    def test_inc_updates_hwm_dec_does_not(self):
        g = MetricsRegistry().gauge("depth")
        g.inc(2)
        g.inc(2)
        g.dec(3)
        assert g.value == 1
        assert g.hwm == 4

    def test_reset_clears_value_and_hwm(self):
        g = MetricsRegistry().gauge("depth")
        g.set(9)
        g.reset()
        assert g.value == 0.0
        assert g.hwm == 0.0


class TestHistogram:
    def test_bounds_are_inclusive_upper_bounds(self):
        h = Histogram("h", bounds=(1, 2, 5))
        for value in (0.5, 1.0, 1.1, 2.0, 5.0, 6.0):
            h.observe(value)
        # <=1: {0.5, 1.0}; <=2: {1.1, 2.0}; <=5: {5.0}; overflow: {6.0}
        assert h.counts == [2, 2, 1, 1]

    def test_sum_count_mean_exact(self):
        h = Histogram("h", bounds=(10,))
        h.observe(1)
        h.observe(2)
        h.observe(4)
        assert h.count == 3
        assert h.sum == 7
        assert h.mean == pytest.approx(7 / 3)

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_unsorted_or_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_reset_keeps_bucket_layout(self):
        h = Histogram("h", bounds=(1, 2))
        h.observe(1.5)
        h.reset()
        assert h.counts == [0, 0, 0]
        assert h.count == 0
        assert h.bounds == (1.0, 2.0)


class TestTimer:
    def test_timer_observes_block_duration(self):
        ticks = iter([10.0, 10.5, 20.0, 20.25])
        registry = MetricsRegistry()
        timer = registry.timer("span", clock=lambda: next(ticks), bounds=(1.0,))
        with timer:
            pass
        assert timer.last == pytest.approx(0.5)
        with timer:
            pass
        assert timer.last == pytest.approx(0.25)
        hist = registry.histogram("span")
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.75)

    def test_timer_records_even_when_block_raises(self):
        ticks = iter([0.0, 2.0])
        registry = MetricsRegistry()
        timer = registry.timer("span", clock=lambda: next(ticks), bounds=(1.0,))
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError("boom")
        assert registry.histogram("span").count == 1
        assert timer.last == pytest.approx(2.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_histogram_redeclare_same_bounds_ok(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", (1, 2))
        assert registry.histogram("h", (1, 2)) is first
        assert registry.histogram("h") is first  # bounds omitted: reuse

    def test_histogram_redeclare_different_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 2, 3))

    def test_default_bounds_used_when_unspecified(self):
        assert MetricsRegistry().histogram("h").bounds == tuple(
            float(b) for b in DEFAULT_BUCKETS
        )

    def test_reset_zeroes_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(5)
        registry.histogram("h", (1,)).observe(0.5)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot.counter("c") == 0
        assert snapshot.gauge("g") == 0.0
        assert snapshot.gauge_hwm("g") == 0.0
        assert snapshot.histogram("h").count == 0


class _Owner:
    """A component keeping one count and one level (with its peak)."""

    def __init__(self) -> None:
        self.events = 0
        self.level = 0
        self.peak = 0

    def raise_level(self, amount: int) -> None:
        self.level += amount
        self.peak = max(self.peak, self.level)

    def collect(self) -> dict:
        return {"owner.events": self.events, "owner.level": (self.level, self.peak)}

    def restart_peak(self) -> None:
        self.peak = self.level


class TestCollectors:
    """Instruments whose values their owner already holds are read at
    snapshot time instead of being written on every update."""

    def test_counts_from_registration_and_reads_live(self):
        owner = _Owner()
        owner.events = 5
        owner.raise_level(3)
        registry = MetricsRegistry()
        registry.add_collector(owner.collect, owner.restart_peak)
        owner.events += 2
        owner.raise_level(4)
        owner.level -= 6
        snapshot = registry.snapshot()
        assert snapshot.counter("owner.events") == 2  # not the 5 before registration
        assert snapshot.gauges["owner.level"] == {"value": 1, "hwm": 7}

    def test_peak_restarts_at_registration(self):
        owner = _Owner()
        owner.raise_level(9)
        owner.level = 2
        registry = MetricsRegistry()
        registry.add_collector(owner.collect, owner.restart_peak)
        assert registry.snapshot().gauges["owner.level"] == {"value": 2, "hwm": 2}

    def test_totals_of_one_name_add_up(self):
        first, second = _Owner(), _Owner()
        registry = MetricsRegistry()
        registry.add_collector(first.collect)
        registry.add_collector(second.collect)
        registry.counter("owner.events").inc(10)
        first.events, second.events = 1, 2
        assert registry.snapshot().counter("owner.events") == 13

    def test_collected_names_sit_among_pushed_ones(self):
        registry = MetricsRegistry()
        registry.counter("a.pushed").inc()
        registry.counter("z.pushed").inc()
        registry.add_collector(_Owner().collect)
        snapshot = registry.snapshot()
        assert list(snapshot.counters) == ["a.pushed", "owner.events", "z.pushed"]

    def test_reset_rebases_counters_and_restarts_peaks(self):
        owner = _Owner()
        registry = MetricsRegistry(thread_safe=True)
        registry.add_collector(owner.collect, owner.restart_peak)
        owner.events = 4
        owner.raise_level(5)
        owner.level = 1
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot.counter("owner.events") == 0
        assert snapshot.gauges["owner.level"] == {"value": 1, "hwm": 1}
        owner.events += 3
        assert registry.snapshot().counter("owner.events") == 3

    def test_collector_runs_outside_the_registry_lock(self):
        """An owner's collector takes the owner's lock, and a thread
        holding that lock may be pushing an instrument: the snapshot
        must not hold the registry lock while it collects."""
        registry = MetricsRegistry(thread_safe=True)
        pushed = registry.counter("pushed")
        pushes_finished: list[bool] = []

        def collect() -> dict:
            pusher = threading.Thread(target=pushed.inc)
            pusher.start()
            pusher.join(timeout=5.0)
            pushes_finished.append(not pusher.is_alive())
            return {}

        registry.add_collector(collect)  # collects once, for the base
        registry.reset()
        assert registry.snapshot().counter("pushed") == 2  # reset zeroed the first
        assert pushes_finished == [True, True, True]


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("kernel.commits").inc(4)
    registry.counter("lock.grants").inc(11)
    gauge = registry.gauge("lock.held")
    gauge.set(6)
    gauge.set(2)
    hist = registry.histogram("lock.hold_time", (1, 5, 10))
    for value in (0.5, 3.0, 12.0):
        hist.observe(value)
    return registry


class TestSnapshot:
    def test_identical_registries_snapshot_equal(self):
        assert populated_registry().snapshot() == populated_registry().snapshot()

    def test_snapshot_is_decoupled_from_live_instruments(self):
        registry = populated_registry()
        snapshot = registry.snapshot()
        registry.counter("kernel.commits").inc()
        assert snapshot.counter("kernel.commits") == 4

    def test_lookup_defaults(self):
        snapshot = Snapshot()
        assert snapshot.counter("missing") == 0
        assert snapshot.counter("missing", default=-1) == -1
        assert snapshot.gauge("missing") == 0.0
        assert snapshot.gauge_hwm("missing") == 0.0
        assert snapshot.histogram("missing") is None

    def test_to_dict_round_trip(self):
        snapshot = populated_registry().snapshot()
        assert Snapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_to_dict_is_json_serializable(self):
        json.dumps(populated_registry().snapshot().to_dict())

    def test_merged_sums_counters_and_histograms(self):
        a = populated_registry().snapshot()
        b = populated_registry().snapshot()
        merged = a.merged(b)
        assert merged.counter("kernel.commits") == 8
        assert merged.counter("lock.grants") == 22
        hist = merged.histogram("lock.hold_time")
        assert hist.count == 6
        assert hist.counts == (2, 2, 0, 2)

    def test_merged_gauges_take_other_value_and_max_hwm(self):
        a = populated_registry().snapshot()
        registry = populated_registry()
        registry.gauge("lock.held").set(9)
        registry.gauge("lock.held").set(1)
        b = registry.snapshot()
        merged = a.merged(b)
        assert merged.gauge("lock.held") == 1
        assert merged.gauge_hwm("lock.held") == 9

    def test_merged_rejects_mismatched_histogram_bounds(self):
        a = HistogramSnapshot(bounds=(1.0,), counts=(0, 0), sum=0.0, count=0)
        b = HistogramSnapshot(bounds=(2.0,), counts=(0, 0), sum=0.0, count=0)
        with pytest.raises(ValueError):
            a.merged(b)


class TestJsonl:
    def test_round_trip(self):
        snapshot = populated_registry().snapshot()
        buffer = io.StringIO()
        lines = snapshot.write_jsonl(buffer)
        assert lines == buffer.getvalue().count("\n")
        assert Snapshot.read_jsonl(buffer.getvalue().splitlines()) == snapshot

    def test_one_valid_json_object_per_line(self):
        buffer = io.StringIO()
        populated_registry().snapshot().write_jsonl(buffer)
        for line in buffer.getvalue().splitlines():
            record = json.loads(line)
            assert record["type"] in ("counter", "gauge", "histogram")
            assert "name" in record

    def test_blank_lines_ignored(self):
        snapshot = populated_registry().snapshot()
        buffer = io.StringIO()
        snapshot.write_jsonl(buffer)
        noisy = "\n\n" + buffer.getvalue() + "\n   \n"
        assert Snapshot.read_jsonl(noisy.splitlines()) == snapshot

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError):
            Snapshot.read_jsonl(['{"type": "sparkline", "name": "x"}'])


class TestConflictBreakdown:
    def test_rows_cover_all_cases_with_shares(self):
        registry = MetricsRegistry()
        registry.counter(CASE1_RELIEF).inc(1)
        registry.counter(CONFLICT_CASES[0]).inc(3)
        rows = conflict_breakdown(registry.snapshot())
        assert [row["counter"] for row in rows] == list(CONFLICT_CASES)
        assert sum(row["count"] for row in rows) == 4
        by_counter = {row["counter"]: row for row in rows}
        assert by_counter[CASE1_RELIEF]["count"] == 1


class TestSchedulerReadyGauge:
    """Regression: ``sched.ready_queue`` was only set when a task was
    stepped, so it never returned to 0 after the last task finished and
    drifted on ready/block transitions that happened between steps."""

    def _run_kernel(self, policy="fifo", seed=None):
        from repro.core.kernel import TransactionManager
        from repro.orderentry.schema import build_order_entry_database
        from repro.orderentry.transactions import make_t1, make_t2
        from repro.runtime.scheduler import Scheduler

        built = build_order_entry_database(n_items=2, orders_per_item=2)
        kernel = TransactionManager(
            built.db, scheduler=Scheduler(policy=policy, seed=seed)
        )
        kernel.spawn("T1", make_t1(built.item(0), 1, built.item(1), 2))
        kernel.spawn("T2", make_t2(built.item(0), 1, built.item(1), 2))
        kernel.run()
        return kernel

    def test_final_snapshot_reads_zero(self):
        kernel = self._run_kernel()
        snapshot = kernel.obs.snapshot()
        assert snapshot.gauge("sched.ready_queue") == 0

    def test_final_snapshot_reads_zero_under_random_policy(self):
        for seed in range(3):
            kernel = self._run_kernel(policy="random", seed=seed)
            assert kernel.obs.snapshot().gauge("sched.ready_queue") == 0

    def test_hwm_still_counts_concurrent_readiness(self):
        kernel = self._run_kernel()
        snapshot = kernel.obs.snapshot()
        # Two spawned tasks were ready together at least once.
        assert snapshot.gauge_hwm("sched.ready_queue") >= 2

    def test_gauge_tracks_ready_transitions(self):
        from repro.runtime.scheduler import Scheduler

        registry = MetricsRegistry()
        scheduler = Scheduler()
        scheduler.bind_metrics(registry)
        gate = scheduler.create_signal("gate")

        async def waiter():
            await gate

        async def firer():
            gate.fire()

        scheduler.spawn("W", waiter())
        scheduler.spawn("F", firer())
        assert registry.gauge("sched.ready_queue").value == 2
        scheduler.run()
        assert registry.gauge("sched.ready_queue").value == 0
