"""Dependency-free metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Every kernel component (lock table, conflict test, scheduler, waits-for
graph) reports into one shared registry, so a single
:meth:`MetricsRegistry.snapshot` captures a whole run.  A component
reports in one of two ways:

* it *pushes*: it updates an instrument it fetched once and cached, for
  events nothing else counts (commits, sheds, latencies);
* it registers a *collector* (:meth:`MetricsRegistry.add_collector`), a
  function the snapshot calls, for counts and levels the component
  already keeps under a lock it takes anyway (lock grants, held locks,
  scheduler steps, queue depths): those are read when someone asks,
  not copied on every operation.

Design constraints:

* no third-party dependencies (stdlib only);
* deterministic: snapshots of two identical runs compare equal, so the
  regression tests can diff them (no timestamps inside instruments);
* fixed-bucket histograms (upper bounds chosen at creation time), the
  standard trick for mergeable, export-friendly distributions.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Mapping, Optional, Union

from repro.obs.snapshot import (
    HistogramSnapshot,
    Snapshot,
)

#: Generic default bucket upper bounds — suit both virtual-time costs
#: (units of the bench cost model) and small integer distributions.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: Default bucket upper bounds for wall-clock timers, in seconds.
TIMER_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


#: What a collector returns, by instrument name: a counter's running
#: total, or a gauge's ``(value, hwm)`` pair.
Reading = Mapping[str, Union[int, tuple[float, float]]]


class Counter:
    """A monotonically increasing event count (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """An instantaneous level (queue depth, held locks, graph edges).

    Tracks its high-water mark alongside the current value, because for
    saturation questions ("how deep did the queue get?") the end-of-run
    value is usually 0 and useless.
    """

    __slots__ = ("name", "value", "hwm")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.hwm = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.hwm:
            self.hwm = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0
        self.hwm = 0.0

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} hwm={self.hwm}>"


class Histogram:
    """A fixed-bucket distribution of observed values.

    ``bounds`` are inclusive upper bounds; values above the last bound
    fall into an implicit overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` entries.  Sum and count are tracked exactly, so
    the mean is exact even though the shape is bucketed.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class Timer:
    """Reusable context manager timing a block into a histogram.

    The clock is injectable: pass the scheduler's virtual clock to
    measure virtual durations, or leave the default
    :func:`time.perf_counter` for wall-clock timings.  Not reentrant.
    """

    __slots__ = ("histogram", "clock", "_start", "_last")

    def __init__(
        self, histogram: Histogram, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.histogram = histogram
        self.clock = clock
        self._start = 0.0
        self._last = 0.0

    @property
    def last(self) -> float:
        """The most recently observed duration (0.0 before first use)."""
        return self._last

    def __enter__(self) -> "Timer":
        self._start = self.clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._last = self.clock() - self._start
        self.histogram.observe(self._last)
        return False


class _LockedCounter(Counter):
    """Counter whose updates hold the registry lock (threaded runtime)."""

    __slots__ = ("_lock",)

    def __init__(self, name: str, lock: threading.RLock) -> None:
        super().__init__(name)
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class _LockedGauge(Gauge):
    """Gauge whose updates hold the registry lock (threaded runtime)."""

    __slots__ = ("_lock",)

    def __init__(self, name: str, lock: threading.RLock) -> None:
        super().__init__(name)
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            super().set(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            super().set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            super().reset()


class _LockedHistogram(Histogram):
    """Histogram whose updates hold the registry lock (threaded runtime)."""

    __slots__ = ("_lock",)

    def __init__(
        self, name: str, lock: threading.RLock, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, bounds)
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            super().observe(value)

    def reset(self) -> None:
        with self._lock:
            super().reset()


class _Collector:
    """A registered collector, its reset hook, and the counter totals it
    read at registration or at the last :meth:`MetricsRegistry.reset`."""

    __slots__ = ("collect", "reset", "base")

    def __init__(
        self, collect: Callable[[], Reading], reset: Optional[Callable[[], None]]
    ) -> None:
        self.collect = collect
        self.reset = reset
        self.base: dict[str, int] = {}
        self.rebase()

    def rebase(self) -> None:
        """Restart the owner's high-water marks, then take the counter
        totals as the new zero."""
        if self.reset is not None:
            self.reset()
        self.base = {
            name: value
            for name, value in self.collect().items()
            if not isinstance(value, tuple)
        }


class MetricsRegistry:
    """A namespace of instruments; see module docstring.

    ``counter``/``gauge``/``histogram`` are get-or-create: callers on
    hot paths fetch their instrument once and keep the reference.
    Re-declaring a histogram with different bounds is an error (the
    buckets would be ambiguous); counters and gauges are bound-free.

    With ``thread_safe=True`` (used by the threaded runtime) every
    instrument handed out guards its updates with one shared reentrant
    lock, and creation/snapshot/reset serialise on the same lock, so
    concurrent increments are never torn.  The default stays lock-free:
    the virtual-time runtime is single-threaded and its hot paths keep
    the one-attribute-store update cost.

    Collected instruments (:meth:`add_collector`) appear in snapshots
    beside the pushed ones and cannot be fetched as instrument objects.
    """

    def __init__(self, thread_safe: bool = False) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[_Collector] = []
        self._lock: Optional[threading.RLock] = threading.RLock() if thread_safe else None

    @property
    def thread_safe(self) -> bool:
        return self._lock is not None

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            if self._lock is None:
                instrument = self._counters[name] = Counter(name)
            else:
                with self._lock:
                    instrument = self._counters.get(name)
                    if instrument is None:
                        instrument = self._counters[name] = _LockedCounter(name, self._lock)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            if self._lock is None:
                instrument = self._gauges[name] = Gauge(name)
            else:
                with self._lock:
                    instrument = self._gauges.get(name)
                    if instrument is None:
                        instrument = self._gauges[name] = _LockedGauge(name, self._lock)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[tuple[float, ...]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            resolved = bounds if bounds is not None else DEFAULT_BUCKETS
            if self._lock is None:
                instrument = self._histograms[name] = Histogram(name, resolved)
            else:
                with self._lock:
                    instrument = self._histograms.get(name)
                    if instrument is None:
                        instrument = self._histograms[name] = _LockedHistogram(
                            name, self._lock, resolved
                        )
        if bounds is not None and tuple(float(b) for b in bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with bounds {instrument.bounds}"
            )
        return instrument

    def timer(
        self,
        name: str,
        clock: Callable[[], float] = time.perf_counter,
        bounds: tuple[float, ...] = TIMER_BUCKETS,
    ) -> Timer:
        """A context manager observing durations into histogram *name*."""
        return Timer(self.histogram(name, bounds), clock)

    def add_collector(
        self, collect: Callable[[], Reading], reset: Optional[Callable[[], None]] = None
    ) -> None:
        """Have every :meth:`snapshot` call *collect* for instruments
        whose values its owner already holds.

        *collect* returns a :data:`Reading`.  A collected counter counts
        from registration, as a pushed one counts from creation: the
        registry subtracts the total it read when *collect* was
        registered (and at each :meth:`reset`).  Totals of one name from
        several collectors add up, also to a pushed counter of that
        name.  A collected gauge is reported as read: its value is the
        owner's live level and its hwm the owner's peak.  *reset*, if
        given, restarts the owner's peaks at the current levels; it is
        called here and by :meth:`reset`.

        *collect* runs without the registry lock — owners take their
        own locks in it while other threads holding those locks update
        pushed instruments — so it must not create instruments.
        """
        collector = _Collector(collect, reset)
        if self._lock is not None:
            with self._lock:
                self._collectors.append(collector)
        else:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument (bucket layouts are kept): collected
        counters restart from zero and collected gauges' hwm from the
        current level."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()
        for collector in list(self._collectors):
            collector.rebase()

    def snapshot(self) -> Snapshot:
        """An immutable, comparable copy of every instrument's state."""
        collected = self._collect()
        if self._lock is not None:
            with self._lock:
                return self._snapshot(*collected)
        return self._snapshot(*collected)

    def _collect(self) -> tuple[dict[str, int], dict[str, dict[str, float]]]:
        counters: dict[str, int] = {}
        gauges: dict[str, dict[str, float]] = {}
        for collector in list(self._collectors):
            base = collector.base
            for name, value in collector.collect().items():
                if isinstance(value, tuple):
                    gauges[name] = {"value": value[0], "hwm": value[1]}
                else:
                    counters[name] = counters.get(name, 0) + value - base.get(name, 0)
        return counters, gauges

    def _snapshot(
        self, counters: dict[str, int], gauges: dict[str, dict[str, float]]
    ) -> Snapshot:
        for name, counter in self._counters.items():
            counters[name] = counters.get(name, 0) + counter.value
        for name, gauge in self._gauges.items():
            gauges.setdefault(name, {"value": gauge.value, "hwm": gauge.hwm})
        return Snapshot(
            counters=dict(sorted(counters.items())),
            gauges=dict(sorted(gauges.items())),
            histograms={
                n: HistogramSnapshot(
                    bounds=h.bounds,
                    counts=tuple(h.counts),
                    sum=h.sum,
                    count=h.count,
                )
                for n, h in sorted(self._histograms.items())
            },
        )

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms, "
            f"{len(self._collectors)} collectors>"
        )
