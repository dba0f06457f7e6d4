"""Admission control: concurrency limiting, bounded queues, shedding.

The server's first line of overload defence.  An open-loop arrival
process does not slow down when the system saturates, so the queue —
not the kernel — must be the thing that absorbs overload, and it must
do so *boundedly*:

* a **concurrency limiter** caps transactions in flight at
  ``max_inflight`` (the kernel's healthy multiprogramming level); an
  arrival takes a free slot at once when nobody waits, and queues
  otherwise;
* **bounded per-class queues** (read / write) cap waiting requests, so
  queue memory and queue delay cannot grow without bound;
* **deadline-aware shedding**: a request whose estimated queue wait
  (EWMA service time x queue position / service slots) already exceeds
  its deadline is refused at admission — cheaper for everyone than
  admitting doomed work;
* every refusal carries a positive machine-readable ``retry_after``.

The controller is deliberately kernel-agnostic and takes an injectable
``clock`` so property tests can drive it deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import RequestShed
from repro.obs.registry import TIMER_BUCKETS, MetricsRegistry

__all__ = ["AdmissionConfig", "AdmissionController", "QUEUED", "TOOK_SLOT"]

#: :meth:`AdmissionController.admit` outcomes other than a shed: the
#: ticket took a free in-flight slot (its caller runs it now and calls
#: ``release`` at its end), or it queued for a later ``acquire_next``.
TOOK_SLOT = "took-slot"
QUEUED = "queued"

#: Shed reasons counted as *overload pressure* by the degradation
#: tracker.  ``degraded-writes`` and ``draining`` sheds are consequences
#: of a mode, not evidence of load, and must not feed the EWMA — a
#: degraded server shedding writes would otherwise hold itself degraded
#: forever.
OVERLOAD_REASONS = frozenset({"queue-full", "deadline-unmeetable", "expired-in-queue"})


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for :class:`AdmissionController`."""

    #: Transactions concurrently submitted to the kernel.
    max_inflight: int = 8
    #: Bound of each per-class queue (read and write separately).
    queue_cap: int = 64
    #: Initial EWMA service-time estimate (seconds) before any sample.
    initial_service_estimate: float = 0.01
    #: EWMA smoothing factor for service-time samples.
    service_alpha: float = 0.2
    #: Floor for every ``retry_after`` hint (seconds); sheds must always
    #: tell the client a positive backoff.
    min_retry_after: float = 0.005

    def validate(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {self.queue_cap}")
        if not 0 < self.service_alpha <= 1:
            raise ValueError(f"service_alpha must be in (0, 1], got {self.service_alpha}")
        if self.initial_service_estimate <= 0:
            raise ValueError("initial_service_estimate must be positive")
        if self.min_retry_after <= 0:
            raise ValueError("min_retry_after must be positive")


class AdmissionController:
    """Bounded admission with deadline-aware shedding.

    Thread-safe; every decision happens under one internal lock.  The
    entries queued are opaque *tickets* — the server's bookkeeping
    objects — tagged with their class and absolute deadline.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.config.validate()
        self._clock = clock
        self._lock = threading.Lock()
        # (ticket, deadline_at, enqueued_at) triples per class, FIFO.
        self._queues: dict[str, deque[tuple[Any, float, float]]] = {
            "read": deque(),
            "write": deque(),
        }
        self._admitted = 0
        self._inflight = 0
        self._closed = False
        self._service_estimate = self.config.initial_service_estimate
        # Peaks of the in-flight count and the queue depths since
        # metrics were bound: raised where each can rise.
        self._inflight_peak = 0
        self._depth_peaks = {klass: 0 for klass in self._queues}
        self._shed_counter = None
        self._shed_reasons: dict[str, Any] = {}
        self._queue_wait_hist = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Expose ``admission.*`` / ``queue.*``; see docs/OBSERVABILITY.md.
        Admissions, the in-flight count and the queue depths are kept
        under the admission lock and collected at snapshot."""
        self._shed_counter = registry.counter("admission.shed")
        self._shed_reasons = {
            reason: registry.counter(f"admission.shed.{reason}")
            for reason in (
                "queue-full",
                "deadline-unmeetable",
                "degraded-writes",
                "draining",
                "expired-in-queue",
            )
        }
        self._queue_wait_hist = registry.histogram("queue.wait", TIMER_BUCKETS)
        registry.gauge("queue.cap").set(self.config.queue_cap)
        registry.gauge("admission.max_inflight").set(self.config.max_inflight)
        registry.add_collector(self._collect, self._restart_peaks)

    def _collect(self) -> dict:
        with self._lock:
            reading: dict = {
                "admission.admitted": self._admitted,
                "admission.inflight": (self._inflight, self._inflight_peak),
            }
            for klass, queue in self._queues.items():
                reading[f"queue.depth.{klass}"] = (len(queue), self._depth_peaks[klass])
            return reading

    def _restart_peaks(self) -> None:
        with self._lock:
            self._inflight_peak = self._inflight
            for klass, queue in self._queues.items():
                self._depth_peaks[klass] = len(queue)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depth(self, klass: Optional[str] = None) -> int:
        with self._lock:
            if klass is not None:
                return len(self._queues[klass])
            return sum(len(q) for q in self._queues.values())

    @property
    def service_estimate(self) -> float:
        """Current EWMA of observed service times (seconds)."""
        with self._lock:
            return self._service_estimate

    def estimated_wait(self, klass: str) -> float:
        """Expected queue delay for the *next* arrival of this class."""
        with self._lock:
            return self._estimated_wait_locked(klass)

    def _estimated_wait_locked(self, klass: str) -> float:
        # Work ahead of a new arrival: everything queued (both classes
        # drain through the same slots) plus whatever is in flight,
        # spread over max_inflight service slots.
        waiting = len(self._queues["read"]) + len(self._queues["write"])
        return (waiting + self._inflight) * self._service_estimate / self.config.max_inflight

    def _retry_hint_locked(self, klass: str) -> float:
        return max(self.config.min_retry_after, self._estimated_wait_locked(klass))

    # ------------------------------------------------------------------
    # Drain (degraded mode is the caller's: it is passed in per call)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting (drain); queued tickets remain until flushed."""
        with self._lock:
            self._closed = True

    def flush(self) -> list[Any]:
        """Empty both queues; returns the tickets in admission order."""
        with self._lock:
            entries = sorted(
                (entry for q in self._queues.values() for entry in q),
                key=lambda e: e[2],
            )
            for q in self._queues.values():
                q.clear()
            return [ticket for ticket, __, ___ in entries]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        ticket: Any,
        klass: str,
        deadline_at: float,
        degraded: bool = False,
        before_queue: Optional[Callable[[], None]] = None,
    ) -> str | RequestShed:
        """Admit the ticket (``TOOK_SLOT`` or ``QUEUED``) or return the
        shed error.

        Decision order: draining beats everything; in *degraded* mode
        the write class is shed; a full class queue sheds; and a request
        whose estimated wait already overruns its deadline is refused
        with ``retry_after`` equal to that estimate.  A request that
        passes takes an in-flight slot at once when one is free and both
        queues are empty (so it passes no waiting ticket); otherwise it
        queues.  *before_queue*, if given, is called once, outside the
        lock, before the ticket would first queue, so whatever a
        dispatcher needs of a queued ticket exists before it can see it;
        the whole decision is then taken again.
        """
        if klass not in self._queues:
            raise ValueError(f"unknown admission class {klass!r}")
        while True:
            with self._lock:
                if self._closed:
                    return self._shed_locked(klass, "draining")
                if degraded and klass == "write":
                    return self._shed_locked(klass, "degraded-writes")
                queue = self._queues[klass]
                if len(queue) >= self.config.queue_cap:
                    return self._shed_locked(klass, "queue-full")
                est_wait = self._estimated_wait_locked(klass)
                now = self._clock()
                if now + est_wait > deadline_at:
                    return self._shed_locked(klass, "deadline-unmeetable")
                if (
                    self._inflight < self.config.max_inflight
                    and not self._queues["read"]
                    and not self._queues["write"]
                ):
                    self._take_slot_locked(0.0)
                    self._admitted += 1
                    return TOOK_SLOT
                if before_queue is None:
                    queue.append((ticket, deadline_at, now))
                    self._admitted += 1
                    if len(queue) > self._depth_peaks[klass]:
                        self._depth_peaks[klass] = len(queue)
                    return QUEUED
            before_queue()
            before_queue = None

    def _take_slot_locked(self, queue_wait: float) -> None:
        self._inflight += 1
        if self._inflight > self._inflight_peak:
            self._inflight_peak = self._inflight
        if self._queue_wait_hist is not None:
            self._queue_wait_hist.observe(queue_wait)

    def _shed_locked(self, klass: str, reason: str) -> RequestShed:
        if self._shed_counter is not None:
            self._shed_counter.inc()
            counter = self._shed_reasons.get(reason)
            if counter is not None:
                counter.inc()
        return RequestShed(reason, self._retry_hint_locked(klass))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def acquire_next(
        self, now: Optional[float] = None, degraded: bool = False
    ) -> tuple[Any, list[Any]]:
        """Take a ticket and an in-flight slot, dropping expired heads.

        Returns ``(ticket, expired)``: *ticket* is None when no slot is
        free or both queues are empty; *expired* lists tickets whose
        deadline passed while queued (re-checked at dequeue so doomed
        work never reaches the kernel) — the caller must answer those
        with an ``expired-in-queue`` shed.  In *degraded* mode reads are
        dequeued first.
        """
        if now is None:
            now = self._clock()
        expired: list[Any] = []
        with self._lock:
            while True:
                if self._inflight >= self.config.max_inflight:
                    ticket = None
                    break
                entry = self._pop_next_locked(degraded)
                if entry is None:
                    ticket = None
                    break
                candidate, deadline_at, enqueued_at = entry
                if deadline_at <= now:
                    expired.append(candidate)
                    if self._shed_counter is not None:
                        self._shed_counter.inc()
                        counter = self._shed_reasons.get("expired-in-queue")
                        if counter is not None:
                            counter.inc()
                    continue
                self._take_slot_locked(max(0.0, now - enqueued_at))
                ticket = candidate
                break
        return ticket, expired

    def _pop_next_locked(self, degraded: bool) -> Optional[tuple[Any, float, float]]:
        reads, writes = self._queues["read"], self._queues["write"]
        if degraded:
            # Degraded mode serves reads first (writes queued before the
            # transition still drain rather than starve).
            order = (reads, writes)
        else:
            # Global FIFO across both classes, by enqueue time.
            if reads and writes:
                order = (reads, writes) if reads[0][2] <= writes[0][2] else (writes, reads)
            else:
                order = (reads, writes)
        for queue in order:
            if queue:
                return queue.popleft()
        return None

    def release(self, service_time: float) -> bool:
        """Return an in-flight slot; fold the service time into the EWMA.
        Returns whether a ticket is queued (the caller then dispatches)."""
        with self._lock:
            if self._inflight <= 0:
                raise ValueError("release() without a matching slot")
            self._inflight -= 1
            if service_time > 0:
                alpha = self.config.service_alpha
                self._service_estimate = (
                    1 - alpha
                ) * self._service_estimate + alpha * service_time
            return bool(self._queues["read"] or self._queues["write"])

    def expired_retry_hint(self, klass: str) -> float:
        """A positive backoff hint for an ``expired-in-queue`` shed."""
        with self._lock:
            return self._retry_hint_locked(klass)

