"""The transaction server: overload-robust order entry over the kernel.

One long-running :class:`~repro.runtime.threaded.ThreadedKernel` in
serve mode, fronted by the overload-robustness stack:

* **admission** (:mod:`repro.server.admission`): concurrency limiter,
  bounded per-class queues, deadline-aware shedding with ``retry_after``;
* **deadline propagation**: each admitted request's remaining deadline
  (a) bounds its kernel lock waits through the kernel's
  per-transaction lock-wait budget seam, (b) is re-checked at dequeue,
  and (c) is enforced by a reaper thread that aborts overdue in-flight
  transactions through the kernel's normal interrupt/compensation path;
* **degradation** (:mod:`repro.server.degrade`): under sustained
  overload the server keeps serving read-only stock checks and sheds
  writes, recovering hysteretically;
* **graceful drain**: :meth:`TransactionServer.shutdown` stops
  admission, flushes the queues with ``draining`` sheds, waits for
  in-flight work up to a drain deadline, aborts stragglers through the
  same abort path, then stops the pool and verifies lock hygiene.

Injected faults (``repro.faults``): a :class:`~repro.faults.plan.FaultPlan`
passed to the server fires inside the kernel exactly as in the torture
harness — ``delay`` actions stretch handlers, ``crash`` actions kill a
request mid-flight.  Crashes are fenced at the request boundary: the
worker thread survives and the transaction aborts through compensation,
so one crashed request cannot wedge the server.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import (
    CrashPoint,
    DeadlineExceeded,
    RequestShed,
    TransactionAborted,
    error_to_payload,
)
from repro.obs.registry import TIMER_BUCKETS, MetricsRegistry
from repro.orderentry.schema import OrderEntryDatabase, build_order_entry_database
from repro.runtime.threaded import ThreadedKernel
from repro.server.admission import OVERLOAD_REASONS, AdmissionConfig, AdmissionController
from repro.server.degrade import DegradationController, DegradeConfig
from repro.server.requests import Request, Response, build_program, op_class

__all__ = ["TransactionServer", "DrainReport", "PendingResponse"]


@dataclass
class DrainReport:
    """What :meth:`TransactionServer.shutdown` found and did."""

    shed_queued: int = 0
    finished_in_grace: int = 0
    stragglers_aborted: int = 0
    unresolved: int = 0
    wedged_workers: list[str] = field(default_factory=list)
    leaked_locks: int = 0
    invariants_ok: bool = True
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        """Lock-hygienic drain: nothing wedged, leaked, or unanswered."""
        return (
            not self.wedged_workers
            and self.leaked_locks == 0
            and self.invariants_ok
            and self.unresolved == 0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "shed_queued": self.shed_queued,
            "finished_in_grace": self.finished_in_grace,
            "stragglers_aborted": self.stragglers_aborted,
            "unresolved": self.unresolved,
            "wedged_workers": list(self.wedged_workers),
            "leaked_locks": self.leaked_locks,
            "invariants_ok": self.invariants_ok,
            "clean": self.clean,
            "elapsed": round(self.elapsed, 6),
        }


class PendingResponse:
    """Handle for an asynchronously submitted request."""

    __slots__ = ("_event", "response", "_callback")

    def __init__(self, callback: Optional[Callable[[Response], None]] = None) -> None:
        self._event = threading.Event()
        self.response: Optional[Response] = None
        self._callback = callback

    def _resolve(self, response: Response) -> None:
        self.response = response
        self._event.set()
        if self._callback is not None:
            try:
                self._callback(response)
            except Exception:  # noqa: BLE001 - client callback, best effort
                pass

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[Response]:
        self._event.wait(timeout)
        return self.response


class _Ticket:
    """Server-side bookkeeping for one admitted (or queued) request."""

    __slots__ = (
        "request",
        "name",
        "klass",
        "budget",
        "deadline_at",
        "admitted_at",
        "dequeued_at",
        "pending",
        "degraded_at_admit",
    )

    def __init__(
        self,
        request: Request,
        name: str,
        klass: str,
        budget: float,
        now: float,
        pending: PendingResponse,
        degraded: bool,
    ) -> None:
        self.request = request
        self.name = name
        self.klass = klass
        self.budget = budget
        self.deadline_at = now + budget
        self.admitted_at = now
        self.dequeued_at = now
        self.pending = pending
        self.degraded_at_admit = degraded


class TransactionServer:
    """Long-running order-entry server over the threaded kernel.

    ``protocol_factory`` builds the concurrency-control protocol (None
    uses the semantic default); ``time_scale``/``think_cost`` follow the
    wall-clock bench idiom (a Pause of ``think_cost`` cost units sleeps
    ``think_cost * time_scale`` real seconds inside each transaction).
    The kernel resolves waits-for cycles when the closing edge is
    recorded, and request deadlines propagate onto its lock-wait budget,
    capped at ``LOCK_TIMEOUT_CAP`` wall seconds.
    """

    #: Upper bound on a request's deadline, in wall seconds.
    MAX_DEADLINE = 30.0
    #: Upper bound on one lock wait, in wall seconds.
    LOCK_TIMEOUT_CAP = 2.0
    #: Lower bound on one lock wait, so a nearly-expired request still
    #: gets a short, non-zero wait.
    MIN_LOCK_WAIT = 0.005
    #: The worker pool's stall backstop (see WallClockScheduler).
    STALL_TIMEOUT = 10.0

    def __init__(
        self,
        built: Optional[OrderEntryDatabase] = None,
        protocol_factory: Optional[Callable[[], Any]] = None,
        n_threads: int = 4,
        n_stripes: int = 8,
        time_scale: float = 0.0,
        think_cost: float = 0.0,
        admission: Optional[AdmissionConfig] = None,
        degrade: Optional[DegradeConfig] = None,
        default_deadline: float = 1.0,
        deadline_check: float = 0.01,
        obs: Optional[MetricsRegistry] = None,
        faults=None,
        wal=None,
    ) -> None:
        if default_deadline <= 0:
            raise ValueError("deadlines must be positive")
        if built is None:
            built = build_order_entry_database(n_items=4, orders_per_item=8)
        self.built = built
        self.default_deadline = default_deadline
        self.deadline_check = deadline_check
        self.think_cost = think_cost
        if obs is None:
            obs = MetricsRegistry(thread_safe=True)
        protocol = protocol_factory() if protocol_factory is not None else None
        self.tk = ThreadedKernel(
            built.db,
            protocol=protocol,
            n_threads=n_threads,
            n_stripes=n_stripes,
            time_scale=time_scale,
            stall_timeout=self.STALL_TIMEOUT,
            lock_timeout=self.LOCK_TIMEOUT_CAP,
            # Deadline propagation: an in-flight request's remaining
            # deadline bounds its lock waits (clamped so a nearly-expired
            # request still gets a short, non-zero wait).
            lock_timeout_fn=self._lock_wait_budget,
            obs=obs,
            faults=faults,
            wal=wal,
        )
        self.admission = AdmissionController(admission, metrics=obs)
        self.degrade = DegradationController(degrade, metrics=obs)
        self._lock = threading.Lock()
        self._inflight: dict[str, _Ticket] = {}
        self._names = itertools.count()
        self._draining = False
        self._started = False
        self._reaper: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        self.tk.scheduler.on_task_done = self._task_finished
        # server.* metrics (docs/OBSERVABILITY.md)
        self._requests = obs.counter("server.requests")
        self._ok = obs.counter("server.ok")
        self._aborted = obs.counter("server.aborted")
        self._failed = obs.counter("server.failed")
        self._shed = obs.counter("server.shed")
        self._deadline_interrupts = obs.counter("server.deadline_interrupts")
        self._drain_aborts = obs.counter("server.drain_aborts")
        self._latency = obs.histogram("server.latency", TIMER_BUCKETS)
        self._draining_gauge = obs.gauge("server.draining")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TransactionServer":
        """Start the kernel worker pool and the deadline reaper."""
        with self._lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        self.tk.start()
        self._reaper = threading.Thread(
            target=self._reap_deadlines, name="cc-deadline-reaper", daemon=True
        )
        self._reaper.start()
        return self

    @property
    def obs(self) -> MetricsRegistry:
        return self.tk.obs

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_async(
        self,
        request: Request,
        callback: Optional[Callable[[Response], None]] = None,
        name: Optional[str] = None,
    ) -> PendingResponse:
        """Admit (or shed) a request; returns immediately.

        Shed decisions resolve the returned handle synchronously;
        admitted requests resolve when the transaction finishes (or is
        deadline-aborted).  ``name`` overrides the generated transaction
        name — the cluster shard uses stable names so the WAL records a
        request's identity durably.
        """
        pending = PendingResponse(callback)
        self._requests.inc()
        try:
            klass = op_class(request.op)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            pending._resolve(
                Response(
                    status="failed", op=request.op, request_id=request.request_id,
                    error=error_to_payload(exc),
                )
            )
            self._failed.inc()
            return pending
        budget = min(
            self.MAX_DEADLINE,
            request.deadline if request.deadline is not None else self.default_deadline,
        )
        if budget <= 0:
            budget = self.MIN_LOCK_WAIT
        now = time.monotonic()
        if name is None:
            name = f"req-{next(self._names)}"
        # One read of the mode: the response's flag and the shed decision
        # cannot disagree.
        degraded = self.degrade.degraded
        ticket = _Ticket(request, name, klass, budget, now, pending, degraded)
        shed = self.admission.admit(ticket, klass, ticket.deadline_at, degraded)
        if shed is not None:
            self._resolve_shed(ticket, shed)
            if shed.reason_code in OVERLOAD_REASONS:
                self.degrade.observe(True)
            return pending
        self.degrade.observe(False)
        self._dispatch()
        return pending

    def submit(
        self,
        request: Request,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
    ) -> Response:
        """Blocking submit; the in-process client path."""
        pending = self.submit_async(request, name=name)
        budget = timeout
        if budget is None:
            deadline = (
                request.deadline if request.deadline is not None else self.default_deadline
            )
            budget = min(self.MAX_DEADLINE, deadline) + self.tk.scheduler.stall_timeout
        response = pending.wait(budget)
        if response is None:
            return Response(
                status="failed",
                op=request.op,
                request_id=request.request_id,
                error=error_to_payload(
                    TransactionAborted("request", "response wait timed out")
                ),
            )
        return response

    # ------------------------------------------------------------------
    # Dispatch and completion
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Pull queued tickets into the kernel while slots are free."""
        while True:
            now = time.monotonic()
            ticket, expired = self.admission.acquire_next(now, self.degrade.degraded)
            for doomed in expired:
                self._shed.inc()
                self.degrade.observe(True)
                self._resolve_shed(
                    doomed,
                    RequestShed(
                        "expired-in-queue",
                        self.admission.expired_retry_hint(doomed.klass),
                    ),
                    counted=False,
                )
            if ticket is None:
                return
            ticket.dequeued_at = now
            try:
                program = build_program(self.built, ticket.request, self.think_cost)
                guarded = self._fence_crashes(ticket.name, program)
                with self._lock:
                    self._inflight[ticket.name] = ticket
                self.tk.spawn(ticket.name, guarded)
            except Exception as exc:  # noqa: BLE001 - per-request failure
                with self._lock:
                    self._inflight.pop(ticket.name, None)
                self.admission.release(0.0)
                self._failed.inc()
                ticket.pending._resolve(
                    Response(
                        status="failed",
                        op=ticket.request.op,
                        request_id=ticket.request.request_id,
                        error=error_to_payload(exc),
                        queue_wait=now - ticket.admitted_at,
                        total_time=time.monotonic() - ticket.admitted_at,
                    )
                )

    @staticmethod
    def _fence_crashes(name: str, program: Callable) -> Callable:
        """Convert an injected CrashPoint into a request-level abort.

        In the torture harness a CrashPoint kills the whole run — that
        is its contract.  A server must fence the blast radius at the
        request boundary instead: the transaction aborts through the
        normal compensation path (locks stay hygienic) and the worker
        thread lives on to serve the next request.
        """

        async def fenced(tx):
            try:
                return await program(tx)
            except CrashPoint as crash:
                raise TransactionAborted(
                    name, f"injected worker crash at {crash.site}"
                ) from crash

        return fenced

    def _task_finished(self, task) -> None:
        """Runtime hook: an in-flight request's task reached DONE/FAILED."""
        with self._lock:
            ticket = self._inflight.pop(task.name, None)
        if ticket is None:
            return
        now = time.monotonic()
        service_time = max(0.0, now - ticket.dequeued_at)
        handle = self.tk.handles.get(ticket.name)
        response = self._build_response(ticket, task, handle, now)
        self.tk.reap(ticket.name)
        self.admission.release(service_time)
        self._latency.observe(response.total_time)
        ticket.pending._resolve(response)
        self._dispatch()

    def _build_response(self, ticket: _Ticket, task, handle, now: float) -> Response:
        queue_wait = max(0.0, ticket.dequeued_at - ticket.admitted_at)
        total = max(0.0, now - ticket.admitted_at)
        base = dict(
            op=ticket.request.op,
            request_id=ticket.request.request_id,
            queue_wait=queue_wait,
            total_time=total,
            degraded=ticket.degraded_at_admit,
        )
        if handle is not None and handle.committed:
            self._ok.inc()
            return Response(status="ok", result=handle.result, **base)
        error: Optional[BaseException] = None
        if handle is not None and handle.error is not None:
            error = handle.error
        elif task.exception is not None:
            error = task.exception
        if isinstance(error, TransactionAborted):
            self._aborted.inc()
            retry_after = None
            if not isinstance(error, DeadlineExceeded):
                # Aborts other than deadline expiry are retryable now-ish.
                retry_after = max(
                    self.admission.config.min_retry_after,
                    self.admission.service_estimate,
                )
            return Response(
                status="aborted",
                error=error_to_payload(error),
                retry_after=retry_after,
                **base,
            )
        self._failed.inc()
        payload = (
            error_to_payload(error)
            if error is not None
            else error_to_payload(TransactionAborted(ticket.name, "no outcome recorded"))
        )
        return Response(status="failed", error=payload, **base)

    def _resolve_shed(
        self, ticket: _Ticket, shed: RequestShed, counted: bool = True
    ) -> None:
        if counted:
            self._shed.inc()
        now = time.monotonic()
        ticket.pending._resolve(
            Response(
                status="shed",
                op=ticket.request.op,
                request_id=ticket.request.request_id,
                error=shed.to_payload(),
                retry_after=shed.retry_after,
                queue_wait=max(0.0, now - ticket.admitted_at),
                total_time=max(0.0, now - ticket.admitted_at),
                degraded=ticket.degraded_at_admit,
            )
        )

    # ------------------------------------------------------------------
    # Deadline enforcement
    # ------------------------------------------------------------------
    def _lock_wait_budget(self, node) -> Optional[float]:
        """Kernel seam: bound lock waits by the request's remaining time."""
        ticket = self._inflight.get(node.top_level_name)
        if ticket is None:
            return None
        remaining = ticket.deadline_at - time.monotonic()
        return min(self.LOCK_TIMEOUT_CAP, max(self.MIN_LOCK_WAIT, remaining))

    def _reap_deadlines(self) -> None:
        """Reaper thread: abort in-flight requests past their deadline."""
        while not self._reaper_stop.wait(self.deadline_check):
            now = time.monotonic()
            with self._lock:
                overdue = [
                    t for t in self._inflight.values() if t.deadline_at <= now
                ]
            for ticket in overdue:
                # The kernel's external-interrupt path (the same one
                # lock timeouts and deadlock victims use); False if the
                # transaction already finished or is already aborting.
                if self.tk.interrupt_transaction(
                    ticket.name, DeadlineExceeded(ticket.name, ticket.budget)
                ):
                    self._deadline_interrupts.inc()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def shutdown(self, drain_deadline: float = 5.0, grace: float = 1.0) -> DrainReport:
        """Graceful drain; see the module docstring.  Idempotent-ish:
        a second call finds nothing in flight and stops quickly."""
        started = time.monotonic()
        report = DrainReport()
        with self._lock:
            self._draining = True
        self._draining_gauge.set(1)
        self.admission.close()
        flushed = self.admission.flush()
        for ticket in flushed:
            self._shed.inc()
            self._resolve_shed(
                ticket, RequestShed("draining", max(drain_deadline, 0.1)), counted=False
            )
        report.shed_queued = len(flushed)
        # Phase 1: let in-flight work finish.
        inflight_at_start = self.inflight_count()
        deadline = started + drain_deadline
        while time.monotonic() < deadline:
            if self.inflight_count() == 0:
                break
            time.sleep(self.deadline_check)
        # Phase 2: abort stragglers through the normal abort path.
        with self._lock:
            stragglers = list(self._inflight.values())
        for ticket in stragglers:
            if self.tk.interrupt_transaction(
                ticket.name, TransactionAborted(ticket.name, "server draining")
            ):
                report.stragglers_aborted += 1
                self._drain_aborts.inc()
        grace_deadline = time.monotonic() + grace
        while time.monotonic() < grace_deadline:
            if self.inflight_count() == 0:
                break
            time.sleep(self.deadline_check)
        report.finished_in_grace = inflight_at_start - self.inflight_count()
        report.unresolved = self.inflight_count()
        # Phase 3: stop the reaper and the pool, then audit lock hygiene.
        self._reaper_stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=max(1.0, 4 * self.deadline_check))
        report.wedged_workers = self.tk.stop()
        report.leaked_locks = self.tk.locks.lock_count
        try:
            self.tk.locks.check_invariants()
        except AssertionError:
            report.invariants_ok = False
        report.elapsed = time.monotonic() - started
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """A small JSON-safe operational summary (the wire ``stats`` op)."""
        return {
            "requests": self._requests.value,
            "ok": self._ok.value,
            "shed": self._shed.value,
            "aborted": self._aborted.value,
            "failed": self._failed.value,
            "deadline_interrupts": self._deadline_interrupts.value,
            "inflight": self.inflight_count(),
            "queue_depth_read": self.admission.depth("read"),
            "queue_depth_write": self.admission.depth("write"),
            "degraded": self.degrade.degraded,
            "shed_ewma": round(self.degrade.shed_ewma, 4),
            "service_estimate": round(self.admission.service_estimate, 6),
            "draining": self.draining,
        }
