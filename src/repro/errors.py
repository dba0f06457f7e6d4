"""Exception hierarchy for the semantic concurrency control library.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single handler while still
being able to distinguish the interesting cases (deadlock-induced aborts,
protocol violations, schema errors).

Each public class also carries a stable machine-readable :attr:`code` and
serialises to a JSON-safe payload via :meth:`to_payload`, so that kernel
errors cross process boundaries (the transaction server's wire protocol,
saved reports) without losing their type: :func:`error_from_payload`
reconstructs the original class, message, and structured fields.  Codes
are part of the wire contract — never reuse or renumber them.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier for this error class.  Part of
    #: the wire protocol: clients dispatch on ``payload["code"]``.
    code = "error"

    def to_payload(self) -> dict[str, Any]:
        """Serialise to a JSON-safe dict (``code``, ``message``, fields)."""
        payload: dict[str, Any] = {"code": self.code, "message": str(self)}
        payload.update(self._payload_extra())
        return payload

    def _payload_extra(self) -> dict[str, Any]:
        """Structured fields beyond code/message; subclasses override."""
        return {}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "ReproError":
        return cls(payload.get("message", ""))


class SchemaError(ReproError):
    """An object, type, or method definition is inconsistent.

    Raised for duplicate method names, unknown operations referenced by a
    compatibility matrix, attempts to give an object two composition
    parents (non-disjoint complex objects are out of scope), and similar
    definition-time mistakes.
    """

    code = "schema-error"


class UnknownObjectError(ReproError):
    """An OID does not resolve to a live object in the database."""

    code = "unknown-object"


class DuplicateRecordError(UnknownObjectError):
    """An object that already has a storage record was allocated again.

    Historically this was (mis-)reported as :class:`UnknownObjectError`;
    the subclass keeps ``except UnknownObjectError`` handlers working
    while letting callers distinguish "no such record" from "record
    exists twice".
    """

    code = "duplicate-record"


class UnknownOperationError(ReproError):
    """An operation name is not defined for the target object's type."""

    code = "unknown-operation"


class TransactionError(ReproError):
    """Base class for errors tied to a specific transaction execution."""

    code = "transaction-error"


class TransactionAborted(TransactionError):
    """The transaction was aborted and must not continue.

    The kernel raises this inside a transaction's coroutine when the
    transaction is chosen as a deadlock victim or when the application
    requests a rollback.  User code should generally let it propagate;
    the kernel catches it at the transaction root and runs compensation.
    """

    code = "transaction-aborted"

    def __init__(self, txn_name: str, reason: str) -> None:
        super().__init__(f"transaction {txn_name!r} aborted: {reason}")
        self.txn_name = txn_name
        self.reason = reason

    def _payload_extra(self) -> dict[str, Any]:
        return {"txn": self.txn_name, "reason": self.reason}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "TransactionAborted":
        return cls(payload.get("txn", "?"), payload.get("reason", ""))


class DeadlockError(TransactionAborted):
    """The transaction was selected as the victim of a deadlock cycle."""

    code = "deadlock"

    def __init__(self, txn_name: str, cycle: tuple[str, ...]) -> None:
        cycle_text = " -> ".join(cycle)
        super().__init__(txn_name, f"deadlock cycle {cycle_text}")
        self.cycle = cycle

    def _payload_extra(self) -> dict[str, Any]:
        return {"txn": self.txn_name, "cycle": list(self.cycle)}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "DeadlockError":
        return cls(payload.get("txn", "?"), tuple(payload.get("cycle", ())))


class LockTimeout(TransactionAborted):
    """A lock wait exceeded the timeout budget and the waiter was sacrificed.

    Raised when a lock-wait budget (``lock_timeout``, a per-transaction
    override, an injected lock-wait timeout fault) runs out and the
    waiter's blocked request cannot be resolved by restarting a
    subtransaction.  Semantically a timeout is
    handled exactly like a deadlock victim abort — compensation runs,
    the client may resubmit — but the distinct type keeps the two causes
    apart in handles, traces, and metrics.
    """

    code = "lock-timeout"

    def __init__(self, txn_name: str, target: str, waited: float) -> None:
        super().__init__(
            txn_name, f"lock wait on {target} timed out after {waited:g} virtual time"
        )
        self.target = target
        self.waited = waited

    def _payload_extra(self) -> dict[str, Any]:
        return {"txn": self.txn_name, "target": self.target, "waited": self.waited}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "LockTimeout":
        return cls(
            payload.get("txn", "?"),
            payload.get("target", "?"),
            float(payload.get("waited", 0.0)),
        )


class RetryExhausted(TransactionAborted):
    """A subtransaction's bounded retry budget ran out.

    The kernel escalates to a top-level abort once a transaction has been
    restarted more than ``TransactionManager.MAX_RESTARTS`` times; the
    node id of the exhausted action is recorded for diagnosis.
    """

    code = "retry-exhausted"

    def __init__(self, txn_name: str, node_id: str, attempts: int) -> None:
        super().__init__(
            txn_name,
            f"subtransaction {node_id} exhausted its retry budget "
            f"({attempts} restarts)",
        )
        self.node_id = node_id
        self.attempts = attempts

    def _payload_extra(self) -> dict[str, Any]:
        return {"txn": self.txn_name, "node_id": self.node_id, "attempts": self.attempts}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "RetryExhausted":
        return cls(
            payload.get("txn", "?"),
            payload.get("node_id", "?"),
            int(payload.get("attempts", 0)),
        )


class DeadlineExceeded(TransactionAborted):
    """A request's deadline expired while its transaction was running.

    The transaction server arms a wall-clock timer per admitted request;
    on expiry the victim is aborted through the normal interrupt path
    (compensation runs, locks are released) and the client receives this
    error.  Kept distinct from :class:`LockTimeout` — a deadline can
    expire while the transaction is doing useful work, not just while it
    waits for a lock.
    """

    code = "deadline-exceeded"

    def __init__(self, txn_name: str, budget: float) -> None:
        super().__init__(txn_name, f"deadline of {budget:g}s exceeded")
        self.budget = budget

    def _payload_extra(self) -> dict[str, Any]:
        return {"txn": self.txn_name, "budget": self.budget}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "DeadlineExceeded":
        return cls(payload.get("txn", "?"), float(payload.get("budget", 0.0)))


class RequestShed(ReproError):
    """The server refused a request at admission (backpressure).

    Carries a machine-readable ``reason_code`` (``queue-full``,
    ``deadline-unmeetable``, ``degraded-writes``, ``draining``,
    ``expired-in-queue``) and a ``retry_after`` hint in wall-clock
    seconds derived from the current queue-wait estimate.  Shedding is
    the server working as designed, not a fault — clients should back
    off and resubmit.
    """

    code = "request-shed"

    def __init__(self, reason_code: str, retry_after: float, detail: str = "") -> None:
        message = f"request shed ({reason_code}); retry after {retry_after:g}s"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.reason_code = reason_code
        self.retry_after = retry_after
        self.detail = detail

    def _payload_extra(self) -> dict[str, Any]:
        return {
            "reason_code": self.reason_code,
            "retry_after": self.retry_after,
            "detail": self.detail,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "RequestShed":
        return cls(
            payload.get("reason_code", "?"),
            float(payload.get("retry_after", 0.0)),
            payload.get("detail", ""),
        )


class SubtransactionRestart(BaseException):
    """Internal control-flow signal: roll back and retry one subtransaction.

    Raised into a transaction's coroutine when a deadlock cycle can be
    broken by restarting the victim's innermost active subtransaction
    instead of aborting the whole transaction (the standard multilevel
    transaction technique; cf. the paper's references [HW91, Wei91]).
    Derives from :class:`BaseException` so that application-level
    ``except Exception`` handlers in method bodies cannot swallow it;
    the kernel catches it at the owning subtransaction's frame.
    """

    def __init__(self, node) -> None:
        super().__init__(f"restart subtransaction {getattr(node, 'node_id', node)!r}")
        self.node = node
        # True once the victim machinery has charged this restart to the
        # transaction's restart budget; injected restarts are charged by
        # the kernel's retry loop instead.
        self.counted = False


class ProtocolViolation(ReproError):
    """Internal invariant of a concurrency control protocol was broken.

    Seeing this exception indicates a bug in a protocol implementation,
    not a recoverable runtime condition.
    """

    code = "protocol-violation"


class CompensationError(TransactionError):
    """A committed subtransaction could not be compensated during abort."""

    code = "compensation-error"


class RuntimeEngineError(ReproError):
    """The execution runtime reached an inconsistent state.

    For example: all tasks are blocked but no deadlock cycle exists, or a
    coroutine awaited a foreign awaitable the scheduler cannot service.
    """

    code = "runtime-engine-error"


class AggregateWorkerError(RuntimeEngineError):
    """Several tasks failed (or threads wedged) in one threaded batch run.

    The threaded runtime collects every task's primary error; when more
    than one survives the drain — or when threads fail to join at all — the
    run raises this aggregate instead of silently reporting only the
    first error.  The individual causes are kept on :attr:`errors`
    (first error also chained as ``__cause__``); a run with exactly one
    error still raises that error directly, so existing handlers keep
    working.
    """

    code = "aggregate-worker-error"

    def __init__(self, message: str, errors: tuple[BaseException, ...] = ()) -> None:
        errors = tuple(errors)
        if errors:
            summary = "; ".join(repr(e) for e in errors[:4])
            if len(errors) > 4:
                summary += f"; ... ({len(errors) - 4} more)"
            message = f"{message}: {summary}"
        super().__init__(message)
        self.errors = errors

    def _payload_extra(self) -> dict[str, Any]:
        return {"errors": [error_to_payload(e) for e in self.errors]}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "AggregateWorkerError":
        # The stored message already contains the per-error summary the
        # constructor appends, so rebuild the instance without rerunning
        # that formatting (round-trips must be exact).
        err = cls.__new__(cls)
        Exception.__init__(err, payload.get("message", ""))
        err.errors = tuple(
            error_from_payload(p) for p in payload.get("errors", ())
        )
        return err


class WorkloadError(ReproError):
    """A workload generator was configured with impossible parameters."""

    code = "workload-error"


class AddressInUseError(ReproError):
    """A server could not bind its listen address (already in use).

    Raised by the wire server (and the cluster launcher) instead of the
    raw ``OSError`` so callers — the CLI in particular — can report a
    clean, stable-coded failure rather than a traceback.
    """

    code = "address-in-use"

    def __init__(self, host: str, port: int) -> None:
        super().__init__(f"address {host}:{port} is already in use")
        self.host = host
        self.port = port

    def _payload_extra(self) -> dict[str, Any]:
        return {"host": self.host, "port": self.port}

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "AddressInUseError":
        return cls(payload.get("host", "?"), int(payload.get("port", 0)))


class CrashPoint(BaseException):
    """Simulated process death, raised by the fault-injection plane.

    Propagates out of :meth:`~repro.runtime.scheduler.Scheduler.run`
    leaving every task suspended exactly where it was — the state a real
    crash would leave behind.  Derives from :class:`BaseException` so no
    ``except Exception`` handler (application or kernel) can absorb the
    crash and keep executing; only the torture harness, which owns the
    run, catches it.
    """

    code = "crash-point"

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(f"injected crash at {site}" + (f": {detail}" if detail else ""))
        self.site = site
        self.detail = detail

    def to_payload(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": str(self),
            "site": self.site,
            "detail": self.detail,
        }

    @classmethod
    def _from_payload(cls, payload: dict[str, Any]) -> "CrashPoint":
        return cls(payload.get("site", "?"), payload.get("detail", ""))


#: Maps every stable error code to its class, for payload decoding.
#: ``SubtransactionRestart`` is deliberately absent: it is in-process
#: control flow carrying a live transaction node and never crosses a
#: process boundary.
ERROR_CODES: dict[str, type[BaseException]] = {
    cls.code: cls  # type: ignore[attr-defined]
    for cls in (
        ReproError,
        SchemaError,
        UnknownObjectError,
        DuplicateRecordError,
        UnknownOperationError,
        TransactionError,
        TransactionAborted,
        DeadlockError,
        LockTimeout,
        RetryExhausted,
        DeadlineExceeded,
        RequestShed,
        ProtocolViolation,
        CompensationError,
        RuntimeEngineError,
        AggregateWorkerError,
        WorkloadError,
        AddressInUseError,
        CrashPoint,
    )
}


def error_to_payload(exc: BaseException) -> dict[str, Any]:
    """Serialise any exception to a JSON-safe payload.

    Library errors keep their stable code and structured fields; foreign
    exceptions are wrapped as ``internal-error`` with the type name
    preserved for diagnosis.
    """
    to_payload = getattr(exc, "to_payload", None)
    if to_payload is not None:
        return to_payload()
    return {
        "code": "internal-error",
        "message": str(exc),
        "type": type(exc).__name__,
    }


def error_from_payload(payload: dict[str, Any]) -> BaseException:
    """Reconstruct an exception from an :func:`error_to_payload` payload.

    Unknown codes (newer peer, foreign ``internal-error`` wrappers)
    decode to a plain :class:`ReproError` carrying the message, so old
    clients degrade gracefully instead of failing to parse.
    """
    cls = ERROR_CODES.get(payload.get("code", ""))
    if cls is None:
        return ReproError(payload.get("message", ""))
    return cls._from_payload(payload)  # type: ignore[attr-defined]
