"""Overload-robust transaction server over the threaded kernel.

The "millions of users" front end: order-entry operations served by a
long-running :class:`~repro.runtime.threaded.ThreadedKernel` behind
admission control, deadline propagation, graceful degradation, and
graceful drain (docs/SERVER.md).  :mod:`repro.server.wire` adds the
stdlib JSON-over-TCP protocol; :class:`TransactionServer.submit` is the
in-process client.
"""

from repro.server.admission import AdmissionConfig, AdmissionController
from repro.server.core import DrainReport, TransactionServer
from repro.server.degrade import DegradationController, DegradeConfig
from repro.server.requests import (
    ALL_OPS,
    READ_OPS,
    WRITE_OPS,
    Request,
    Response,
    op_class,
)
from repro.server.wire import TCPClient, WireServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "DegradationController",
    "DegradeConfig",
    "DrainReport",
    "TransactionServer",
    "Request",
    "Response",
    "op_class",
    "ALL_OPS",
    "READ_OPS",
    "WRITE_OPS",
    "TCPClient",
    "WireServer",
]
