"""JSON-over-TCP wire protocol (stdlib only).

Newline-delimited JSON objects, one request per line, one response per
line, over a plain TCP connection.  Three message kinds:

* an operation request — ``{"op": "place" | "pay" | "ship" | "restock"
  | "stock-check" | "total-payment", "item": 0, ...}`` (see
  :class:`~repro.server.requests.Request`); answered with a
  :class:`~repro.server.requests.Response` dict whose ``error`` field,
  when present, is a stable :mod:`repro.errors` payload;
* ``{"op": "ping"}`` — liveness probe, answered ``{"status": "ok",
  "result": "pong"}``;
* ``{"op": "stats"}`` — answered with the server's operational summary.

Every non-blank line, a last one half-closed without its newline too,
gets exactly one reply.  A line that is not JSON, not an object, nested
too deep, longer than :data:`MAX_LINE`, names no known operation or
makes its handler raise is answered ``{"status": "failed", "error":
<repro.errors payload>}`` and the connection stays usable.  This module
is the only one that knows the framing: :class:`LineServer` is the
server loop under both the shard front (:class:`WireServer`) and the
router front (:class:`repro.cluster.router.RouterWireServer`), and
:class:`TCPClient` is the client under the router's shard links and a
booting shard's coordinator calls.  Each side reads into its own line
buffer, one ``recv`` per segment, and writes a line with one ``sendall``.

Connections are handled by a thread-per-connection
:class:`socketserver.ThreadingTCPServer`; each line is submitted
*blocking* to the :class:`~repro.server.core.TransactionServer`, so a
connection pipelines its own requests in order while different
connections proceed concurrently (admission, not the socket layer, is
the concurrency limiter).
"""

from __future__ import annotations

import errno
import json
import socket
import socketserver
import struct
import threading
from typing import Any, Callable, Optional, TypeVar

from repro.errors import AddressInUseError, error_to_payload
from repro.server.core import TransactionServer
from repro.server.requests import Request

__all__ = ["LineServer", "WireServer", "TCPClient"]


Dispatch = Callable[[dict[str, Any]], dict[str, Any]]
_Server = TypeVar("_Server", bound="LineServer")

#: The longest request line a server reads; the bytes of a longer one
#: past this are dropped, and the line is answered ``failed``.
MAX_LINE = 1 << 20
_RECV_BYTES = 1 << 16


class _LineHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        head = b""  # the start of a line whose newline has not come
        while chunk := self.request.recv(_RECV_BYTES):
            *lines, rest = chunk.split(b"\n")
            for line in lines:
                self._answer(head + line)
                head = b""
            if len(head) <= MAX_LINE:
                head = (head + rest)[: MAX_LINE + 1]
        self._answer(head)  # a last line the peer half-closed after

    def _answer(self, line: bytes) -> None:
        if not line.strip():
            return
        # Bytes from outside the process: whatever decoding or dispatching
        # them raises (RecursionError from a deeply nested line included)
        # is answered, never propagated, and the connection lives on.
        try:
            if len(line) > MAX_LINE:
                raise ValueError(f"request line longer than {MAX_LINE} bytes")
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
            reply = json.dumps(self.server.dispatch(message))  # type: ignore[attr-defined]
        except Exception as exc:  # noqa: BLE001 - surfaced to the peer
            reply = json.dumps({"status": "failed", "error": error_to_payload(exc)})
        self.request.sendall(reply.encode("utf-8") + b"\n")


class _LineTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class LineServer:
    """Serve *dispatch* over newline-JSON TCP in a background thread.

    The one server loop of the code base: the shard front
    (:class:`WireServer`) and the router front
    (:class:`repro.cluster.router.RouterWireServer`) are this class with
    their own ``dispatch(message) -> reply``.
    """

    def __init__(self, dispatch: Dispatch, host: str = "127.0.0.1", port: int = 0) -> None:
        try:
            self._tcp = _LineTCPServer((host, port), _LineHandler)
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise AddressInUseError(host, port) from exc
            raise
        self._tcp.dispatch = dispatch  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port 0 resolves to the real port."""
        return self._tcp.server_address[:2]

    def start(self: _Server) -> _Server:
        if self._thread is not None:
            raise RuntimeError("wire server already started")
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="cc-wire-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting; existing handler threads finish their lines."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class WireServer(LineServer):
    """Serve a :class:`TransactionServer` over TCP in a background thread."""

    def __init__(
        self,
        server: TransactionServer,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_ops: Optional[dict[str, Dispatch]] = None,
    ) -> None:
        # Extension seam: the cluster's 2PC control frames and routed
        # requests travel the same newline-JSON protocol.
        ops: dict[str, Dispatch] = {
            **(extra_ops or {}),
            "ping": lambda message: {"status": "ok", "result": "pong"},
            "stats": lambda message: {"status": "ok", "result": server.stats()},
        }

        def submit(message: dict[str, Any]) -> dict[str, Any]:
            return server.submit(Request.from_dict(message)).to_dict()

        def dispatch(message: dict[str, Any]) -> dict[str, Any]:
            return ops.get(message.get("op"), submit)(message)

        super().__init__(dispatch, host, port)


class TCPClient:
    """Minimal blocking client for the newline-JSON protocol."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Blocking, with the timeout in the kernel: a call is one system
        # call, no poll first; one that runs out raises an OSError.
        self._sock.settimeout(None)
        limit = struct.pack("ll", int(timeout), int(timeout % 1 * 1_000_000))
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
        self._buffer = b""  # reply bytes past the last newline read

    def send(self, message: dict[str, Any]) -> None:
        """Write one request line; the reply is left unread."""
        self._sock.sendall(json.dumps(message).encode("utf-8") + b"\n")

    def receive(self) -> dict[str, Any]:
        """Read and parse the next reply line."""
        while (end := self._buffer.find(b"\n")) < 0:
            chunk = self._sock.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer[:end], self._buffer[end + 1 :]
        return json.loads(line)

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.receive()

    def ping(self) -> bool:
        return self.request({"op": "ping"}).get("result") == "pong"

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})["result"]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
