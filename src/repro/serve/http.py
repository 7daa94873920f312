"""The HTTP surface of ``repro serve`` — stdlib only.

:class:`ReproServer` is a :class:`http.server.ThreadingHTTPServer`
(one daemon thread per connection, ``socketserver`` threading mix-in
underneath) wrapping one :class:`~repro.serve.service.QueryService`.
HTTP/1.1 with explicit ``Content-Length`` on every response, so clients
keep connections alive across requests — the load harness depends on it.

Routes:

========  =========  ====================================================
method    path       meaning
========  =========  ====================================================
GET       /healthz   liveness + occupancy snapshot (JSON)
GET       /metrics   Prometheus exposition text of the live registry
POST      /query     answer an XR query (see :mod:`repro.serve.protocol`)
POST      /update    apply an update stream through the single writer
========  =========  ====================================================

Status mapping: 400 for protocol errors (malformed body, unparsable
query, a fact that does not fit the source schema), 429 +
``Retry-After`` for admission rejections, 404 for unknown paths, 405 +
``Allow`` for the other standard methods, 500 only for genuine bugs —
an over-budget query is **not** an error (it returns 200 with
``degraded: true`` and the unknown candidates listed, the degraded
answers of DESIGN §9).  Every response, the base class's own errors included, is
JSON written in one write.

:func:`run_serve` is the CLI entry: it serves from a background thread
and parks the main thread on an event that SIGTERM/SIGINT set, then
shuts the listener down cleanly (finishing in-flight requests) — calling
``shutdown()`` from the serving thread itself would deadlock, which is
why the signal handler only sets the event.
"""

from __future__ import annotations

import json
import signal
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.serve.admission import AdmissionRejected
from repro.serve.protocol import (
    ProtocolError,
    parse_query_request,
    parse_update_request,
)
from repro.serve.service import QueryService

#: Refuse bodies above this size before reading them (a parse-time
#: memory bound, not a capacity knob).
MAX_BODY_BYTES = 8 * 1024 * 1024


class ReproServer(ThreadingHTTPServer):
    """One listening socket, one shared :class:`QueryService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, ServeHandler)
        self.service = service


class ServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY: also keeps the base class's own error responses
    # (headers and body written apart) from stalling on Nagle.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; a load test at a
    # few hundred QPS would drown the console.
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -------------------------------------------------------------- GET

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            self._send_text(200, self.service.metrics_text())
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    # ------------------------------------------------------------- POST

    def do_POST(self) -> None:
        if self.path not in ("/query", "/update"):
            # The body stays unread: close after answering, or a kept-alive
            # connection would parse it as the next request.
            self.close_connection = True
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        try:
            payload = self._read_json_body()
            if self.path == "/query":
                body = self.service.query(parse_query_request(payload))
            else:
                body = self.service.update(parse_update_request(payload))
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionRejected as exc:
            self._send_json(
                429,
                {"error": exc.reason, "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
        except ValueError as exc:
            # e.g. an update naming a non-source relation.
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, body)

    # ---------------------------------------------------- other methods

    def _method_not_allowed(self) -> None:
        # Any request body (PUT, PATCH) stays unread: close after
        # answering, as for an unknown POST path.
        self.close_connection = True
        self._send_json(
            405,
            {"error": f"method {self.command} not allowed"},
            extra_headers={"Allow": "GET, POST"},
        )

    do_PUT = do_DELETE = do_PATCH = do_HEAD = _method_not_allowed
    do_OPTIONS = do_TRACE = do_CONNECT = _method_not_allowed

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """The base class's own errors (a malformed request line, an
        unrecognized method, oversized headers) as JSON in one write,
        closing the connection as the base class does."""
        self.close_connection = True
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})

    def _read_json_body(self) -> object:
        def unread(message: str) -> ProtocolError:
            self.close_connection = True  # as for an unknown path
            return ProtocolError(message)

        length = self.headers.get("Content-Length")
        if length is None:
            raise unread("Content-Length required")
        try:
            size = int(length)
        except ValueError:
            raise unread(f"bad Content-Length: {length!r}") from None
        if size < 0 or size > MAX_BODY_BYTES:
            raise unread(f"body size {size} out of range")
        raw = self.rfile.read(size)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc

    # ---------------------------------------------------------- writing

    def _send_json(
        self,
        code: int,
        body: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        encoded = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send_bytes(code, encoded, "application/json", extra_headers)

    def _send_text(self, code: int, text: str) -> None:
        self._send_bytes(
            code, text.encode("utf-8"), "text/plain; charset=utf-8"
        )

    def _send_bytes(
        self,
        code: int,
        encoded: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write one whole response — status line, headers and body — in
        a single write.  ``end_headers`` would flush the headers on their
        own; two small writes per response on a keep-alive connection meet
        Nagle's algorithm and the client's delayed ACK, a ~40 ms stall per
        request."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # What end_headers() would write: the buffered head, then a blank
        # line.  An HTTP/0.9 request buffers no head (the bare body).
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        if self.command == "HEAD":
            encoded = b""  # a HEAD response has no body
        self.wfile.write(head + b"\r\n" + encoded if head else encoded)


def run_serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    log: Callable[[str], None] = print,
) -> int:
    """Serve until SIGTERM/SIGINT; returns 0 on clean shutdown.

    Must be called from the main thread (signal handlers).  The listener
    runs in a background thread; the main thread parks on an event so
    ``shutdown()`` is never called from the serving thread (deadlock).
    """
    server = ReproServer((host, port), service)
    stop = threading.Event()

    def handle_signal(signum, frame) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, handle_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    log(f"% serving on http://{bound_host}:{bound_port} (SIGTERM to stop)")
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        service.close()
    log("% shut down cleanly")
    return 0
