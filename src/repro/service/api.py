"""The HTTP surface of the round-elimination service.

Zero-dependency by construction: a stdlib
:class:`~http.server.ThreadingHTTPServer` in front of the
:class:`~repro.service.orchestrator.Orchestrator`, speaking plain JSON
rendered through :func:`repro.core.io.canonical_json` — so every body
is deterministic down to the byte, which is what lets the restart tests
assert *byte-identical* re-serving of completed jobs.

Endpoints (all under ``/v1``):

=========================  ======================================
``GET  /v1/healthz``       liveness + job totals by state
``GET  /v1/scenarios``     the scenario registry, registry order
``POST /v1/jobs``          submit a job (``202`` + job document)
``GET  /v1/jobs/<id>``     job document (``422`` once ``failed``)
``GET  /v1/jobs/<id>/events``  JSON-lines live trace/event stream
=========================  ======================================

Error mapping: a malformed body or ``Content-Length`` or an invalid request
(:class:`~repro.robustness.errors.InvalidJobRequest`,
``InvalidScenario``, ``InvalidProblem``) is a ``400`` whose body is the
structured :func:`repro.service.wire.render_error` document; an unknown
job or path is a ``404``; a job that *ran* and failed — budget trips
included — keeps its structured error inside the job document and is
served with ``422``.  The server never maps an engine failure to a
``5xx``: typed errors are part of the API, not crashes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.io import canonical_json
from repro.observability.trace import Tracer
from repro.robustness.errors import (
    InvalidJobRequest,
    InvalidProblem,
    InvalidScenario,
)
from repro.scenarios import describe_registry
from repro.service import wire
from repro.service.jobs import JobRecord
from repro.service.orchestrator import Orchestrator

#: Request flaws that map to a ``400`` with a structured error body.
_BAD_REQUEST = (InvalidJobRequest, InvalidScenario, InvalidProblem)

#: How long one events-poll blocks before re-checking for new records.
_STREAM_POLL_SECONDS = 1.0


def job_document(record: JobRecord) -> dict:
    """The JSON document ``GET /v1/jobs/<id>`` serves.

    Deliberately identical to the sealed persistence payload
    (:func:`repro.service.wire.encode_job`): what the store round-trips
    is exactly what the API serves, so a restarted server re-serves a
    completed job byte-for-byte.
    """
    return wire.encode_job(record)


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection; the orchestrator hangs off the server."""

    server: "_Server"  # narrowed from BaseServer for route handlers

    # RL007: the server must not write to stdout/stderr; request logging
    # is the orchestrator's tracer's job.
    def log_message(self, format: str, *args: object) -> None:
        pass

    # -- plumbing --------------------------------------------------------

    def _send_json(self, status: int, payload: object) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_body(self, status: int, error: Exception) -> None:
        if isinstance(error, _BAD_REQUEST):
            self._send_json(status, wire.render_error(error))
        else:
            self._send_json(
                status,
                {"type": type(error).__name__, "message": str(error),
                 "context": {}},
            )

    def _not_found(self, what: str) -> None:
        self._send_json(
            404, {"type": "NotFound", "message": what, "context": {}}
        )

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/v1/healthz":
                self._send_json(200, {
                    "ok": True,
                    "jobs": self.server.orchestrator.counts(),
                    "resumed": self.server.orchestrator.resumed_jobs,
                })
            elif path == "/v1/scenarios":
                self._send_json(200, {"scenarios": describe_registry()})
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                self._stream_events(path[len("/v1/jobs/"):-len("/events")])
            elif path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):])
            else:
                self._not_found(f"no route {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def do_POST(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path != "/v1/jobs":
                self._not_found(f"no route {path!r}")
                return
            self._submit_job()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _submit_job(self) -> None:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown, so the connection cannot be
            # reused after the reply.
            self.close_connection = True
            self._send_error_body(
                400, InvalidJobRequest(f"bad Content-Length {header!r}")
            )
            return
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        # ValueError covers bad UTF-8, bad JSON, and an integer literal
        # past the interpreter's digit limit.
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except ValueError as error:
            self._send_error_body(
                400, InvalidJobRequest(f"request body is not JSON: {error}")
            )
            return
        try:
            request = wire.parse_job_request(payload)
            record = self.server.orchestrator.submit(request)
        except _BAD_REQUEST as error:
            self._send_error_body(400, error)
            return
        self._send_json(202, job_document(record))

    def _get_job(self, job_id: str) -> None:
        record = self.server.orchestrator.get(job_id)
        if record is None:
            self._not_found(f"no job {job_id!r}")
            return
        status = 422 if record.state == "failed" else 200
        self._send_json(status, job_document(record))

    def _stream_events(self, job_id: str) -> None:
        """Serve the live event stream as close-delimited JSON lines.

        HTTP/1.0 semantics: no ``Content-Length``, the connection close
        ends the stream.  The stream ends once the job is terminal and
        every event has been delivered — the last line is always the
        terminal ``job.state`` event.
        """
        orchestrator = self.server.orchestrator
        if orchestrator.get(job_id) is None:
            self._not_found(f"no job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        start = 0
        while True:
            events, finished = orchestrator.events_since(
                job_id, start, timeout=_STREAM_POLL_SECONDS
            )
            for event in events:
                self.wfile.write(
                    (canonical_json(event) + "\n").encode("utf-8")
                )
            if events:
                self.wfile.flush()
            start += len(events)
            if finished:
                return


#: How often the serving loop checks for a :meth:`ReproService.stop`
#: request.  ``shutdown`` blocks until the loop notices, so the default
#: 0.5 s poll would add up to half a second to every stop; 0.05 s wakes
#: the idle serving thread 20 times a second, a negligible cost.
SHUTDOWN_POLL_S = 0.05


class _Server(ThreadingHTTPServer):
    """The listening socket plus the orchestrator the handlers use."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], orchestrator: Orchestrator
    ) -> None:
        self.orchestrator = orchestrator
        super().__init__(address, _Handler)


class ReproService:
    """One service instance: orchestrator, HTTP server, serving thread.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction) — the test harness and the CLI smoke mode both rely
    on that.  The object is also a context manager: ``with
    ReproService(tmp) as service: ...`` starts on entry and stops on
    exit.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        master: Tracer | None = None,
    ) -> None:
        self.orchestrator = Orchestrator(
            directory, workers=workers, master=master
        )
        self._server = _Server((host, port), self.orchestrator)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            name="repro-service-http",
            daemon=True,
        )
        self._started = False

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._server.server_name

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with 0)."""
        return self._server.server_port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "ReproService":
        """Start serving; returns ``self`` for chaining."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        """Stop accepting, close the socket, drain the workers."""
        self._server.shutdown()
        self._server.server_close()
        self.orchestrator.shutdown()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["job_document", "ReproService"]
