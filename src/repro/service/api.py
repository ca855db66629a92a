"""The HTTP JSON API of the experiment service (stdlib only).

Built on :class:`http.server.ThreadingHTTPServer` -- the service adds
**no hard dependencies**; everything is standard library.  Routes::

    GET  /health                      liveness + job counts
    GET  /capacity                    total/used/available worker slots,
                                      per-tenant quotas (MAAS pod style)
    GET  /metrics                     Prometheus text exposition (job
                                      counts, tenant activity, capacity)
    GET  /jobs[?tenant=NAME]          list jobs
    POST /jobs                        submit {"tenant": ..., "request": {...}}
    GET  /jobs/<id>                   status + progress
    POST /jobs/<id>/cancel            request cancellation
    GET  /jobs/<id>/results?format=F  rendered records (jsonl/csv/json);
                                      jsonl is the canonical export

Errors are structured JSON -- ``{"error": {"code", "message"}}`` -- with
conventional status codes: 400 malformed request, 404 unknown job or
route, 405 wrong method, 409 invalid transition, 429 quota exceeded.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.gridspec import GridRequest
from repro.service.jobs import JobError
from repro.service.metrics import METRICS_CONTENT_TYPE, render_metrics
from repro.service.queue import ExperimentService
from repro.service.quota import QuotaExceeded
from repro.store import EXPORT_FORMATS

#: Largest accepted request body; grid requests are tiny, so anything
#: bigger is a mistake (or abuse) and is rejected before parsing.
_MAX_BODY_BYTES = 1 << 20


class _APIError(Exception):
    """An error with an HTTP status and a structured payload."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class ServiceAPIHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the daemon owned by the server."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the daemon is quiet; progress is queryable, not logged

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, error: _APIError) -> None:
        self._send_json(
            error.status,
            {"error": {"code": error.code, "message": error.message}},
        )

    def _read_body(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            # The unread body would be parsed as the next request: answer,
            # then close the connection.
            self.close_connection = True
            raise _APIError(
                400, "bad_length",
                f"Content-Length must be an integer in 0..{_MAX_BODY_BYTES}, "
                f"got {header!r}",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _APIError(400, "empty_body", "a JSON body is required")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _APIError(400, "malformed_json", f"invalid JSON body: {error}")
        if not isinstance(payload, dict):
            raise _APIError(400, "malformed_json", "body must be a JSON object")
        return payload

    def _route(self) -> Tuple[Tuple[str, ...], Dict[str, str]]:
        parsed = urlparse(self.path)
        parts = tuple(part for part in parsed.path.split("/") if part)
        query = {
            key: values[0]
            for key, values in parse_qs(parsed.query).items()
            if values
        }
        return parts, query

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._dispatch("GET")
        except _APIError as error:
            self._send_error_json(error)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            self._dispatch("POST")
        except _APIError as error:
            self._send_error_json(error)

    def _dispatch(self, method: str) -> None:
        parts, query = self._route()
        if parts == ("health",) and method == "GET":
            return self._get_health()
        if parts == ("capacity",) and method == "GET":
            return self._send_json(200, self.service.capacity())
        if parts == ("metrics",) and method == "GET":
            return self._send_text(
                200, render_metrics(self.service), METRICS_CONTENT_TYPE
            )
        if parts == ("jobs",):
            if method == "GET":
                return self._get_jobs(query)
            return self._post_job()
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return self._get_job(parts[1])
        if len(parts) == 3 and parts[0] == "jobs":
            if parts[2] == "cancel" and method == "POST":
                return self._post_cancel(parts[1])
            if parts[2] == "results" and method == "GET":
                return self._get_results(parts[1], query)
        raise _APIError(
            404 if method in ("GET", "POST") else 405,
            "unknown_route",
            f"no such endpoint: {method} {self.path}",
        )

    # -- handlers ------------------------------------------------------
    def _get_health(self) -> None:
        jobs = self.service.jobs()
        states: Dict[str, int] = {}
        for record in jobs:
            states[record.state] = states.get(record.state, 0) + 1
        self._send_json(200, {"status": "ok", "jobs": states})

    def _get_jobs(self, query: Dict[str, str]) -> None:
        records = self.service.jobs(tenant=query.get("tenant"))
        self._send_json(200, {"jobs": [record.to_api() for record in records]})

    def _post_job(self) -> None:
        payload = self._read_body()
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise _APIError(400, "missing_tenant",
                            "'tenant' (non-empty string) is required")
        request_data = payload.get("request")
        if not isinstance(request_data, dict):
            raise _APIError(400, "missing_request",
                            "'request' (grid request object) is required")
        try:
            request = GridRequest.from_dict(request_data)
            record = self.service.submit(tenant, request)
        except QuotaExceeded as error:
            raise _APIError(429, "quota_exceeded", str(error))
        except ValueError as error:
            raise _APIError(400, "invalid_request", str(error))
        self._send_json(201, record.to_api())

    def _get_job(self, job_id: str) -> None:
        try:
            record = self.service.job(job_id)
        except JobError as error:
            raise _APIError(404, "unknown_job", str(error))
        self._send_json(200, record.to_api())

    def _post_cancel(self, job_id: str) -> None:
        try:
            record = self.service.cancel(job_id)
        except JobError as error:
            status = 404 if "unknown job" in str(error) else 409
            code = "unknown_job" if status == 404 else "invalid_transition"
            raise _APIError(status, code, str(error))
        self._send_json(200, record.to_api())

    def _get_results(self, job_id: str, query: Dict[str, str]) -> None:
        format = query.get("format", "jsonl")
        if format not in EXPORT_FORMATS:
            raise _APIError(
                400, "unknown_format",
                f"unknown format {format!r} (available: "
                + ", ".join(EXPORT_FORMATS) + ")",
            )
        try:
            text = self.service.results_text(job_id, format)
        except JobError as error:
            raise _APIError(404, "unknown_job", str(error))
        content_type = (
            "application/json" if format == "json" else "text/plain"
        )
        self._send_text(200, text, content_type)


class ServiceAPIServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExperimentService`."""

    daemon_threads = True

    def __init__(self, address, service: ExperimentService) -> None:
        super().__init__(address, ServiceAPIHandler)
        self.service = service


def serve_api(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ServiceAPIServer:
    """Bind the API server (``port=0`` picks a free port; not yet serving).

    The caller drives ``serve_forever`` (usually on a thread) and pairs
    ``server.shutdown()`` with ``service.stop()``.
    """
    return ServiceAPIServer((host, port), service)
