"""TCP front-end: a JSON-lines daemon and the matching socket client.

The daemon is a :class:`socketserver.ThreadingTCPServer` wrapping one
:class:`~repro.serve.service.CampaignService`; every connection speaks
the newline-framed protocol of :mod:`repro.serve.protocol` (one request
object per line, one response object back).  Handler threads only parse,
dispatch and encode — all scheduling state lives in the service, so a
dropped connection never strands work.

The client opens one connection per request.  Long waits (``result``)
are chunked into short server-side waits so neither side pins a socket
for the lifetime of a campaign.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple

from .. import __version__, obs
from ..exps.engine import RunSpec
from .jobs import CellFailure
from .protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    ProtocolError,
    ProtocolVersionError,
    UnknownWorkloadError,
    check_version,
    decode_line,
    encode_line,
    error,
    ok,
    spec_from_wire,
    spec_to_wire,
    summaries_to_wire,
)
from .service import (
    CampaignService,
    JobCancelledError,
    JobFailedError,
    ServiceBusyError,
    ServiceError,
    UnknownJobError,
)

log = logging.getLogger("repro.serve.daemon")

#: Default daemon address (loopback; pick a free port with port 0).
DEFAULT_ADDRESS = "127.0.0.1:7571"

#: Longest single server-side wait for a ``result`` request; clients
#: re-issue until their own deadline expires.
MAX_RESULT_WAIT = 10.0


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port``; raises ``ValueError`` on malformed input."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


# ----------------------------------------------------------------------
# Server side.
# ----------------------------------------------------------------------
class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                request = decode_line(line)
                response = self.server.daemon.dispatch(request)
            except ProtocolError as exc:
                response = error(str(exc), kind="protocol")
            except Exception as exc:  # never leak a traceback to the wire
                log.exception("request failed")
                response = error(f"internal error: {exc}", kind="internal")
            self.wfile.write(encode_line(response))
            self.wfile.flush()
            if response.get("bye"):
                break


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceDaemon:
    """One campaign service behind a JSON-lines TCP socket."""

    def __init__(
        self,
        service: CampaignService,
        address: str = DEFAULT_ADDRESS,
    ):
        self.service = service
        host, port = parse_address(address)
        self._server = _Server((host, port), _Handler)
        self._server.daemon = self  # handler back-reference
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The bound ``host:port`` (resolves port 0 to the real one)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ServiceDaemon":
        """Serve in a background thread (tests, embedded use)."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="serve-daemon", daemon=True
        )
        self._thread.start()
        log.info("campaign service listening on %s", self.address)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI daemon subcommand)."""
        self.service.start()
        log.info("campaign service listening on %s", self.address)
        try:
            self._server.serve_forever()
        finally:
            self.service.close()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- dispatch --------------------------------------------------------
    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request object to the service; never raises
        :class:`ServiceError` (they become structured error responses)."""
        op = request.get("op")
        try:
            check_version(request)
        except ProtocolVersionError as exc:
            # Structured rejection, not a KeyError: the client learns what
            # majors this daemon speaks and can downgrade or upgrade.
            return error(
                str(exc),
                kind="version",
                requested=exc.requested,
                supported=list(SUPPORTED_PROTOCOL_VERSIONS),
            )
        try:
            if op == "ping":
                return ok(
                    __version__=__version__,
                    **self.service.stats(),
                )
            if op == "submit":
                spec = spec_from_wire(request.get("spec") or {})
                job_id = self.service.submit(
                    spec, priority=int(request.get("priority", 0))
                )
                return ok(job_id=job_id)
            if op == "status":
                return ok(**self.service.status(request["job_id"]))
            if op == "progress":
                return ok(**self.service.progress(request["job_id"]))
            if op == "result":
                return self._result(request)
            if op == "cancel":
                return ok(cancelled=self.service.cancel(request["job_id"]))
            if op == "metrics":
                return ok(metrics=obs.metrics_registry().to_dict())
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return ok(bye=True)
        except UnknownWorkloadError as exc:
            # Like version errors: structured, with the names the client
            # needs to correct the spec (or switch to inline profiles).
            return error(
                str(exc),
                kind="workload",
                missing=exc.missing,
                available=exc.available,
            )
        except ServiceBusyError as exc:
            return error(str(exc), kind="busy")
        except UnknownJobError as exc:
            return error(f"unknown job {exc.args[0]}", kind="unknown-job")
        except JobFailedError as exc:
            return error(
                str(exc),
                kind="failed",
                failures=[f.to_dict() for f in exc.failures],
            )
        except JobCancelledError as exc:
            return error(str(exc), kind="cancelled")
        except KeyError as exc:
            raise ProtocolError(f"request missing field {exc}") from exc
        raise ProtocolError(f"unknown op {op!r}")

    def _result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        wait = min(float(request.get("timeout", 0.0)), MAX_RESULT_WAIT)
        try:
            result = self.service.result(request["job_id"], timeout=wait)
        except TimeoutError:
            snapshot = self.service.status(request["job_id"])
            return ok(pending=True, state=snapshot["state"])
        return ok(
            pending=False,
            state="done",
            spec=spec_to_wire(result.spec),
            cells=summaries_to_wire(result.summaries),
        )


# ----------------------------------------------------------------------
# Client side.
# ----------------------------------------------------------------------
class ServiceClient:
    """Socket client: one connection per request, same surface as an
    in-process :class:`~repro.serve.service.CampaignService` (with
    ``ping`` for ``stats``)."""

    def __init__(self, address: str = DEFAULT_ADDRESS, connect_timeout: float = 10.0):
        self.host, self.port = parse_address(address)
        self._connect_timeout = connect_timeout

    # -- plumbing --------------------------------------------------------
    def request(self, op: str, **payload: Any) -> Dict[str, Any]:
        """One request/response round trip; raises on error envelopes."""
        frame = encode_line({"op": op, "v": PROTOCOL_VERSION, **payload})
        # The socket read must outlive the server-side result wait.
        io_timeout = self._connect_timeout + float(payload.get("timeout", 0.0))
        with socket.create_connection(
            (self.host, self.port), timeout=io_timeout
        ) as sock:
            sock.sendall(frame)
            line = sock.makefile("rb").readline()
        if not line:
            raise ServiceError("daemon closed the connection")
        response = decode_line(line)
        if response.get("ok"):
            return response
        self._raise(response)

    def _raise(self, response: Dict[str, Any]) -> None:
        kind = response.get("kind")
        message = response.get("error", "request failed")
        if kind == "version":
            raise ProtocolError(message)
        if kind == "workload":
            raise UnknownWorkloadError(
                response.get("missing", []), response.get("available", [])
            )
        if kind == "busy":
            raise ServiceBusyError(message)
        if kind == "unknown-job":
            raise UnknownJobError(message)
        if kind == "failed":
            raise JobFailedError(
                response.get("job_id", "?"),
                [CellFailure.from_dict(f) for f in response.get("failures", [])],
            )
        if kind == "cancelled":
            raise JobCancelledError(message)
        raise ServiceError(message)

    # -- API -------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def submit(self, spec: RunSpec, priority: int = 0) -> str:
        return self.request(
            "submit", spec=spec_to_wire(spec), priority=priority
        )["job_id"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("status", job_id=job_id)

    def progress(self, job_id: str) -> Dict[str, Any]:
        return self.request("progress", job_id=job_id)

    def result(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = MAX_RESULT_WAIT,
    ) -> Dict[str, Any]:
        """Wait for a finished job; returns the raw wire payload.

        Use :func:`repro.serve.protocol.summaries_from_wire` on the
        ``cells`` field to rebuild :class:`SuiteSummary` objects.  Raises
        :class:`JobFailedError` / :class:`JobCancelledError` /
        :class:`TimeoutError` like the in-process API.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                poll if deadline is None
                else min(poll, deadline - time.monotonic())
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"{job_id} still pending")
            response = self.request("result", job_id=job_id, timeout=remaining)
            if not response.get("pending"):
                return response

    def cancel(self, job_id: str) -> bool:
        return bool(self.request("cancel", job_id=job_id)["cancelled"])

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")["metrics"]

    def shutdown(self) -> None:
        self.request("shutdown")
