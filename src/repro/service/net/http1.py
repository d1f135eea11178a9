"""HTTP/1.1 over asyncio streams: the one host both services run on.

:mod:`repro.service.net.server` and :mod:`repro.service.net.gateway`
both speak plain HTTP/1.1 (keep-alive, ``Content-Length`` bodies, no
chunked encoding), and both are an :class:`HttpHost` subclass that
keeps only its routes, endpoint handlers and resources.  The host owns
the one copy of everything else, so the two never drift:

* the TLS-capable listener (``port=0`` resolved on :meth:`~HttpHost.start`),
  ``scheme`` and ``uptime_s``;
* :meth:`~HttpHost.serve` with SIGTERM/SIGINT handlers and one drain:
  stop accepting, answer ``503 shutting_down`` on kept-alive sockets,
  wait up to ``drain_timeout`` for in-flight requests, close the
  keep-alive sockets, then the subclass's ``_on_close`` hook;
* the keep-alive connection loop: ``400`` for a malformed head or
  ``Content-Length``, ``413 payload_too_large`` for a body over
  ``max_body`` before reading it;
* dispatch: in-flight accounting, ``http_requests`` / ``http:<path>``,
  :class:`~repro.service.net.wire.WireError` -> ``400``, any other
  exception -> ``500``, one ``http_errors`` per reply >= 400, and the
  ``request_latency`` histogram;
* the shared route checks: bearer auth (``GET /v1/health`` exempt) and
  ``405`` for a wrong method;
* :func:`start_host_thread` / :func:`run_host`, the test-thread and
  blocking-CLI runners.

The rest is framing: :func:`parse_head` / :func:`format_response` on the
server side, :func:`send_request` / :func:`read_response` for the
gateway's pooled backend connections (the blocking
:class:`~repro.service.net.client.RemoteCompileService` rides stdlib
``http.client`` instead), and :class:`BodyKeyCache`, the
sha256(body) -> derived-keys LRU both hosts use to skip re-decoding a
request body they have seen before.  Stdlib only; wire envelopes stay in
:mod:`repro.service.net.wire`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import ssl
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar, Union

from repro.exceptions import ServiceError
from repro.service.net.wire import WireError, error_to_wire
from repro.service.stats import ServiceStats

__all__ = [
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_BODY",
    "DEFAULT_DRAIN_TIMEOUT",
    "REASONS",
    "BodyKeyCache",
    "HttpHost",
    "HostHandle",
    "start_host_thread",
    "run_host",
    "parse_head",
    "format_response",
    "send_request",
    "read_response",
]

MAX_HEADER_BYTES = 64 * 1024
DEFAULT_MAX_BODY = 32 * 1024 * 1024
DEFAULT_DRAIN_TIMEOUT = 30.0
_KEEPALIVE_TIMEOUT = 75.0
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# dispatch result: (status, JSON payload or pre-encoded body bytes, extra headers)
Reply = Tuple[int, Union[Dict[str, Any], bytes], Dict[str, str]]

REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BodyKeyCache:
    """Bounded LRU from the sha256 of a request body to keys derived from it.

    Sound only for values that are a pure function of the body bytes
    (a request envelope carries its resolved ``calib_bands``, so its
    fingerprint and shard are).  Not thread-safe: use it from one event
    loop.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, body: bytes) -> Tuple[str, Optional[Any]]:
        """``(body digest, cached value or None)``; a hit becomes most recent."""
        digest = hashlib.sha256(body).hexdigest()
        value = self._entries.get(digest)
        if value is not None:
            self._entries.move_to_end(digest)
        return digest, value

    def put(self, digest: str, value: Any) -> None:
        self._entries[digest] = value
        self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


def parse_head(blob: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """``b"GET /x HTTP/1.1\\r\\n..."`` -> ``(METHOD, path, headers)``.

    Header names come back lower-cased; the query string is stripped from
    the path.  Returns ``None`` for anything malformed — the caller owes
    the peer a ``400``.
    """
    try:
        request_line, *header_lines = blob.decode("latin-1").split("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        return None
    if not version.startswith("HTTP/1."):
        return None
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target.split("?", 1)[0], headers


def format_response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Mapping[str, str],
    keep_alive: bool,
) -> bytes:
    """Serialize one response (head + body) ready for ``writer.write``."""
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: " + ("keep-alive" if keep_alive else "close"),
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def send_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    host: str,
    headers: Mapping[str, str],
    body: Optional[bytes],
) -> None:
    """Write one client-side request onto an open connection."""
    payload = body or b""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(payload)}",
        "Connection: keep-alive",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response; returns ``(status, lower-cased headers, body)``.

    Raises ``ConnectionError`` on a malformed or truncated peer answer so
    pooled-connection callers treat every failure mode uniformly (drop
    the connection, try the next replica).
    """
    head = await reader.readuntil(b"\r\n\r\n")
    try:
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        _, status_text, _ = status_line.split(" ", 2)
        status = int(status_text)
    except ValueError as exc:
        raise ConnectionError(f"malformed response head: {exc}") from exc
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise ConnectionError("bad Content-Length in response") from exc
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class HttpHost:
    """One asyncio HTTP/1.1 listener: lifecycle, connection loop, dispatch.

    Subclasses set :attr:`stats` (a :class:`ServiceStats`) in their
    constructor, list their endpoints in :attr:`ROUTES`, implement
    ``_metrics_body`` for ``GET /v1/metrics``, and may override the
    ``_on_start`` / ``_on_close`` / ``_after_request`` hooks.

    Args:
        host / port: bind address; ``port=0`` picks a free port
            (:attr:`port` holds the real one after :meth:`start`).
        max_body: request body cap in bytes before ``413``.
        drain_timeout: seconds shutdown waits for in-flight requests.
        auth_token: bearer token every route except ``GET /v1/health``
            requires (``401 unauthorized`` otherwise); ``None`` honours
            ``$CAQR_AUTH_TOKEN``, empty/unset means no auth.
        tls_cert / tls_key: PEM chain + key; when set the listener speaks
            TLS and :attr:`scheme` is ``https``.
    """

    #: ``path -> (method, name of an async (headers, body) -> Reply method)``
    ROUTES: Mapping[str, Tuple[str, str]] = {}
    #: names the host in its thread, startup errors and drain messages
    ROLE = "host"

    stats: ServiceStats

    def __init__(
        self,
        host: str,
        port: int,
        max_body: int = DEFAULT_MAX_BODY,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        auth_token: Optional[str] = None,
        tls_cert: Optional[str] = None,
        tls_key: Optional[str] = None,
    ):
        if bool(tls_cert) != bool(tls_key):
            raise ServiceError("TLS needs both tls_cert and tls_key")
        self.host = host
        self.port = port
        self.max_body = max_body
        self.drain_timeout = drain_timeout
        self.auth_token = (
            auth_token
            if auth_token is not None
            else os.environ.get("CAQR_AUTH_TOKEN") or None
        )
        self.tls_cert = tls_cert
        self.tls_key = tls_key
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._inflight = 0
        self._draining = False
        self._started_monotonic: Optional[float] = None

    @property
    def scheme(self) -> str:
        return "https" if self.tls_cert else "http"

    def uptime_s(self) -> float:
        """Seconds since the listening socket bound (0.0 before start)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "HttpHost":
        """Bind the listening socket (resolving ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        sslctx = None
        if self.tls_cert:
            sslctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            sslctx.load_cert_chain(self.tls_cert, self.tls_key)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES,
            ssl=sslctx,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        # no handler has run yet: the first one needs a loop turn
        self._on_start()
        return self

    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Serve until :meth:`request_shutdown` fires, then drain and stop."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix event loops
        await self._stop_event.wait()
        await self.drain()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (call from the loop thread / a signal)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Thread-safe :meth:`request_shutdown` (for embedding threads)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, close everything."""
        if self._draining:
            return
        self._draining = True
        self.stats.count("drains")
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle_event.wait(), self.drain_timeout)
        except asyncio.TimeoutError:
            self.stats.count("drain_timeouts")
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            try:
                # 3.12+ wait_closed also waits for connection handlers;
                # the writers above are closed, so this is quick — but
                # never let a stuck handler wedge the shutdown
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
            except asyncio.TimeoutError:
                pass
        await self._on_close()

    def _on_start(self) -> None:
        """Hook: acquire loop-bound resources once the listener is bound."""

    async def _on_close(self) -> None:
        """Hook: release resources once the drain is done."""

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self.stats.count("http_connections")
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # asyncio.run teardown cancels handlers still parked on a
            # read; the finally below closes the socket
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), _KEEPALIVE_TIMEOUT
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
                ConnectionError,
            ):
                return
            parsed = parse_head(head)
            if parsed is None:
                await self._refuse(writer, 400, "bad_request", "malformed HTTP request")
                return
            method, path, headers = parsed
            try:
                content_length = int(headers.get("content-length", "0"))
            except ValueError:
                content_length = -1
            if content_length < 0:
                await self._refuse(writer, 400, "bad_request", "bad Content-Length")
                return
            if content_length > self.max_body:
                self.stats.count("http_rejected")
                await self._refuse(
                    writer,
                    413,
                    "payload_too_large",
                    f"body of {content_length} bytes exceeds the "
                    f"{self.max_body}-byte limit",
                )
                return
            body = b""
            if content_length:
                try:
                    body = await reader.readexactly(content_length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
            status, payload, extra = await self._dispatch(
                method, path, headers, body
            )
            keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
                and not self._draining
            )
            try:
                await self._write(writer, status, payload, extra, keep_alive)
            except ConnectionError:
                return
            if not keep_alive:
                return

    async def _refuse(
        self, writer: asyncio.StreamWriter, status: int, code: str, message: str
    ) -> None:
        """Answer a request that never reaches dispatch, then hang up."""
        try:
            await self._write(writer, status, error_to_wire(code, message), {}, False)
        except ConnectionError:
            pass

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], bytes],
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        # payload is a JSON-compatible dict or a pre-encoded body (warm
        # envelopes, proxied backend answers, the Prometheus text)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        headers = dict(extra_headers)
        content_type = headers.pop("Content-Type", "application/json")
        writer.write(format_response(status, body, content_type, headers, keep_alive))
        await writer.drain()

    # -- dispatch and routing --------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        start = time.perf_counter()
        self._inflight += 1
        self._idle_event.clear()
        self.stats.count("http_requests")
        self.stats.count(f"http:{path}")
        try:
            reply = await self._route(method, path, headers, body)
        except WireError as exc:
            reply = 400, error_to_wire("bad_request", str(exc)), {}
        except Exception as exc:  # never leak a traceback as a hung socket
            reply = (
                500,
                error_to_wire("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()
        if reply[0] >= 400:
            self.stats.count("http_errors")
        elapsed = time.perf_counter() - start
        self.stats.observe("request_latency", elapsed)
        self._after_request(method, path, reply, elapsed)
        return reply

    def _after_request(
        self, method: str, path: str, reply: Reply, elapsed: float
    ) -> None:
        """Hook: per-request observability beyond ``request_latency``."""

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        if path != "/v1/health":
            # health is auth-exempt and answered mid-drain: load balancers
            # and the gateway's membership prober must always see liveness
            if (
                self.auth_token is not None
                and headers.get("authorization", "") != f"Bearer {self.auth_token}"
            ):
                self.stats.count("http_unauthorized")
                return (
                    401,
                    error_to_wire("unauthorized", "missing or invalid bearer token"),
                    {},
                )
            if self._draining and path != "/v1/metrics":
                # metrics stay answered so scrapes survive a rollout
                self.stats.count("http_rejected")
                return (
                    503,
                    error_to_wire("shutting_down", f"{self.ROLE} is draining"),
                    {},
                )
        route = self.ROUTES.get(path)
        if route is None:
            return 404, error_to_wire("not_found", f"no route {method} {path}"), {}
        allowed, handler = route
        if method != allowed:
            return (
                405,
                error_to_wire("method_not_allowed", f"{method} not allowed on {path}"),
                {},
            )
        return await getattr(self, handler)(headers, body)

    async def _handle_metrics(self, headers: Dict[str, str], body: bytes) -> Reply:
        return 200, self._metrics_body(), {"Content-Type": _PROMETHEUS_CONTENT_TYPE}

    def _metrics_body(self) -> bytes:
        """The ``GET /v1/metrics`` Prometheus exposition body."""
        raise NotImplementedError

    @staticmethod
    def _json_body(body: bytes) -> Any:
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not JSON: {exc}") from exc


_H = TypeVar("_H", bound="HostHandle")


class HostHandle:
    """An :class:`HttpHost` running on a daemon thread (tests, benches)."""

    def __init__(self, host: HttpHost, thread: threading.Thread):
        self._host = host
        self.thread = thread

    @property
    def url(self) -> str:
        return f"{self._host.scheme}://{self._host.host}:{self._host.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the host and join its thread (a no-op once it has stopped)."""
        if self.thread.is_alive():
            self._host.request_shutdown_threadsafe()
        self.thread.join(timeout)


def start_host_thread(
    host_type: Type[HttpHost],
    handle_type: Type[_H],
    ready_timeout: float,
    kwargs: Dict[str, Any],
) -> _H:
    """Run ``host_type(**kwargs)`` on a background thread; wait until bound.

    ``port`` defaults to 0 (a free port; the handle's ``url`` reflects
    the real one).  Startup failures surface as :class:`ServiceError`.
    """
    kwargs.setdefault("port", 0)
    ready = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            host = host_type(**kwargs)
            await host.start()
            box["host"] = host
            ready.set()
            await host.serve(install_signal_handlers=False)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # surface startup failures to the caller
            box.setdefault("error", exc)
            ready.set()

    role = host_type.ROLE
    thread = threading.Thread(target=_run, daemon=True, name=f"caqr-{role}")
    thread.start()
    if not ready.wait(ready_timeout):
        raise ServiceError(f"{role} did not start in time")
    if "error" in box:
        raise ServiceError(f"{role} failed to start: {box['error']}")
    return handle_type(box["host"], thread)


def run_host(host: HttpHost, banner: str = "") -> int:
    """Blocking entry point behind ``repro serve`` and ``repro gateway``.

    Prints ``serving on <host>:<port>`` (plus *banner*) once bound —
    machine-parseable: the smoke scripts and process supervisors key on
    it — then runs until SIGTERM/SIGINT, drains, and returns 0.
    """

    async def _main() -> None:
        await host.start()
        print(f"serving on {host.host}:{host.port}{banner}", flush=True)
        await host.serve(install_signal_handlers=True)
        print(f"{host.ROLE} drained and stopped", flush=True)

    asyncio.run(_main())
    return 0
