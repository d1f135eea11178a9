"""Minimal HTTP/1.1 primitives shared by the server and the gateway.

:mod:`repro.service.net.server` and :mod:`repro.service.net.gateway`
both speak plain HTTP/1.1 over asyncio streams (keep-alive,
``Content-Length`` bodies, no chunked encoding).  This module holds the
pieces they share so the two never drift:

* :func:`parse_head` — request-line + header block parsing (server side);
* :func:`format_response` — response serialization with the repo's
  keep-alive/Content-Type conventions (server side);
* :func:`send_request` / :func:`read_response` — the *client* half used
  by the gateway's pooled backend connections (and by nothing else: the
  blocking :class:`~repro.service.net.client.RemoteCompileService` rides
  stdlib ``http.client`` instead);
* :class:`BodyKeyCache` — the sha256(body) -> derived-keys LRU both
  hosts use to skip re-decoding a request body they have seen before.

Everything is stdlib only and carries no service semantics — wire
envelopes stay in :mod:`repro.service.net.wire`.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "MAX_HEADER_BYTES",
    "REASONS",
    "BodyKeyCache",
    "parse_head",
    "format_response",
    "send_request",
    "read_response",
]

MAX_HEADER_BYTES = 64 * 1024

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
