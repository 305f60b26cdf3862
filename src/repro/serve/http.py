"""Minimal asyncio HTTP/1.1 plumbing for the sweep service.

The service speaks plain HTTP/JSON (plus newline-delimited JSON for
streams) over stdlib asyncio — no third-party web framework, matching
the repository's no-new-dependencies rule. This module owns the wire
format only: request parsing with hard size limits, response encoding,
and the NDJSON streaming preamble. Routing and semantics live in
:mod:`repro.serve.server`.

Deliberately small surface: one request per connection
(``Connection: close``), ``Content-Length`` bodies only (no chunked
requests), no TLS. The service is an internal cluster protocol, not an
internet-facing web server.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: Hard limits: a request line/header block/body beyond these is a
#: protocol error, not a buffering exercise.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """Malformed HTTP from a peer (maps to a 400 when answerable)."""


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    #: Path with the query string stripped.
    path: str
    #: Raw query string ("" when absent).
    query: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Parse the body as JSON; raises :class:`ProtocolError`."""
        if not self.body:
            raise ProtocolError("expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; None on a cleanly closed connection."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request-line") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request line too long") from exc
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError,
                asyncio.LimitOverrunError) as exc:
            raise ProtocolError("connection closed mid-headers") from exc
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError("header block too large")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise ProtocolError("bad Content-Length") from exc
        if n < 0 or n > MAX_BODY_BYTES:
            raise ProtocolError("body too large")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc
    return Request(method=method, path=path, query=query,
                   headers=headers, body=body)


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json",
                   headers: dict[str, str] | None = None) -> bytes:
    """One complete ``Connection: close`` response. ``headers`` adds
    extra response headers (e.g. ``Retry-After`` on a 503)."""
    reason = _REASONS.get(status, "Unknown")
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def send_json(writer: asyncio.StreamWriter, status: int,
                    payload: object,
                    headers: dict[str, str] | None = None) -> None:
    """Encode ``payload`` (sorted keys — byte-stable) and send it."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    writer.write(response_bytes(status, body, headers=headers))
    await writer.drain()


async def send_error(writer: asyncio.StreamWriter, status: int,
                     message: str,
                     headers: dict[str, str] | None = None,
                     **fields: object) -> None:
    """One structured error body: ``{"error": ..., **fields}`` — the
    extra fields carry machine-readable context (a drain's ``state``)
    alongside the message."""
    await send_json(writer, status, {"error": message, **fields},
                    headers=headers)


async def start_stream(writer: asyncio.StreamWriter,
                       content_type: str = "application/x-ndjson",
                       ) -> None:
    """Send the header block of an unbounded streaming response; the
    caller then writes NDJSON lines and closes the connection to end
    the stream (HTTP/1.0-style delimiting — both of our clients read
    to EOF)."""
    head = (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {content_type}\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1"))
    await writer.drain()
