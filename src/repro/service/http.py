"""A minimal asyncio HTTP/1.1 server — stdlib only, JSON in, JSON out.

The prediction service deliberately avoids third-party web frameworks
(the whole repo runs on the baked-in python toolchain), so this module
implements just enough of HTTP/1.1 on top of ``asyncio`` streams for a
local JSON API: request-line + header parsing, ``Content-Length``
bodies, keep-alive connections, and JSON responses.  Handlers receive
a :class:`Request` and return a :class:`Response`; anything they raise
as :class:`HttpError` becomes a structured ``{"error": ...}`` payload
with that status, and any other exception becomes a 500.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Set
from urllib.parse import parse_qsl, urlsplit

#: Request bodies above this are rejected with 413 (a predict request
#: is a few hundred bytes; this is a local capacity-planning tool, not
#: an upload endpoint).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Header-count bound (anything real uses a handful).
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """An error with an HTTP status; the handler's structured failure path."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict:
        """The body as a JSON object, or a structured 400."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"malformed JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


@dataclass
class Response:
    """A JSON response (the payload is serialised by the server)."""

    payload: Dict
    status: int = 200


Handler = Callable[[Request], Awaitable[Response]]


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; an over-long line is a structured 400."""
    try:
        return await reader.readline()
    except ValueError:
        # StreamReader.readline's answer to a line beyond its buffer limit.
        raise HttpError(400, "request or header line too long") from None


class HttpServer:
    """Serve a single async JSON handler over HTTP/1.1.

    ``port=0`` binds an ephemeral port; the bound port is available as
    ``self.port`` after :meth:`start`.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False

    async def start(self) -> "HttpServer":
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop listening and end every connection before returning.

        Idle keep-alive connections are closed; a busy one ends after
        its response.  Waiting for all of them means none is left for
        the event loop's teardown to cancel, which Python 3.11 reports
        as a traceback.
        """
        if self._server is not None:
            self._closing = True
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            pending = self._connections - {asyncio.current_task()}
            if pending:
                await asyncio.wait(pending)
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                try:
                    # Waiting for a request: close() may end the connection.
                    self._idle.add(writer)
                    try:
                        request = await self._read_request(reader)
                    finally:
                        self._idle.discard(writer)
                except HttpError as error:
                    await self._write_response(
                        writer, Response({"error": error.message}, status=error.status), False
                    )
                    break
                if request is None:
                    break
                keep_alive = request.headers.get("connection", "keep-alive").lower() != "close"
                try:
                    response = await self.handler(request)
                except HttpError as error:
                    response = Response({"error": error.message}, status=error.status)
                except Exception as error:  # noqa: BLE001 - a handler bug must not kill the server
                    response = Response(
                        {"error": f"internal error: {type(error).__name__}: {error}"}, status=500
                    )
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connections.discard(task)

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[Request]:
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise HttpError(400, "malformed request line")
        method, target, version = parts
        try:
            split = urlsplit(target)
        except ValueError:  # e.g. an unclosed IPv6 bracket: "http://["
            raise HttpError(400, "malformed request target") from None
        headers: Dict[str, str] = {}
        while True:
            header_line = await _read_line(reader)
            if header_line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise HttpError(400, "too many headers")
            name, separator, value = header_line.decode("latin-1").partition(":")
            if not separator:
                raise HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        if version.upper() == "HTTP/1.0" and "connection" not in headers:
            headers["connection"] = "close"
        raw_length = headers.get("content-length", "0")
        # Bare int() accepts surrounding whitespace, an optional sign
        # and non-ASCII digits — all of which clients encode (and
        # intermediaries interpret) inconsistently; RFC 9110 allows
        # ASCII digits only, so anything else is a malformed header.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, "malformed Content-Length header")
        content_length = int(raw_length)
        if content_length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        return Request(
            method=method.upper(),
            path=split.path,
            query=dict(parse_qsl(split.query)),
            headers=headers,
            body=body,
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        body = json.dumps(response.payload).encode("utf-8")
        reason = _REASONS.get(response.status, "Unknown")
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
