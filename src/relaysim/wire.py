"""HTTP wire mode for the backend store.

Endpoints (JSON bodies, lowercase hex, frozen by golden fixtures):

    POST /otp                {"ttl": n}?          -> 200 {"code": ...} | 400
    POST /diagnosis          {otp, teks, hashes?} -> 200 {"diagnosis_id": n} | 400 | 403
    GET  /chunks?since=N                          -> 200 [{index, published_at, teks}] | 400
    GET  /hashes/<id>                             -> 200 {"hashes": [...]} | 400 | 404

N and <id> are an optional ``-`` and ASCII digits; anything else gets a 400.

The server is built on ``socketserver`` alone, without ``http.server`` or the
``email`` package: its handler, a ``StreamRequestHandler``, reads each
request and writes each reply itself.  A request line must be ``<method>
<target> HTTP/1.<digits>``: any other, HTTP/0.9 and HTTP/2 included, gets a
400, one over 65,536 bytes a 414, and an empty or blank one a close with no
reply.  A method other than GET and POST gets a 405, with no body for a HEAD
request.  The reply head's reason phrases, ``Server`` and ``Date`` text are
those ``http.server`` writes.

The handler reads each header block (``_read_headers``) into a dict keyed
by lowercased name.  A header line over 65,536 bytes, or more than 100 of
them, gets a 431.  A 400, with no handler run, goes to a block that the end
of the stream cuts off before its blank line and to one that two parsers
could frame two ways (RFC 7230 sections 3.2.4 and 3.3.3): a line with no
colon, an empty name or whitespace in or after the name, an obs-fold
continuation line, two ``Content-Length`` values that differ, or any
``Transfer-Encoding``.  A client that stalls for ``REQUEST_TIMEOUT_SECONDS``
before the end of its headers, or leaves, gets no answer.

Every error reply, the request-line and header-block ones included, is
``{"error": <reason>}`` as JSON, and each reply, status line, headers and
body, goes out in one send.

One handler thread serves a connection from its ``accept`` to its close.
Every idle handler thread waits in ``accept`` itself; the one that takes a
connection first starts another thread if no other is left waiting, so a
stalled client delays no other, and there are never more handler threads
than the most connections open at once, plus one.  The server speaks
HTTP/1.0, so a client opens one connection per request; once the server has
warmed up, a request costs no thread start and no hand-off between threads.
The store itself is single-writer; a lock serializes handler access so
concurrent clients observe the same semantics as sequential calls.
"""

from __future__ import annotations

import math
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs, urlparse

from .backend import (
    BackendError,
    BackendStore,
    canonical_json,
    decode_diagnosis_payload,
    encode_chunks,
    encode_hash_batch,
    parse_json,
)
from .params import SimParams, as_number

# Longest wait for the next bytes of a request, from its request line to the
# end of its body.  A client that stalls in the request line or headers is
# disconnected after this long, and one that declares a longer body than it
# sends gets a 400; neither holds a handler thread.
REQUEST_TIMEOUT_SECONDS = 5.0

# Longest request body read: a longer declared Content-Length gets a 413,
# with none of the body read.  1 MiB holds a diagnosis with some 15,000
# contact digests; the benchmark's largest upload is about 27 KB.
MAX_BODY_BYTES = 1 << 20

# The stdlib's limits on a header block (``http.client``): a longer line, or
# more lines before the blank one, gets a 431.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100

# An RFC 7230 token: what a header name must be.
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")
# The versions a request line may name.
_HTTP_1 = re.compile(r"HTTP/1\.[0-9]+")

# The reply head's Server text, as ``http.server`` writes it.
_SERVER_TEXT = "BaseHTTP/0.6 Python/" + sys.version.split()[0]
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _decimal(text: str) -> int | None:
    """An optional ``-`` and ASCII digits as an int; None for any other
    text (``int`` would also take a sign ``+``, spaces, underscores and
    non-ASCII digits) and for one too long for ``int`` to convert."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on digits
        return None


def _http_date(timestamp: float) -> str:
    """A timestamp of 0 or later as Date header text, as
    ``email.utils.formatdate(timestamp, usegmt=True)`` writes it: in GMT,
    with English names whatever the locale, after rounding the time to the
    microsecond, half to even."""
    fraction, whole = math.modf(timestamp)
    t = time.gmtime(int(whole) + (round(fraction * 1e6) == 1_000_000))
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d}"
        f" {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def _read_headers(rfile) -> dict[str, str] | tuple[int, str]:
    """The header block that ``rfile`` holds next, up to and including its
    blank line, as a dict from each lowercased name to its value with the
    spaces and tabs around it stripped; or the status and reason it is
    refused (the rules are in the module docstring), with the rest of the
    block unread.  A ``Transfer-Encoding`` is refused because this server
    reads no framing but ``Content-Length``."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = rfile.readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            return 431, "header line too long"
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            return 400, "header block cut off"
        name, colon, value = str(line, "iso-8859-1").partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            return 400, "malformed header line"  # an obs-fold line included
        name = name.lower()
        value = value.strip(" \t\r\n")
        if name == "transfer-encoding":
            return 400, "transfer-encoding not supported"
        if name == "content-length" and headers.get(name, value) != value:
            return 400, "conflicting content-length"
        headers[name] = value
    return 431, f"more than {MAX_HEADER_LINES} header lines"


class _Server(socketserver.TCPServer):
    """A TCP server whose handler threads accept their own connections.

    Each thread that serves waits in ``accept``; the one that takes a
    connection hands its place there to a new daemon thread when no other
    thread is left waiting, serves the connection, closes it and waits
    again.  The thread that calls ``serve_forever`` takes its turns like
    any other.  ``shutdown`` (and ``server_close``) wakes every waiting
    thread, and one still serving ends when its connection does: neither
    waits for it.
    """

    # As HTTPServer, whose server_bind also looks the host's name up
    # (socket.getfqdn): nothing reads it, and a slow resolver stalls the start.
    allow_reuse_address = True
    # socketserver's backlog of 5 drops simultaneous connects, retried after 1 s.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, server_address, handler_class):
        # Set before binding: TCPServer.__init__ calls server_close when the
        # bind fails.
        self._lock = threading.Lock()
        self._waiting = 0  # threads in accept, or started to wait there
        self._closed = False
        super().__init__(server_address, handler_class)

    def serve_forever(self, poll_interval=None) -> None:
        with self._lock:
            if self._closed:
                return
            self._waiting += 1
        self._take_turns()

    def _take_turns(self) -> None:
        """Accept a connection, serve it, close it and accept again, until
        the server closes.  The caller has counted this thread in
        ``_waiting``."""
        while True:
            try:
                request, client_address = self.get_request()
            except OSError:  # shutdown() woke this thread, or accept failed
                with self._lock:
                    if self._closed:
                        self._waiting -= 1
                        return
                continue
            except BaseException:  # a KeyboardInterrupt in the CLI's thread
                with self._lock:
                    self._waiting -= 1
                raise
            with self._lock:
                # The last thread waiting hands its place to a new one.
                spawn = self._waiting == 1 and not self._closed
                if not spawn:
                    self._waiting -= 1
            if spawn:
                try:
                    threading.Thread(target=self._take_turns, daemon=True).start()
                except RuntimeError:  # no thread to spare: this one accepts next
                    with self._lock:
                        self._waiting -= 1
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            except BaseException:
                self.shutdown_request(request)
                raise
            # Waiting again before the client sees its connection close: a
            # client that waits for the close finds no thread started for
            # its next one.
            with self._lock:
                closed = self._closed
                if not closed:
                    self._waiting += 1
            self.shutdown_request(request)
            if closed:
                return

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
        try:
            # Wakes every thread blocked in accept, and fails every later
            # accept, on Linux.
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # already closed
            pass

    def server_close(self) -> None:
        self.shutdown()
        super().server_close()


class BackendHTTPServer:
    """Serve a BackendStore over HTTP from background threads.

    ``clock`` supplies the store's notion of now; inject a controllable
    callable in tests, pass ``time.time`` for a real deployment.  An OTP
    request without a ``ttl`` gets ``params.otp_ttl_seconds``.
    """

    def __init__(
        self,
        store: BackendStore,
        clock: Callable[[], int],
        params: SimParams,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.store = store
        self.clock = clock
        self.otp_ttl = params.otp_ttl_seconds
        self._lock = threading.Lock()
        handler = _make_handler(self)
        self._httpd = _Server((host, port), handler)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        threading.Thread(target=self._httpd.serve_forever, daemon=True).start()

    def stop(self) -> None:
        """Stop serving, close the socket and end the waiting handler
        threads; one still serving a connection ends when the connection
        does.  Returns at once, also on a server never started or already
        stopped."""
        self._httpd.server_close()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    # request handlers, called under the lock

    def handle_otp(self, body: object) -> tuple[int, bytes]:
        if not isinstance(body, dict):
            return 400, canonical_json({"error": "otp request must be a json object"})
        try:
            ttl = as_number(int, body.get("ttl", self.otp_ttl), "ttl")
        except ValueError as exc:
            return 400, canonical_json({"error": str(exc)})
        if ttl < 0:
            return 400, canonical_json({"error": "ttl must be a non-negative integer"})
        otp = self.store.authorize_otp(ttl, now=int(self.clock()))
        return 200, canonical_json({"code": otp.code})

    def handle_diagnosis(self, raw: bytes) -> tuple[int, bytes]:
        try:
            teks, otp_code, hashes = decode_diagnosis_payload(raw)
        except (ValueError, KeyError, TypeError):
            return 400, canonical_json({"error": "malformed diagnosis payload"})
        try:
            diagnosis_id = self.store.ingest_diagnosis(
                teks, otp_code, hashes, now=int(self.clock())
            )
        except BackendError as exc:
            return 403, canonical_json({"error": str(exc)})
        return 200, canonical_json({"diagnosis_id": diagnosis_id})

    def handle_chunks(self, since: int) -> tuple[int, bytes]:
        chunks = self.store.fetch_chunks(since, now=int(self.clock()))
        return 200, encode_chunks(chunks)

    def handle_hashes(self, diagnosis_id: int) -> tuple[int, bytes]:
        batch = self.store.fetch_hash_batch(diagnosis_id)
        if batch is None:
            return 404, canonical_json(
                {"error": f"no hash batch for diagnosis {diagnosis_id}"}
            )
        return 200, encode_hash_batch(batch)


def _make_handler(server: BackendHTTPServer):
    class Handler(socketserver.StreamRequestHandler):
        timeout = REQUEST_TIMEOUT_SECONDS
        command = ""  # the method, once the request line is accepted

        # The current second and its Date header text.
        _date = (None, "")

        def handle(self) -> None:
            # One request per connection (the server speaks HTTP/1.0), so
            # Connection and Expect headers change nothing.
            try:
                line = self.rfile.readline(MAX_HEADER_LINE + 1)
                if len(line) > MAX_HEADER_LINE:
                    self._error(414, HTTPStatus(414).phrase)
                    return
                requestline = str(line, "iso-8859-1").rstrip("\r\n")
                words = requestline.split()
                if not words:  # nothing, or a blank line: no request
                    return
                if len(words) != 3:
                    self._error(400, f"Bad request syntax ({requestline!r})")
                    return
                if not _HTTP_1.fullmatch(words[2]):
                    self._error(400, f"Bad request version ({words[2]!r})")
                    return
                self.command, self.path = words[:2]
                if self.path.startswith("//"):  # not an authority: gh-87389
                    self.path = "/" + self.path.lstrip("/")
                headers = _read_headers(self.rfile)
                if not isinstance(headers, dict):
                    self._error(*headers)
                    return
                self.headers = headers
                method = getattr(self, "do_" + self.command, None)
                if method is None:
                    self._error(405, f"Unsupported method ({self.command!r})")
                    return
                method()
            except (TimeoutError, ConnectionError):
                pass  # a client that stalls or leaves gets no answer

        def _error(self, status: int, reason: str) -> None:
            self._reply(status, canonical_json({"error": reason}), reason)

        def _reply(self, status: int, body: bytes, reason: str | None = None) -> None:
            """Send the status line, the Server, Date, Content-Type and
            Content-Length headers and ``body`` (none for a HEAD request)
            in one send."""
            second = int(time.time())
            date = Handler._date
            if date[0] != second:  # the text changes once a second
                date = Handler._date = (second, _http_date(second))
            head = (
                f"HTTP/1.0 {status} {HTTPStatus(status).phrase if reason is None else reason}\r\n"
                f"Server: {_SERVER_TEXT}\r\n"
                f"Date: {date[1]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            self.wfile.write(head if self.command == "HEAD" else head + body)

        def _read_body(self) -> bytes | tuple[int, str]:
            """The request body, or the status and reason it cannot be had:
            Content-Length is not a non-negative decimal integer (400), is
            over ``MAX_BODY_BYTES`` (413), or the body ends (or stalls)
            before that many bytes (400)."""
            length = self.headers.get("content-length", "0")
            if not (length.isascii() and length.isdigit()):
                return 400, "bad content-length"
            digits = length.lstrip("0") or "0"  # int() takes at most 4,300 digits
            if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
                return 413, f"body longer than {MAX_BODY_BYTES} bytes"
            try:
                raw = self.rfile.read(int(digits))
            except TimeoutError:
                return 400, "body shorter than content-length"
            return raw if len(raw) == int(digits) else (400, "body shorter than content-length")

        def do_POST(self) -> None:
            path = urlparse(self.path).path
            raw = self._read_body()
            if isinstance(raw, tuple):
                self._reply(raw[0], canonical_json({"error": raw[1]}))
                return
            with server._lock:
                if path == "/otp":
                    try:
                        body = parse_json(raw) if raw else {}
                    except ValueError:
                        self._reply(400, canonical_json({"error": "malformed json"}))
                        return
                    self._reply(*server.handle_otp(body))
                elif path == "/diagnosis":
                    self._reply(*server.handle_diagnosis(raw))
                else:
                    self._reply(404, canonical_json({"error": "unknown endpoint"}))

        def do_GET(self) -> None:
            parsed = urlparse(self.path)
            with server._lock:
                if parsed.path == "/chunks":
                    since = _decimal(parse_qs(parsed.query).get("since", ["0"])[0])
                    if since is None:
                        self._reply(400, canonical_json({"error": "bad since parameter"}))
                        return
                    self._reply(*server.handle_chunks(since))
                elif parsed.path.startswith("/hashes/"):
                    diagnosis_id = _decimal(parsed.path[len("/hashes/") :])
                    if diagnosis_id is None:
                        self._reply(400, canonical_json({"error": "bad diagnosis id"}))
                        return
                    self._reply(*server.handle_hashes(diagnosis_id))
                else:
                    self._reply(404, canonical_json({"error": "unknown endpoint"}))

    return Handler
