"""HTTP wire mode for the backend store.

Endpoints (JSON bodies, lowercase hex, frozen by golden fixtures):

    POST /otp                {"ttl": n}?          -> 200 {"code": ...} | 400
    POST /diagnosis          {otp, teks, hashes?} -> 200 {"diagnosis_id": n} | 400 | 403
    GET  /chunks?since=N                          -> 200 [{index, published_at, teks}] | 400
    GET  /hashes/<id>                             -> 200 {"hashes": [...]} | 400 | 404

N and <id> are an optional ``-`` and ASCII digits; anything else gets a 400.
So does a request whose header block the end of the stream cuts off before
its blank line.

Each connection is served on a handler thread of its own, as many at once
as there are connections open at once, so a stalled client delays no other.
A handler thread that finishes its connection waits for the next one
instead of exiting, so a client that opens one connection per request pays
no thread start once the server has warmed up.  The store itself is
single-writer; a lock serializes handler access so concurrent clients
observe the same semantics as sequential calls.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
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


class _LastLine:
    """A reader whose ``readline`` keeps the last line it read: the stdlib's
    header parser takes the end of the stream (an empty line) for the blank
    line that ends a header block."""

    def __init__(self, rfile) -> None:
        self.rfile = rfile
        self.last = b""

    def readline(self, limit: int) -> bytes:
        self.last = self.rfile.readline(limit)
        return self.last


class _Server(HTTPServer):
    """An HTTP server that hands each connection to an idle handler thread,
    starting a daemon thread only when none is idle.

    A handler thread serves one connection at a time and then waits for the
    next, so there are never more of them than the most connections open at
    once, and a stalled connection holds only its own.  ``server_close``
    ends the idle ones, and one still serving ends when its connection does.
    """

    # socketserver's backlog of 5 drops simultaneous connects, retried after 1 s.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, server_address, handler_class):
        # Set before binding: TCPServer.__init__ calls server_close when the
        # bind fails.
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        self._idle_lock = threading.Lock()
        self._idle = 0  # handler threads waiting on _handoff, not yet claimed
        self._closed = False
        super().__init__(server_address, handler_class)

    def process_request(self, request, client_address):
        with self._idle_lock:
            reuse = self._idle > 0
            if reuse:
                self._idle -= 1
        if reuse:
            self._handoff.put((request, client_address))
        else:
            threading.Thread(
                target=self._serve_connections, args=(request, client_address), daemon=True
            ).start()

    def _serve_connections(self, request, client_address) -> None:
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            except BaseException:
                self.shutdown_request(request)
                raise
            # Idle before the client sees its connection close: a client that
            # waits for the close then finds this thread for its next one.
            with self._idle_lock:
                closed = self._closed
                if not closed:
                    self._idle += 1
            self.shutdown_request(request)
            if closed:
                return
            handoff = self._handoff.get()
            if handoff is None:
                return
            request, client_address = handoff

    def server_close(self) -> None:
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._handoff.put(None)


class BackendHTTPServer:
    """Serve a BackendStore over HTTP from a background thread.

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
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serving, close the socket and end the idle handler threads.
        Returns at once on a server that was never started or already
        stopped."""
        if self._thread is not None:
            # shutdown() waits for serve_forever to return, so only after start().
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
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
    class Handler(BaseHTTPRequestHandler):
        timeout = REQUEST_TIMEOUT_SECONDS
        # The version a reply takes when the request line gives none or a bad
        # one: the stdlib's "HTTP/0.9" would send such replies with no status
        # line.
        default_request_version = "HTTP/1.0"

        # The current second and its Date header text.
        _date = (None, "")

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def date_time_string(self, timestamp=None):
            # The stdlib formats the date anew for every reply; the text
            # changes once a second.
            if timestamp is not None:
                return super().date_time_string(timestamp)
            second = int(time.time())
            cached = Handler._date
            if cached[0] != second:
                cached = Handler._date = (second, super().date_time_string(second))
            return cached[1]

        def parse_request(self) -> bool:
            # A header block cut off by the end of the stream is no request:
            # it gets a 400 and reaches no handler.
            lines = self.rfile = _LastLine(self.rfile)
            try:
                if not super().parse_request():
                    return False
            finally:
                self.rfile = lines.rfile
            if lines.last:
                return True
            self.close_connection = True
            try:
                self.send_error(400, "header block cut off")
            except ConnectionError:  # a client that already left gets no answer
                pass
            return False

        def send_error(self, code, message=None, explain=None):
            # The stdlib answers an unknown method 501 and an HTTP/2 request
            # line 505; neither is the server failing, so both get a 4xx.
            super().send_error({501: 405, 505: 400}.get(code, code), message, explain)

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> bytes | tuple[int, str]:
            """The request body, or the status and reason it cannot be had:
            Content-Length is not a non-negative decimal integer (400), is
            over ``MAX_BODY_BYTES`` (413), or the body ends (or stalls)
            before that many bytes (400)."""
            length = self.headers.get("Content-Length", "0").strip()
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
                # The body is unknown or unread, so the connection cannot be
                # reused; a client that already left gets no answer.
                self.close_connection = True
                try:
                    self._reply(raw[0], canonical_json({"error": raw[1]}))
                except ConnectionError:
                    pass
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
