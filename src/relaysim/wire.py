"""HTTP wire mode for the backend store.

Endpoints (JSON bodies, lowercase hex, frozen by golden fixtures):

    POST /otp                {"ttl": n}?          -> 200 {"code": ...} | 400
    POST /diagnosis          {otp, teks, hashes?} -> 200 {"diagnosis_id": n} | 403
    GET  /chunks?since=N                          -> 200 [{index, published_at, teks}]
    GET  /hashes/<id>                             -> 200 {"hashes": [...]} | 404

The store itself is single-writer; a lock serializes handler access so
concurrent clients observe the same semantics as sequential calls.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from .backend import (
    BackendError,
    BackendStore,
    canonical_json,
    decode_diagnosis_payload,
    encode_chunks,
    encode_hash_batch,
)
from .params import SimParams

# Longest wait for the next bytes of a request body.  A client that declares
# more than it sends gets a 400 after this long instead of holding a thread.
BODY_READ_TIMEOUT_SECONDS = 5.0


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
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    # request handlers, called under the lock

    def handle_otp(self, body: object) -> tuple[int, bytes]:
        if not isinstance(body, dict):
            return 400, canonical_json({"error": "otp request must be a json object"})
        ttl = body.get("ttl", self.otp_ttl)
        if type(ttl) is not int or ttl < 0:
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
        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> bytes | str:
            """The request body, or why it cannot be had: Content-Length is
            not a non-negative decimal integer, or the body ends (or stalls)
            before that many bytes."""
            length = self.headers.get("Content-Length", "0").strip()
            if not (length.isascii() and length.isdigit()):
                return "bad content-length"
            self.connection.settimeout(BODY_READ_TIMEOUT_SECONDS)
            try:
                raw = self.rfile.read(int(length))
            except TimeoutError:
                return "body shorter than content-length"
            finally:
                self.connection.settimeout(None)
            return raw if len(raw) == int(length) else "body shorter than content-length"

        def do_POST(self) -> None:
            path = urlparse(self.path).path
            raw = self._read_body()
            if isinstance(raw, str):
                # The body's extent is unknown, so the connection cannot be
                # reused; a client that already left gets no answer.
                self.close_connection = True
                try:
                    self._reply(400, canonical_json({"error": raw}))
                except ConnectionError:
                    pass
                return
            with server._lock:
                if path == "/otp":
                    try:
                        body = json.loads(raw) if raw else {}
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
                    query = parse_qs(parsed.query)
                    try:
                        since = int(query.get("since", ["0"])[0])
                    except ValueError:
                        self._reply(400, canonical_json({"error": "bad since parameter"}))
                        return
                    self._reply(*server.handle_chunks(since))
                elif parsed.path.startswith("/hashes/"):
                    try:
                        diagnosis_id = int(parsed.path[len("/hashes/") :])
                    except ValueError:
                        self._reply(400, canonical_json({"error": "bad diagnosis id"}))
                        return
                    self._reply(*server.handle_hashes(diagnosis_id))
                else:
                    self._reply(404, canonical_json({"error": "unknown endpoint"}))

    return Handler
