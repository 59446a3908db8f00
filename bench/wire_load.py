"""Wire workload: backend server launcher and closed-loop load generator.

The server is ``relaysim serve-backend --port 0`` in a subprocess (or the
traced launcher in ``wire_server.py``).  One client in this process sends
one request at a time and waits for each reply, as polling devices do.  The
server speaks HTTP/1.0, so every request opens its own connection.

Each cycle is a seeded mix: one ``POST /otp``, one ``POST /diagnosis``
with 14 daily keys ending today (by the host's wall clock, which is the
server's), then six ``GET /chunks?since=<recent>`` and two
``GET /hashes/<id>`` in a seeded order.  Every request carries the status
the client expects, and successful bodies are checked against what the
client itself uploaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path

POOL_SIZE = 32
TEKS_PER_UPLOAD = 14
NO_DIGEST_EVERY = 5  # one upload in five carries no digests
DIGESTS_MIN, DIGESTS_MAX = 200, 400
CHUNK_GETS, HASH_GETS = 6, 2
MISSING_HASH_SHARE = 0.25
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
ENDPOINTS = ("otp", "diagnosis", "chunks", "hashes")

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class ServerError(RuntimeError):
    """The backend process failed to start or to answer."""


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    setup_s: float


def spawn_server(cmd: list[str], src: Path) -> Server:
    """Start a backend process; setup_s runs from spawn to its first 200."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        port = _read_port(proc, start + START_TIMEOUT_S)
        while True:
            conn = HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            try:
                conn.request("GET", "/chunks?since=0")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > start + START_TIMEOUT_S:
                raise ServerError("backend never answered 200")
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise
    return Server(proc, port, time.perf_counter() - start)


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([proc.stderr], [], [], remaining)[0]:
            raise ServerError("backend did not report its port")
        line = proc.stderr.readline()
        if not line:
            raise ServerError(f"backend exited with code {proc.wait()}")
        match = _LISTENING.search(line)
        if match:
            return int(match.group(1))


def stop_server(proc: subprocess.Popen) -> str:
    """Interrupt the server, wait for it to exit, and return its stdout."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a running process (Linux)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for process {pid}")


def server_command(traced: bool, bench_dir: Path) -> list[str]:
    if traced:
        return [sys.executable, str(bench_dir / "wire_server.py")]
    return [sys.executable, "-m", "relaysim.cli", "serve-backend", "--port", "0"]


@dataclass(frozen=True)
class Upload:
    """One prepared diagnosis body, missing only its OTP."""

    fragment: bytes
    has_digests: bool
    hashes_body_sha256: bytes


def upload_pool(rng: random.Random, today: int) -> list[Upload]:
    """Seeded key and digest bytes; how many digests each upload carries is
    fixed, so every seed stores the same amount per pass through the pool."""
    pool = []
    for k in range(POOL_SIZE):
        teks = [
            {"tek_hex": rng.randbytes(16).hex(), "day": today - TEKS_PER_UPLOAD + 1 + i}
            for i in range(TEKS_PER_UPLOAD)
        ]
        n = 0 if k % NO_DIGEST_EVERY == 0 else DIGESTS_MIN + k * (DIGESTS_MAX - DIGESTS_MIN) // POOL_SIZE
        hashes = sorted(rng.randbytes(32).hex() for _ in range(n))
        body = {"teks": teks}
        if hashes:
            body["hashes"] = hashes
        fragment = json.dumps(body, separators=(",", ":")).encode()[1:-1]
        expected = json.dumps({"hashes": hashes}, separators=(",", ":")).encode()
        pool.append(Upload(fragment, bool(hashes), hashlib.sha256(expected).digest()))
    return pool


@dataclass
class LoadStats:
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {e: [] for e in ENDPOINTS}
    )
    timeline: list[float] = field(default_factory=list)  # every latency, in order
    cycle_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_out: int = 0


class WireClient:
    """Drives one server through seeded cycles and checks every reply."""

    def __init__(self, port: int, seed: int, stats: LoadStats):
        self.port = port
        self.stats = stats
        self.rng = random.Random(f"relaysim-bench-wire:{seed}")
        self.pool = upload_pool(self.rng, int(time.time()) // 86400)
        self.rng.shuffle(self.pool)
        self.cycles = 0
        self.last_id = 0
        self.hashes_sha256: dict[int, bytes] = {}

    def _request(self, endpoint: str, method: str, path: str, body: bytes | None = None):
        """One round trip; returns (status, body) or None on a transport error."""
        self.stats.attempted += 1
        conn = HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        start = time.perf_counter()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = response.read()
        except (OSError, HTTPException):
            self.stats.failed += 1
            return None
        finally:
            conn.close()
        latency = time.perf_counter() - start
        self.stats.latencies[endpoint].append(latency)
        self.stats.timeline.append(latency)
        self.stats.bytes_out += len(payload)
        return response.status, payload

    def _check(self, ok: bool) -> None:
        if not ok:
            self.stats.failed += 1

    def cycle(self) -> None:
        start = time.perf_counter()
        rng = self.rng
        upload = self.pool[self.cycles % POOL_SIZE]
        self.cycles += 1
        reads = ["chunks"] * CHUNK_GETS + ["hashes"] * HASH_GETS
        rng.shuffle(reads)

        reply = self._request("otp", "POST", "/otp", b"{}")
        code = None
        if reply is not None:
            status, payload = reply
            body = _json(payload) if status == 200 else None
            code = body.get("code") if isinstance(body, dict) else None
            if not (isinstance(code, str) and re.fullmatch(r"[0-9a-f]{32}", code)):
                code = None
            self._check(code is not None)
        if code is None:
            self.stats.attempted += 1
            self.stats.failed += 1  # the diagnosis cannot be sent without an OTP
        else:
            body = b'{"otp":"' + code.encode() + b'",' + upload.fragment + b"}"
            reply = self._request("diagnosis", "POST", "/diagnosis", body)
            if reply is not None:
                expected = b'{"diagnosis_id":%d}' % (self.last_id + 1)
                ok = reply == (200, expected)
                self._check(ok)
                if ok:
                    self.last_id += 1
                    if upload.has_digests:
                        self.hashes_sha256[self.last_id] = upload.hashes_body_sha256

        for kind in reads:
            if kind == "chunks":
                since = max(0, self.last_id - rng.randrange(4))
                reply = self._request("chunks", "GET", f"/chunks?since={since}")
                if reply is not None:
                    self._check(reply[0] == 200 and self._chunks_ok(reply[1], since))
            else:
                if rng.random() < MISSING_HASH_SHARE or not self.last_id:
                    target = self.last_id + 1 + rng.randrange(1000)
                else:
                    target = rng.randint(max(1, self.last_id - 20), self.last_id)
                reply = self._request("hashes", "GET", f"/hashes/{target}")
                if reply is not None:
                    expected = self.hashes_sha256.get(target)
                    if expected is None:
                        self._check(reply[0] == 404)
                    else:
                        self._check(
                            reply[0] == 200 and hashlib.sha256(reply[1]).digest() == expected
                        )
        self.stats.cycle_s.append(time.perf_counter() - start)

    def _chunks_ok(self, payload: bytes, since: int) -> bool:
        chunks = _json(payload)
        if not isinstance(chunks, list):
            return False
        try:
            indices = [c["index"] for c in chunks]
            sizes = [len(c["teks"]) for c in chunks]
        except (KeyError, TypeError):
            return False
        return indices == list(range(since + 1, self.last_id + 1)) and all(
            n == TEKS_PER_UPLOAD for n in sizes
        )


def _json(payload: bytes):
    """Decode a reply body; a body that is not JSON gives None."""
    try:
        return json.loads(payload)
    except ValueError:
        return None
