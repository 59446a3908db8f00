#!/usr/bin/env python3
"""The behaviour contract, checked with the standard library alone.

Runs every golden config to its report and table bytes and compares them
with ``golden/reports`` and ``golden/tables``, steps every golden world once
more after its last tick, which must raise ``RunEndedError`` and leave the
report bytes as they were, and so must finishing it a second time and
stepping it after it finished, checks the boundary cases of expanding a
published key through a bound (the prefix of its pseudonyms whose widened
windows start by then, all of them when unbounded), round-trips seeded
hash batches through the store and the ``/hashes`` encoder (``bytes``
order, ``.hex()`` and compact ``json``), compares the ``/chunks`` and
``/hashes`` encoders, which format their replies directly, with
``json.dumps`` of seeded chunks and digest batches (none to four chunks, an
empty batch to 500 digests), compares the report writer, which
calls the private ``c_make_encoder``, with ``json.dumps(tree,
sort_keys=True, indent=2)`` on a fixed corpus of trees, replays the HTTP
exchanges of ``golden/wire_fixtures.json`` against a ``BackendHTTPServer``
on a free port, checks that sequential requests reuse one handler thread,
that a header block cut off by a half-close gets a 400 and reaches no
handler, and so does one with a line that has no colon, a space before its
colon or a ``Transfer-Encoding``, that a reply goes out in one
``sendall``, that ``stop()`` with a client stalled in its headers returns
within 1 s and leaves the port refusing connections (handler threads wait
in ``accept`` themselves, and ``stop()`` wakes them), and that ``stop()`` of
a server never started returns, checks the reply head against
``http.server`` and ``email.utils`` on the running interpreter (the reason
phrase of each status the server sends, the ``Server`` text and the
``Date`` text) and that an HTTP/0.9 request line gets a 400 with a status
line, and runs each way the CLI exits with status 2.  It imports nothing
outside the standard library and ``relaysim`` (from ``src/``), so any
supported interpreter can run it, with or without pytest:

    python3.10 tests/stdlib_contract.py

It prints one line per check and exits 0 when every check holds, 1 when
one does not.  ``conftest.py`` takes the wire replay and ``server_sends``
from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import socket
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from unittest import mock

TESTS = Path(__file__).resolve().parent
WIRE_FIXTURES = TESTS / "golden" / "wire_fixtures.json"


class ManualClock:
    """Settable clock for driving the wire-mode backend deterministically."""

    def __init__(self, now: int):
        self.now = now

    def __call__(self) -> int:
        return self.now


def replay_wire_fixtures(server, clock: ManualClock) -> int:
    """Replay the committed HTTP exchanges; every response must byte-match.

    Returns how many request/response pairs were verified.
    """
    data = json.loads(WIRE_FIXTURES.read_text())
    clock.now = data["initial_time"]
    conn = HTTPConnection("127.0.0.1", server.port)
    replayed = 0
    for step in data["steps"]:
        if "set_time" in step:
            clock.now = step["set_time"]
            continue
        request = step["request"]
        body = request.get("body")
        conn.request(
            request["method"],
            request["path"],
            body=body.encode() if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = response.read()
        if (response.status, payload) != (
            step["response"]["status"],
            step["response"]["body"].encode(),
        ):
            raise AssertionError(f"{request}: got {response.status} {payload!r}")
        replayed += 1
    conn.close()
    return replayed


def _golden() -> list[str]:
    from golden.gen_reports import REPORTS, TABLES, golden_names, report_bytes
    from relaysim.scenario import ScenarioReport

    failed = []
    for name in golden_names():
        report = report_bytes(name)
        table = ScenarioReport(json.loads(report)).to_table().encode()
        for kind, got, path in (
            ("report", report, REPORTS / f"{name}.json"),
            ("table", table, TABLES / f"{name}.txt"),
        ):
            if got != path.read_bytes():
                failed.append(f"{name}: {kind} differs from {path.name}")
    return failed


def _past_last_tick() -> list[str]:
    from golden.gen_reports import REPORTS, golden_config, golden_names
    from relaysim.scenario import RunEndedError, World

    failed = []
    for name in golden_names():
        world = World(golden_config(name))
        for _ in range(world.config.duration // world.params.tick_seconds):
            world.step()
        try:
            world.step()
            failed.append(f"{name}: a tick after the last one ran")
        except RunEndedError:
            pass
        report = world.finish()
        if report.to_json_bytes() != (REPORTS / f"{name}.json").read_bytes():
            failed.append(f"{name}: the report after a refused tick differs from the golden one")
        try:
            world.finish()
            failed.append(f"{name}: a second finish ran")
        except RunEndedError:
            pass
        if report.to_json_bytes() != (REPORTS / f"{name}.json").read_bytes():
            failed.append(f"{name}: the report after a refused finish differs from the golden one")
        world = World(golden_config(name))
        report = world.finish()
        events = json.dumps(report.data["events"])
        for _ in range(30):
            try:
                world.step()
                failed.append(f"{name}: a step after finish ran")
                break
            except RunEndedError:
                pass
        if json.dumps(report.data["events"]) != events:
            failed.append(f"{name}: a step after finish changed the report's events")
    return failed


def _expansion() -> list[str]:
    from relaysim import gaen
    from relaysim.params import SimParams

    tek = gaen.Tek(bytes(range(16)), 1)
    failed = []
    for tolerance in (0, 30):
        params = SimParams(clock_tolerance_seconds=tolerance)
        full = gaen.expand_diagnosis_key(tek, params)
        day = 86400 - tolerance  # the widened start of the key's first window
        counts = {
            day - 1: 0, day: 1, day + 7199: 1, day + 7200: 2,
            day + 11 * 7200: 12, 3 * 86400: 12, math.inf: 12,
        }
        if [r.interval_index for r in full] != list(range(12)):
            failed.append(f"tolerance {tolerance}: the full expansion is not the day's 12")
        for until, count in counts.items():
            if gaen.expand_diagnosis_key(tek, params, until) != full[:count]:
                failed.append(f"tolerance {tolerance}, until {until}: not the first {count}")
    return failed


def _hash_batches() -> list[str]:
    from relaysim.backend import BackendStore, encode_hash_batch
    from relaysim.gaen import Tek
    from relaysim.params import SimParams

    rng = random.Random("stdlib-hash-batches")
    store = BackendStore(SimParams(), rng=rng)
    failed = []
    for size in (1, 2, 17, 300):
        digests = {rng.randbytes(32) for _ in range(size)}
        otp = store.authorize_otp(3600, now=0)
        diagnosis_id = store.ingest_diagnosis([Tek(bytes(16), 0)], otp.code, digests, now=0)
        stored = store.fetch_hash_batch(diagnosis_id)
        if stored != b"".join(sorted(digests)):
            failed.append(f"{size} digests: the stored batch is not the sorted digests joined")
            continue
        expected = json.dumps(
            {"hashes": sorted(h.hex() for h in digests)}, sort_keys=True, separators=(",", ":")
        ).encode()
        if encode_hash_batch(stored) != expected:
            failed.append(f"{size} digests: the /hashes reply differs from the sorted hex list")
    return failed


def _reply_encoders() -> list[str]:
    from relaysim.backend import TekChunk, encode_chunks, encode_hash_batch

    def dumps(value) -> bytes:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()

    rng = random.Random("stdlib-reply-encoders")
    failed = []
    for count in range(5):
        chunks = [
            TekChunk(
                rng.randrange(1, 2**40),
                tuple(
                    (rng.randbytes(16), rng.randrange(2**40)) for _ in range(rng.randint(1, 14))
                ),
                rng.randrange(2**40),
            )
            for _ in range(count)
        ]
        expected = dumps(
            [
                {
                    "index": c.index,
                    "published_at": c.published_at,
                    "teks": [{"tek_hex": b.hex(), "day": d} for b, d in c.teks],
                }
                for c in chunks
            ]
        )
        if encode_chunks(chunks) != expected:
            failed.append(f"{count} chunks: the /chunks reply differs from json.dumps")
    for size in (0, 1, 2, 17, 500):
        digests = [rng.randbytes(32) for _ in range(size)]
        if encode_hash_batch(b"".join(digests)) != dumps({"hashes": [d.hex() for d in digests]}):
            failed.append(f"{size} digests: the /hashes reply differs from json.dumps")
    return failed


@contextlib.contextmanager
def server_sends(port: int):
    """The data of each ``socket.sendall`` call made by a socket whose local
    port is ``port``: the server's side of its connections."""
    sent: list[bytes] = []
    sendall = socket.socket.sendall

    def record(sock, data, flags=0):
        if sock.getsockname()[1] == port:
            sent.append(bytes(data))
        return sendall(sock, data, flags)

    with mock.patch.object(socket.socket, "sendall", autospec=record, side_effect=record):
        yield sent


def _read_to_close(port: int, request: bytes, shut: bool = False) -> bytes:
    """Send ``request``, shutting our side if ``shut``, and read the reply
    until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        if shut:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def _wire() -> list[str]:
    from relaysim.backend import BackendStore
    from relaysim.params import SimParams
    from relaysim.wire import BackendHTTPServer

    params = SimParams()
    clock = ManualClock(0)
    store = BackendStore(params, rng=random.Random("wire-golden"))
    server = BackendHTTPServer(store, clock, params)
    server.start()
    failed = []
    try:
        replay_wire_fixtures(server, clock)
        # A client that reads each reply to the close finds the handler
        # thread of its last request idle.
        with mock.patch.object(
            threading.Thread, "start", autospec=True, side_effect=threading.Thread.start
        ) as start:
            for _ in range(5):
                _read_to_close(server.port, b"POST /otp HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        if start.call_count > 1:
            failed.append(f"5 sequential requests started {start.call_count} handler threads")
        # A header block that the client's half-close cuts off is no request.
        audit = len(store.audit)
        reply = _read_to_close(server.port, b"POST /otp HTTP/1.1\r\n", shut=True)
        if reply.split(b"\r\n", 1)[0].split()[1:2] != [b"400"] or len(store.audit) != audit:
            failed.append(f"headers cut off by a half-close: got {reply[:30]!r}")
        # Header blocks that two parsers could frame two ways get a 400 and
        # reach no handler, whatever body follows.
        for header_lines in (
            b"Garbage\r\nContent-Length: 11\r\n",
            b"Content-Length : 11\r\n",
            b"Transfer-Encoding: chunked\r\n",
        ):
            request = b"POST /otp HTTP/1.1\r\n" + header_lines + b'\r\n{"ttl": -5}'
            reply = _read_to_close(server.port, request)
            if reply.split(b"\r\n", 1)[0].split()[1:2] != [b"400"] or len(store.audit) != audit:
                failed.append(f"header lines {header_lines!r}: got {reply[:30]!r}")
        # Each reply, status line, headers and body, goes out in one send.
        with server_sends(server.port) as sent:
            reply = _read_to_close(server.port, b"GET /chunks?since=0 HTTP/1.1\r\n\r\n")
        if sent != [reply]:
            failed.append(f"a /chunks reply went out in {len(sent)} sends, not one")
    except AssertionError as exc:
        failed.append(f"wire exchange {exc}")
    finally:
        server.stop()
    # stop() waits for no thread serving a connection: a fresh server's first
    # one goes to the thread that called serve_forever.
    server = BackendHTTPServer(store, clock, params)
    server.start()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
        stalled.sendall(b"POST /otp HTTP/1.1\r\n")
        time.sleep(0.1)
        start = time.monotonic()
        server.stop()
        if time.monotonic() - start > 1:
            failed.append("stop() with a client stalled in its headers took over 1 s")
        try:
            socket.create_connection(("127.0.0.1", server.port), timeout=5).close()
            failed.append("a stopped server still accepts connections")
        except ConnectionRefusedError:
            pass
    never_started = BackendHTTPServer(store, clock, params)
    stopper = threading.Thread(target=never_started.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    if stopper.is_alive():
        failed.append("stop() of a server never started did not return within 5 s")
    return failed


def _reply_heads() -> list[str]:
    import email.utils
    from http import HTTPStatus
    from http.server import BaseHTTPRequestHandler as Stdlib

    from relaysim import wire
    from relaysim.backend import BackendStore
    from relaysim.params import SimParams

    failed = []
    # wire reads its reason phrases from HTTPStatus, as http.server does.
    for status in (200, 400, 403, 404, 405, 413, 414, 431):
        if HTTPStatus(status).phrase != Stdlib.responses[status][0]:
            failed.append(f"{status}: the reason phrase differs from http.server's")
    rng = random.Random("stdlib-date-text")
    timestamps = [0, 0.9999995, 0.9999994, 951_782_399.9999996, 2**32]
    timestamps += [rng.uniform(0, 2**32) for _ in range(2000)]
    for timestamp in timestamps:
        if wire._http_date(timestamp) != email.utils.formatdate(timestamp, usegmt=True):
            failed.append(f"{timestamp!r}: the Date text differs from email.utils.formatdate")
    # (request, status, reason: None for the status's phrase)
    cases = [
        (b"GET /chunks?since=0 HTTP/1.1\r\n\r\n", 200, None),
        (b"GET /chunks?since=x HTTP/1.1\r\n\r\n", 400, None),
        (b'POST /diagnosis HTTP/1.1\r\nContent-Length: 22\r\n\r\n{"otp":"no","teks":[]}', 403, None),
        (b"GET /hashes/7 HTTP/1.1\r\n\r\n", 404, None),
        (b"BREW /otp HTTP/1.1\r\n\r\n", 405, "Unsupported method ('BREW')"),
        (b"POST /otp HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (wire.MAX_BODY_BYTES + 1), 413, None),
        (b"G" * (wire.MAX_HEADER_LINE + 1), 414, None),
        (b"POST /otp HTTP/1.1\r\nX: " + b"y" * wire.MAX_HEADER_LINE, 431, "header line too long"),
        (b"GET /chunks?since=0 HTTP/0.9\r\n\r\n", 400, "Bad request version ('HTTP/0.9')"),
    ]
    params = SimParams()
    server = wire.BackendHTTPServer(BackendStore(params), ManualClock(0), params)
    server.start()
    try:
        with mock.patch.object(wire.time, "time", lambda: 1_700_000_000.5):
            for request, status, reason in cases:
                head = (
                    f"HTTP/1.0 {status} {reason or Stdlib.responses[status][0]}\r\n"
                    f"Server: {Stdlib.server_version} {Stdlib.sys_version}\r\n"
                    f"Date: {email.utils.formatdate(1_700_000_000, usegmt=True)}\r\n"
                ).encode()
                reply = _read_to_close(server.port, request, shut=True)
                if not reply.startswith(head):
                    failed.append(f"{request[:30]!r}: got {reply[:120]!r}, not {head!r}")
    finally:
        server.stop()
    return failed


def _report_writer() -> list[str]:
    from relaysim.scenario import ScenarioReport

    events = [{"t": 0, "event": "a\nb", "x": -0.0}, {"t": 2**70, "y": [], "z": {}}]
    corpus = [
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "big": 2**70},
        {"text": ["\x00\x1f\x7f\t", "\u00e9\u2603\U0001f600", '{"[],:\\'], "\u2603\n": {"k": [""]}},
        {"empty": [{}, [], (), {"a": {}, "b": [[]], "c": ()}], "at": {"depth": {"two": {}}}},
        {"run": {"events": events, "deeper": {"still": tuple(events)}}, "top": events},
        {"tuples": ((1, (2.5, None)), ({"k": (True, False)},), ())},
    ]
    failed = []
    for i, tree in enumerate(corpus):
        expected = json.dumps(tree, sort_keys=True, indent=2).encode() + b"\n"
        if ScenarioReport(tree).to_json_bytes() != expected:
            failed.append(f"tree {i}: to_json_bytes differs from json.dumps with indent=2")
    return failed


def _exit_2_cases(tmp: Path, held_port: int) -> list[tuple[list[str], str | None]]:
    """(argv, start of the stderr message or None for an argparse error)."""
    (tmp / "broken.json").write_text("{not json")
    (tmp / "no_duration.json").write_text(json.dumps({"name": "x", "duration": 0}))
    (tmp / "null_actor.json").write_text(
        json.dumps({"duration": 10, "places": [], "actors": [{"name": None}]})
    )
    return [
        (["run", "no_such_scenario"], "relaysim: no bundled scenario 'no_such_scenario'"),
        (["run", str(tmp / "broken.json")], "relaysim: a scenario must be JSON: "),
        (["run", str(tmp / "no_duration.json")], "relaysim: duration must be a positive number"),
        (["run", str(tmp / "null_actor.json")], "relaysim: actor #0 name must be a string, got None"),
        (
            ["run", "no_attack", "--out", str(tmp / "no" / "such" / "x.json")],
            "relaysim: cannot write the report: ",
        ),
        (
            ["serve-backend", "--port", str(held_port)],
            f"relaysim: cannot serve on 127.0.0.1:{held_port}: ",
        ),
        ([], None),
        (["run", "no_attack", "--seed", "x"], None),
        (["serve-backend", "--port", "65536"], None),
    ]


def _cli() -> list[str]:
    from relaysim import cli
    from relaysim.wire import BackendHTTPServer

    failed = []
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        held = stack.enter_context(socket.socket())
        held.bind(("127.0.0.1", 0))
        held.listen()
        # A server that binds after all must not serve for ever.
        stack.enter_context(
            mock.patch.object(BackendHTTPServer, "serve_forever", side_effect=RuntimeError)
        )
        for argv, message in _exit_2_cases(tmp, held.getsockname()[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # a traceback: reported as a failed check
                    status = f"{type(exc).__name__}: {exc}"
            stderr = err.getvalue()
            if message is None:
                ok = status == 2 and stderr.startswith("usage: relaysim")
            else:
                ok = status == 2 and stderr.startswith(message) and stderr.count("\n") == 1
            if not ok or out.getvalue() or "Traceback" in stderr:
                failed.append(f"relaysim {' '.join(argv)}: status {status!r}, stderr {stderr!r}")
    return failed


def main() -> int:
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    failures = []
    for check in (
        _golden,
        _past_last_tick,
        _expansion,
        _hash_batches,
        _reply_encoders,
        _report_writer,
        _wire,
        _reply_heads,
        _cli,
    ):
        failed = check()
        print(f"{check.__name__[1:]}: {'ok' if not failed else 'FAILED'}")
        failures += failed
    for line in failures:
        print(f"  {line}")
    print(f"Python {sys.version.split()[0]}: {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
