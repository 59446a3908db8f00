"""HTTP wire mode: golden exchange replay, error paths, concurrent clients,
reused handler threads, reply bytes."""

import email.utils
import http.client
import http.server
import io
import json
import random
import socket
import threading
import time
from http.client import HTTPConnection
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from relaysim import wire
from relaysim.backend import BackendStore
from relaysim.gaen import Tek
from relaysim.params import SimParams
from relaysim.wire import BackendHTTPServer

from conftest import ManualClock, replay_wire_fixtures, server_sends

PARAMS = SimParams()


def _serve():
    clock = ManualClock(100 * 86400)
    store = BackendStore(PARAMS, rng=random.Random("wire-golden"))
    srv = BackendHTTPServer(store, clock, PARAMS)
    srv.clock_handle = clock
    srv.start()
    return srv


@pytest.fixture
def server():
    srv = _serve()
    yield srv
    srv.stop()


@pytest.fixture
def impatient_server(monkeypatch):
    """A server whose handlers wait 0.2 s for the next bytes of a request."""
    monkeypatch.setattr(wire, "REQUEST_TIMEOUT_SECONDS", 0.2)
    srv = _serve()
    yield srv
    srv.stop()


def test_golden_fixture_replay(server):
    assert replay_wire_fixtures(server, server.clock_handle) >= 14


def test_unknown_endpoint_404(server):
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", "/nope")
    assert conn.getresponse().status == 404
    conn.close()


def test_malformed_diagnosis_400(server):
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("POST", "/diagnosis", body=b"{not json")
    assert conn.getresponse().status == 400
    conn.close()


DEEP = b"[" * 100000


@pytest.mark.parametrize(
    "path, body",
    [
        ("/otp", DEEP),
        ("/diagnosis", DEEP),
        ("/diagnosis", b'{"otp": "x", "teks": [{"tek_hex": "", "day": 1e400}]}'),
        (
            "/diagnosis",
            b'{"otp": "x", "teks": [{"tek_hex": "%s", "day": 1}], "hashes": {"%s": null}}'
            % (b"00" * 16, b"ab" * 32),
        ),
    ],
)
def test_unparsable_body_400(server, path, body):
    # Before, deep nesting raised RecursionError and an infinite day
    # OverflowError in the handler: a traceback and no reply.
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("POST", path, body=body)
    response = conn.getresponse()
    assert response.status == 400
    assert b"error" in response.read()
    conn.close()


# Before, ``int`` parsed both, so that "1_0" read as 10, "+1" and " 1 " as 1
# and an Arabic-Indic digit one (U+0661) as 1.
@pytest.mark.parametrize(
    "since",
    [
        *("soon", "1_0", "+1", "%2B1", "%201%20", "%D9%A1", "-", "--1"),
        pytest.param("1" * 5000, id="5000-digits"),
    ],
)
def test_bad_since_parameter_400(server, since):
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", f"/chunks?since={since}")
    response = conn.getresponse()
    assert response.status == 400
    assert json.loads(response.read()) == {"error": "bad since parameter"}
    conn.close()


@pytest.mark.parametrize(
    "diagnosis_id", ["x", "1_0", "+0", "%31", "", "-", pytest.param("1" * 5000, id="5000-digits")]
)
def test_bad_diagnosis_id_400(server, diagnosis_id):
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", f"/hashes/{diagnosis_id}")
    response = conn.getresponse()
    assert response.status == 400
    assert json.loads(response.read()) == {"error": "bad diagnosis id"}
    conn.close()


def test_negative_since_returns_every_chunk(server):
    now = server.clock_handle.now
    tek = Tek(bytes=bytes(16), day_index=now // 86400)
    for _ in range(2):
        server.store.ingest_diagnosis([tek], server.store.authorize_otp(60, now).code, None, now)
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", "/chunks?since=-1")
    response = conn.getresponse()
    assert response.status == 200
    assert [c["index"] for c in json.loads(response.read())] == [1, 2]
    conn.close()


@pytest.mark.parametrize(
    "body",
    [b"[]", b'"ttl"', b"7", b'{"ttl": "soon"}', b'{"ttl": 60.5}', b'{"ttl": true}', b'{"ttl": -1}'],
)
def test_bad_otp_request_400(server, body):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("POST", "/otp", body=body)
    response = conn.getresponse()
    assert response.status == 400
    assert b"error" in response.read()
    # The connection stays usable.
    conn.request("POST", "/otp", body=b'{"ttl": 0}')
    assert conn.getresponse().status == 200
    conn.close()


@pytest.mark.parametrize("length", ["-1", "ten", "1.5", "", "\u00b2"])
def test_bad_content_length_400(server, length):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.putrequest("POST", "/otp")
    conn.putheader("Content-Length", length)
    conn.endheaders()
    response = conn.getresponse()
    assert response.status == 400
    conn.close()
    # The handler thread did not hang or die: the server still answers.
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("POST", "/otp", body=b"{}")
    assert conn.getresponse().status == 200
    conn.close()


@pytest.mark.parametrize("client_closes", [True, False])
def test_short_body_400_and_nothing_authorized(impatient_server, client_closes):
    # The body ends (the client shut its side) or stalls before the declared
    # 100 bytes; before, a stall held the handler until the client left, and
    # the truncated body was then handled as if complete.
    server = impatient_server
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"POST /otp HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{}")
        if client_closes:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.split(b"\r\n", 1)[0].split()[1] == b"400"
    assert server.store.audit == []
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("POST", "/otp", body=b"{}")
    assert conn.getresponse().status == 200
    conn.close()


@pytest.mark.parametrize("sent", [b"GET /chu", b"POST /otp HTTP/1.1\r\nHost: x\r\n"])
def test_stalled_request_closed_within_timeout(impatient_server, sent):
    # Part of a request line, or a request line and part of its headers, then
    # nothing: before, the handler thread waited for the rest forever.
    server = impatient_server
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(sent)
        start = time.monotonic()
        assert sock.recv(4096) == b""  # closed by the server, no reply
        assert time.monotonic() - start < 2
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("POST", "/otp", body=b"{}")
    assert conn.getresponse().status == 200
    conn.close()
    assert [entry["op"] for entry in server.store.audit] == ["authorize_otp"]


@pytest.mark.parametrize(
    "sent", [b"POST /otp HTTP/1.1\r\n", b"GET /chunks?since=0 HTTP/1.1\r\nHost: x\r\n"]
)
def test_headers_cut_off_by_a_half_close_400_and_no_store_call(server, sent):
    # The client shuts its side before the blank line that ends the headers;
    # before, the stdlib took the end of the stream for that line and served
    # the request: a POST /otp got a 200 and authorized an OTP.
    store = server.store = mock.create_autospec(BackendStore, instance=True)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(sent)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.split(b"\r\n", 1)[0].split()[1] == b"400"
    assert store.mock_calls == []


def test_headers_cut_off_by_a_full_close_print_nothing(server, capsys):
    # Before, the request was served to a client that had gone, and the reply
    # died on BrokenPipeError with a traceback on stderr.
    store = server.store = mock.create_autospec(BackendStore, instance=True)
    closed = threading.Event()
    shutdown_request = wire._Server.shutdown_request

    def shutdown_and_tell(self, request):
        shutdown_request(self, request)
        closed.set()

    with mock.patch.object(wire._Server, "shutdown_request", shutdown_and_tell):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"POST /otp HTTP/1.1\r\n")
        assert closed.wait(5)
    assert store.mock_calls == []
    assert capsys.readouterr().err == ""


NEGATIVE_TTL = b'{"ttl": -5}'


def _post_otp(port: int, header_lines: bytes) -> bytes:
    """The status line of the reply to ``POST /otp`` with these header
    lines and a body of ``NEGATIVE_TTL``, whatever its declared length."""
    request = b"POST /otp HTTP/1.1\r\n" + header_lines + b"\r\n" + NEGATIVE_TTL
    return _exchange(port, request, True)[0].split(b"\r\n", 1)[0]


MALFORMED = b"400 malformed header line"
CONFLICTING = b"400 conflicting content-length"
TRANSFER_ENCODING = b"400 transfer-encoding not supported"
CL = b"Content-Length: 11\r\n"


@pytest.mark.parametrize(
    "header_lines, status",
    [
        # The email parser gave each of the first three a 200 and an OTP with
        # the default ttl: it took the lines after a malformed one for a
        # body, and read no chunked body.
        pytest.param(b"Garbage\r\n" + CL, MALFORMED, id="no-colon"),
        pytest.param(b"Content-Length : 11\r\n", MALFORMED, id="space-before-colon"),
        pytest.param(b"Transfer-Encoding: chunked\r\n", TRANSFER_ENCODING, id="chunked"),
        pytest.param(
            b"Transfer-Encoding: chunked\r\n" + CL, TRANSFER_ENCODING, id="chunked-and-length"
        ),
        pytest.param(CL + b"Transfer-Encoding: identity\r\n", TRANSFER_ENCODING, id="identity"),
        pytest.param(b": 11\r\n" + CL, MALFORMED, id="empty-name"),
        pytest.param(b"Content Length: 11\r\n", MALFORMED, id="space-in-name"),
        pytest.param(b"X-Note: a\r\n b\r\n" + CL, MALFORMED, id="obs-fold-space"),
        pytest.param(b"X-Note: a\r\n\tContent-Length: 11\r\n", MALFORMED, id="obs-fold-tab"),
        pytest.param(CL + b"Content-Length: 12\r\n", CONFLICTING, id="two-lengths"),
        pytest.param(
            b"content-length: 11\r\nCONTENT-LENGTH: 011\r\n", CONFLICTING, id="one-length-two-ways"
        ),
        pytest.param(
            b"X: y\r\n" * wire.MAX_HEADER_LINES + CL,
            b"431 more than %d header lines" % wire.MAX_HEADER_LINES,
            id="101-lines",
        ),
        pytest.param(
            b"X: " + b"y" * wire.MAX_HEADER_LINE + b"\r\n" + CL,
            b"431 header line too long",
            id="long-line",
        ),
    ],
)
def test_rejected_header_block_reaches_no_handler(server, header_lines, status):
    store = server.store
    spy = server.store = mock.Mock(wraps=store)
    assert _post_otp(server.port, header_lines) == b"HTTP/1.0 " + status
    assert spy.mock_calls == []
    assert store.audit == []


@pytest.mark.parametrize(
    "header_lines",
    [
        b"Content-Length: 11\r\n",
        b"content-LENGTH:11\r\n",
        b"Content-Length: \t11 \t\r\n",
        b"Content-Length: 11\nHost: x\n",
        b"Content-Length: 11\r\ncontent-length: 11\r\n",
        b"X: y\r\n" * (wire.MAX_HEADER_LINES - 1) + b"Content-Length: 11\r\n",
    ],
    ids=[
        "plain", "any-case", "spaces-and-tabs", "bare-newlines", "same-length-twice", "100-lines"
    ],
)
def test_accepted_header_block_has_its_body_read(server, header_lines):
    # The body is read: its negative ttl gets a 400 from the otp handler.
    assert _post_otp(server.port, header_lines).split()[1] == b"400"
    assert server.store.audit == []
    assert _post_otp(server.port, header_lines.replace(b"11", b"10")).split()[1] == b"400"


HEADER_NAMES = st.from_regex(r"[-!#$%&'*+.^_`|~0-9A-Za-z]{1,12}", fullmatch=True).filter(
    lambda name: name.lower() not in ("content-length", "transfer-encoding")
)
HEADER_VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=20)


@st.composite
def header_blocks(draw):
    """A well-formed header block: extra headers in any order around zero,
    one or two equal Content-Length lines, names in any case, optional
    spaces and tabs around the values, CRLF or bare LF line ends."""
    lines = [(name, draw(HEADER_VALUES)) for name in draw(st.lists(HEADER_NAMES, max_size=8))]
    cases = draw(st.lists(st.booleans(), min_size=14, max_size=14))
    spelled = "".join(c.upper() if up else c for c, up in zip("content-length", cases))
    lines += [(spelled, str(draw(st.integers(0, 10**6))))] * draw(st.integers(0, 2))
    space = st.sampled_from(["", " ", "\t", " \t "])
    end = draw(st.sampled_from(["\r\n", "\n"]))
    return "".join(
        f"{name}:{draw(space)}{value}{draw(space)}{end}"
        for name, value in draw(st.permutations(lines))
    ).encode() + end.encode()


@settings(max_examples=200, deadline=None)
@given(block=header_blocks())
def test_header_reader_finds_the_content_length_http_client_finds(block):
    ours = wire._read_headers(io.BytesIO(block))
    theirs = http.client.parse_headers(io.BytesIO(block)).get("Content-Length")
    assert isinstance(ours, dict)
    assert ours.get("content-length") == (None if theirs is None else theirs.strip(" \t"))


def test_concurrent_clients_see_sequential_semantics(server):
    codes: list[str] = []
    lock = threading.Lock()

    def grab_otp():
        conn = HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/otp", body=b"{}")
        response = conn.getresponse()
        assert response.status == 200
        code = json.loads(response.read())["code"]
        conn.close()
        with lock:
            codes.append(code)

    threads = [threading.Thread(target=grab_otp) for _ in range(16)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Under the kernel's 1 s SYN retry: no connect was dropped from a full
    # listen backlog.
    assert time.monotonic() - start < 0.9
    assert len(codes) == 16
    assert len(set(codes)) == 16


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
HEX = st.sampled_from(["00" * 16, "zz", ""])
DIAGNOSIS = st.fixed_dictionaries(
    {
        "otp": JSON,
        "teks": st.lists(st.fixed_dictionaries({"tek_hex": HEX | JSON, "day": JSON}), max_size=2),
    },
    optional={"hashes": st.lists(HEX) | JSON},
)


@st.composite
def requests(draw):
    """Any bytes, or a request line, headers and body, each of them possibly
    malformed; the Content-Length may be missing, wrong or not a number."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "BREW"]))
    path = draw(
        st.sampled_from(["/otp", "/diagnosis", "/chunks?since=1", "/chunks?since=x", "/hashes/1"])
        | st.text(max_size=16)
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/x", ""]))
    body = draw(st.binary(max_size=64) | (JSON | DIAGNOSIS).map(lambda v: json.dumps(v).encode()))
    length = draw(st.sampled_from([len(body), len(body) + 5, max(len(body) - 1, 0), None, "x"]))
    head = f"{method} {path} {version}\r\nHost: x\r\n"
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    return head.encode() + b"\r\n" + body


def _exchange(port: int, request: bytes, shut: bool) -> tuple[bytes, float]:
    """Send ``request``, shutting our side if ``shut``, and read until the
    server closes; returns the reply and the seconds it took to close."""
    reply = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        start = time.monotonic()
        try:
            sock.sendall(request)
            start = time.monotonic()
            if shut:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionError:  # closed while we sent or read
            pass
    return reply, time.monotonic() - start


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(request=b"POST /otp HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + DEEP, shut=False)
@example(request=b"POST /diagnosis HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + DEEP, shut=True)
@example(request=b"BREW /otp HTTP/1.1\r\n\r\n", shut=True)
@example(request=b"POST /otp HTTP/1.1\r\nContent-Length: %d\r\n\r\n{}" % 2**63, shut=False)
@example(request=b"POST /diagnosis HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % 2**40, shut=True)
@example(request=b"GET /otp HTTP/2.0\r\n\r\n", shut=True)
@given(request=requests(), shut=st.booleans())
def test_any_request_gets_a_4xx_or_better_or_a_timely_close(impatient_server, request, shut):
    errors = []
    with mock.patch.object(wire._Server, "handle_error", lambda self, *args: errors.append(args)):
        reply, seconds = _exchange(impatient_server.port, request, shut)
    assert errors == []  # no handler died with a traceback
    assert seconds < wire.REQUEST_TIMEOUT_SECONDS + 1.5
    if reply:
        assert reply.startswith((b"HTTP/1.0 ", b"HTTP/1.1 "))
        assert 200 <= int(reply[9:12]) < 500


OTP_REQUEST = b"POST /otp HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"


def test_sequential_requests_reuse_one_handler_thread(server):
    # Each reply is read to the server's close, as a client that waits for it
    # does.  Before, every connection started a thread of its own.
    with mock.patch.object(
        threading.Thread, "start", autospec=True, side_effect=threading.Thread.start
    ) as start:
        for _ in range(20):
            reply, _ = _exchange(server.port, OTP_REQUEST, False)
            assert reply.startswith(b"HTTP/1.0 200 ")
    assert start.call_count <= 1


def test_requests_are_served_when_no_thread_can_start():
    # The thread that takes a connection serves it, and accepts the next
    # one, when it cannot start a thread to wait in accept meanwhile.
    srv = _serve()
    try:
        with mock.patch.object(threading.Thread, "start", side_effect=RuntimeError):
            for _ in range(3):
                reply, _ = _exchange(srv.port, OTP_REQUEST, False)
                assert reply.startswith(b"HTTP/1.0 200 ")
    finally:
        srv.stop()


def test_a_stalled_client_delays_no_other(server):
    # The stalled connection takes the idle handler thread and holds it for
    # the 5 s request timeout: the next client must get a thread of its own.
    _exchange(server.port, OTP_REQUEST, False)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
        stalled.sendall(b"POST /otp HTTP/1.1\r\n")
        start = time.monotonic()
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/otp", body=b"{}")
        assert conn.getresponse().status == 200
        conn.close()
        assert time.monotonic() - start < 1
        stalled.sendall(b"Content-Length: 2\r\n\r\n{}")  # and it is still served
        assert stalled.recv(4096).startswith(b"HTTP/1.0 200 ")


def test_stop_ends_every_handler_thread():
    before = set(threading.enumerate())
    srv = _serve()
    socks = [socket.create_connection(("127.0.0.1", srv.port), timeout=10) for _ in range(3)]
    for sock in socks:  # three connections open at once: three handler threads
        sock.sendall(OTP_REQUEST[:10])
    for sock in socks:
        with sock:
            sock.sendall(OTP_REQUEST[10:])
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
            assert reply.startswith(b"HTTP/1.0 200 ")
    started = set(threading.enumerate()) - before
    assert len(started) >= 3
    srv.stop()
    deadline = time.monotonic() + 1
    for thread in started:
        thread.join(max(deadline - time.monotonic(), 0))
    assert [t for t in started if t.is_alive()] == []


@pytest.mark.parametrize("started", [False, True])
def test_stop_returns_and_closes_the_socket(started):
    # Before, stop() on a server never started waited for ever for a
    # serve_forever that never ran.
    srv = BackendHTTPServer(BackendStore(PARAMS), ManualClock(0), PARAMS)
    if started:
        srv.start()
    stopper = threading.Thread(target=lambda: (srv.stop(), srv.stop()), daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", srv.port), timeout=5).close()


def test_date_header_formatted_once_a_second(server):
    now = [0.0]
    with mock.patch.object(wire.time, "time", lambda: now[0]), mock.patch.object(
        wire, "_http_date", side_effect=wire._http_date
    ) as formatted:
        dates = []
        for now[0] in (1_700_000_000.25, 1_700_000_000.75, 1_700_000_001.0):
            conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
            conn.request("POST", "/otp", body=b"{}")
            dates.append(conn.getresponse().getheader("Date"))
            conn.close()
    seconds = (1_700_000_000, 1_700_000_000, 1_700_000_001)
    assert dates == [email.utils.formatdate(second, usegmt=True) for second in seconds]
    assert formatted.call_count == 2  # once for each second


@settings(max_examples=500, deadline=None)
@example(timestamp=0.0)
@example(timestamp=0.9999995)  # rounds up to the next second
@example(timestamp=0.9999994)
@example(timestamp=951_782_399.9999996)  # into a leap day
@example(timestamp=float(2**32))
@given(timestamp=st.floats(0, 2**32) | st.integers(0, 2**32))
def test_date_text_is_what_the_email_package_writes(timestamp):
    assert wire._http_date(timestamp) == email.utils.formatdate(timestamp, usegmt=True)


HANDLER = http.server.BaseHTTPRequestHandler
SERVER_HEADER = f"{HANDLER.server_version} {HANDLER.sys_version}"


def _dated_exchange(port: int, request: bytes) -> tuple[bytes, list[bytes]]:
    """The reply to ``request``, dated 1_700_000_000, and what each of the
    server's sends sent."""
    with mock.patch.object(wire.time, "time", lambda: 1_700_000_000.5), server_sends(port) as sent:
        reply, _ = _exchange(port, request, True)
    return reply, sent


def _error_body(reason: str) -> bytes:
    return json.dumps({"error": reason}, separators=(",", ":")).encode()


def _layout(status: int, body: bytes, reason: str | None = None) -> bytes:
    """A reply as the server has always laid it out, dated 1_700_000_000."""
    reason = HANDLER.responses[status][0] if reason is None else reason
    return (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Server: {SERVER_HEADER}\r\n"
        f"Date: {email.utils.formatdate(1_700_000_000, usegmt=True)}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


@pytest.mark.parametrize(
    "request_bytes, status, body",
    [
        pytest.param(b"GET /chunks?since=0 HTTP/1.1\r\n\r\n", 200, b"[]", id="200"),
        pytest.param(
            b"GET /chunks?since=x HTTP/1.1\r\n\r\n",
            400,
            b'{"error":"bad since parameter"}',
            id="400",
        ),
        pytest.param(
            b'POST /diagnosis HTTP/1.1\r\nContent-Length: 23\r\n\r\n{"otp":"no","teks":[]}\n',
            403,
            b'{"error":"unknown otp"}',
            id="403",
        ),
        pytest.param(
            b"GET /hashes/7 HTTP/1.1\r\n\r\n",
            404,
            b'{"error":"no hash batch for diagnosis 7"}',
            id="404",
        ),
        pytest.param(
            b"POST /otp HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (wire.MAX_BODY_BYTES + 1),
            413,
            b'{"error":"body longer than %d bytes"}' % wire.MAX_BODY_BYTES,
            id="413",
        ),
    ],
)
def test_reply_bytes_go_out_in_one_send(server, request_bytes, status, body):
    # Before, end_headers() sent the status line and headers, and a second
    # sendall the body.
    reply, sent = _dated_exchange(server.port, request_bytes)
    assert reply == _layout(status, body)
    assert sent == [reply]


LONG_LINE = b"X: " + b"y" * (wire.MAX_HEADER_LINE - 2)  # one byte over the limit, no newline


@pytest.mark.parametrize(
    "request_bytes, status, reason",
    [
        pytest.param(
            b"POST /otp HTTP/1.1\r\nGarbage\r\n\r\n", 400, "malformed header line", id="header-400"
        ),
        pytest.param(
            b"POST /otp HTTP/1.1\r\n" + LONG_LINE, 431, "header line too long", id="header-431"
        ),
        pytest.param(
            b"GET / HTTP/x\r\n\r\n", 400, "Bad request version ('HTTP/x')", id="request-line-400"
        ),
        # Before, the first got the bare body, with no status line or
        # headers, and the second was served as a GET.
        pytest.param(
            b"GET /chunks?since=0 HTTP/0.9\r\n\r\n",
            400,
            "Bad request version ('HTTP/0.9')",
            id="http-0.9-400",
        ),
        pytest.param(
            b"GET /chunks?since=0\r\n\r\n",
            400,
            "Bad request syntax ('GET /chunks?since=0')",
            id="two-words-400",
        ),
        pytest.param(
            b"GET /chunks?since=0 HTTP/2.0\r\n\r\n",
            400,
            "Bad request version ('HTTP/2.0')",
            id="http-2-400",
        ),
        pytest.param(
            b"BREW /otp HTTP/1.1\r\n\r\n", 405, "Unsupported method ('BREW')", id="method-405"
        ),
        pytest.param(
            b"G" * (wire.MAX_HEADER_LINE + 1),
            414,
            HANDLER.responses[414][0],
            id="request-line-414",
        ),
    ],
)
def test_error_replies_are_json(server, request_bytes, status, reason):
    # Before, each was the stdlib's HTML error page, sent in two writes.
    reply, sent = _dated_exchange(server.port, request_bytes)
    assert reply == _layout(status, _error_body(reason), reason)
    assert sent == [reply]


def test_a_head_request_gets_its_error_reply_with_no_body(server):
    reply, sent = _dated_exchange(server.port, b"HEAD /chunks HTTP/1.1\r\n\r\n")
    reason = "Unsupported method ('HEAD')"
    body = _error_body(reason)
    assert reply == _layout(405, body, reason)[: -len(body)]
    assert sent == [reply]


def test_the_server_starts_without_a_name_lookup():
    # Before, HTTPServer.server_bind looked the host's name up at every start.
    with mock.patch.object(socket, "getfqdn", side_effect=AssertionError("looked up")):
        srv = _serve()
    try:
        conn = HTTPConnection("127.0.0.1", srv.port, timeout=10)
        conn.request("GET", "/chunks?since=0")
        assert conn.getresponse().status == 200
        conn.close()
    finally:
        srv.stop()


def test_stop_waits_for_no_stalled_client(monkeypatch, capsys):
    # A fresh server's first connection goes to the thread that called
    # serve_forever: stop() must not wait for that thread.
    monkeypatch.setattr(wire, "REQUEST_TIMEOUT_SECONDS", 2.0)
    srv = _serve()
    errors = []
    with mock.patch.object(wire._Server, "handle_error", lambda self, *args: errors.append(args)):
        with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as stalled:
            stalled.sendall(b"POST /otp HTTP/1.1\r\n")
            time.sleep(0.1)  # taken by a handler thread
            start = time.monotonic()
            srv.stop()
            assert time.monotonic() - start < 1
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", srv.port), timeout=5).close()
            assert stalled.recv(4096) == b""  # closed at its timeout, with no reply
            assert time.monotonic() - start < wire.REQUEST_TIMEOUT_SECONDS + 1
    assert errors == []
    assert capsys.readouterr().err == ""
