"""HTTP wire mode: golden exchange replay, error paths, concurrent clients,
reused handler threads."""

import email.utils
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

from conftest import ManualClock, replay_wire_fixtures

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
    stdlib = wire.BaseHTTPRequestHandler
    with mock.patch.object(wire.time, "time", lambda: now[0]), mock.patch.object(
        stdlib, "date_time_string", autospec=True, side_effect=stdlib.date_time_string
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
