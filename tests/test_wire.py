"""HTTP wire mode: golden exchange replay, error paths, concurrent clients."""

import json
import random
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

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


def test_bad_since_parameter_400(server):
    conn = HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", "/chunks?since=soon")
    assert conn.getresponse().status == 400
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
