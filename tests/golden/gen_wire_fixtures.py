#!/usr/bin/env python3
"""Generate wire_fixtures.json, the frozen request/response exchanges for the
HTTP backend.

Run once; regenerate only on a deliberate wire-format change.  The fixtures
are deterministic because the store uses a seeded RNG for OTP codes and the
server clock is driven by explicit set_time steps.
"""

import json
import random
from http.client import HTTPConnection
from pathlib import Path

from relaysim.backend import BackendStore
from relaysim.params import SimParams
from relaysim.wire import BackendHTTPServer

DAY = 86400
TEK_A = bytes(range(16)).hex()
TEK_B = bytes(range(16, 32)).hex()
HASH_1 = ("11" * 32)
HASH_2 = ("22" * 32)


class ManualClock:
    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


def main() -> None:
    clock = ManualClock(100 * DAY)
    params = SimParams()
    store = BackendStore(params, rng=random.Random("wire-golden"))
    server = BackendHTTPServer(store, clock, params)
    server.start()
    conn = HTTPConnection("127.0.0.1", server.port)

    steps = []

    def exchange(method, path, body=None):
        raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() if body is not None else b""
        conn.request(method, path, body=raw or None, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        steps.append(
            {
                "request": {"method": method, "path": path}
                | ({"body": raw.decode()} if body is not None else {}),
                "response": {"status": response.status, "body": payload.decode()},
            }
        )
        return json.loads(payload)

    otp1 = exchange("POST", "/otp", {})["code"]
    otp2 = exchange("POST", "/otp", {"ttl": 60})["code"]
    exchange(
        "POST",
        "/diagnosis",
        {
            "otp": otp1,
            "teks": [{"tek_hex": TEK_A, "day": 100}, {"tek_hex": TEK_B, "day": 99}],
            "hashes": [HASH_1, HASH_2],
        },
    )
    exchange(  # reuse of otp1 -> 403
        "POST",
        "/diagnosis",
        {"otp": otp1, "teks": [{"tek_hex": TEK_A, "day": 100}]},
    )
    exchange(  # no hash batch
        "POST",
        "/diagnosis",
        {"otp": otp2, "teks": [{"tek_hex": TEK_B, "day": 100}]},
    )
    exchange("GET", "/chunks?since=0")
    exchange("GET", "/chunks?since=1")
    exchange("GET", "/hashes/1")
    exchange("GET", "/hashes/2")
    exchange("GET", "/hashes/999")
    exchange(  # unknown otp -> 403
        "POST",
        "/diagnosis",
        {"otp": "deadbeef", "teks": [{"tek_hex": TEK_A, "day": 100}]},
    )
    otp3 = exchange("POST", "/otp", {"ttl": 60})["code"]
    steps.append({"set_time": 100 * DAY + 61})
    clock.now = 100 * DAY + 61
    exchange(  # expired otp -> 403
        "POST",
        "/diagnosis",
        {"otp": otp3, "teks": [{"tek_hex": TEK_A, "day": 100}]},
    )
    exchange(  # tek older than 14 days -> 403
        "POST",
        "/otp",
        {},
    )
    otp4 = steps[-1]["response"]["body"]
    otp4 = json.loads(otp4)["code"]
    exchange(
        "POST",
        "/diagnosis",
        {"otp": otp4, "teks": [{"tek_hex": TEK_A, "day": 85}]},
    )
    otp5 = exchange("POST", "/otp", {})["code"]
    exchange(  # 1-byte hash digest -> 403
        "POST",
        "/diagnosis",
        {"otp": otp5, "teks": [{"tek_hex": TEK_A, "day": 100}], "hashes": ["11"]},
    )
    exchange(  # tek for a day after the diagnosis day -> 403
        "POST",
        "/diagnosis",
        {"otp": otp5, "teks": [{"tek_hex": TEK_A, "day": 10**6}]},
    )
    exchange(  # no keys at all -> 403
        "POST",
        "/diagnosis",
        {"otp": otp5, "teks": []},
    )
    exchange(  # the rejections left the otp unused and published nothing
        "POST",
        "/diagnosis",
        {"otp": otp5, "teks": [{"tek_hex": TEK_A, "day": 100}], "hashes": [HASH_1]},
    )

    conn.close()
    server.stop()

    out = Path(__file__).parent / "wire_fixtures.json"
    out.write_text(json.dumps({"initial_time": 100 * DAY, "steps": steps}, indent=2) + "\n")
    print(f"wrote {out} ({len(steps)} steps)")


if __name__ == "__main__":
    main()
