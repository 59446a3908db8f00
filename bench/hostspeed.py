"""Host-speed correction for timings taken on a shared, drifting host.

On a virtual machine that shares its cores, the speed at which the
interpreter runs drifts by 20 % or more over seconds to minutes, whatever
the program does.  Longer runs do not average it out: the median pass time
of 20 s to 60 s windows spread 17 % to 25 % on a 2-vCPU host.  A probe is a
fixed piece of work of the same kind as the measured one that runs none of
``relaysim``'s code:

- ``probe``: the simulator's kind of work (bytecode, small tuples and dicts,
  SHA-256 of short payloads, struct packing, float math, small JSON);
- ``http_probe``: round trips to ``ref_server.py``, the standard library's
  threading HTTP server, as the backend uses.

Probes run between segments of measured work, and each segment's timings
are scaled by the probe's reference time over the mean of the probes on
either side of it.  The result is the time the work would take on a host
where the probe takes its reference time, and a change to the program
moves it as it moves the raw time.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from http.client import HTTPConnection
from time import perf_counter
from typing import Callable

PROBE_ROUNDS = 8000
HTTP_PROBE_REQUESTS = 40
# Seconds each probe takes at the reference speed, about what they took on
# the 2-vCPU Xeon host the seed baseline was measured on.
REFERENCE_S = 0.05
HTTP_REFERENCE_S = 0.04
_HTTP_BODY = b'{"probe":"' + b"0" * 64 + b'"}'


def probe() -> float:
    """Run the fixed probe once and return its seconds."""
    start = perf_counter()
    seen: dict[tuple[int, int], int] = {}
    key = b"\0" * 16
    for i in range(PROBE_ROUNDS):
        nxt = hashlib.sha256(key + struct.pack(">q", i)).digest()[:16]
        lo, hi = sorted((key, nxt))
        digest = hashlib.sha256(lo + hi + struct.pack(">qqq", i % 97, i % 89, i // 7)).digest()
        slot = (i % 211, digest[0] & 7)  # a small table, so the probe adds no memory peak
        seen[slot] = seen.get(slot, 0) + 1
        if math.hypot(i * 0.001, (i % 13) * 0.5) < 0.0:
            seen.clear()
        if i % 50 == 0:
            json.loads(json.dumps({"k": [lo.hex(), i, len(seen)]}))
        key = nxt
    return perf_counter() - start


def http_probe(port: int) -> float:
    """Time GET and POST round trips, one connection each, to the reference
    server on ``port``; return the seconds."""
    start = perf_counter()
    for i in range(HTTP_PROBE_REQUESTS):
        conn = HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            if i % 2:
                conn.request("POST", "/probe", body=_HTTP_BODY)
            else:
                conn.request("GET", "/probe")
            conn.getresponse().read()
        finally:
            conn.close()
    return perf_counter() - start


class HostSpeed:
    """Probes between segments of work and gives each segment its factor."""

    def __init__(self, run_probe: Callable[[], float] = probe, reference_s: float = REFERENCE_S):
        self.run_probe = run_probe
        self.reference_s = reference_s
        run_probe()  # warm up
        self.probes: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Probe now, so that the next segment starts here."""
        self.last = self.run_probe()
        self.probes.append(self.last)

    def factor(self) -> float:
        """Probe now; return the factor for the work since the last probe."""
        now = self.run_probe()
        self.probes.append(now)
        f = self.reference_s / ((self.last + now) / 2)
        self.last = now
        return f
