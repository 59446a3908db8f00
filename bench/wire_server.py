"""Traced backend launcher: ``relaysim serve-backend --port 0`` with the
wire handlers, the store methods and the encode helpers wrapped.

Run it with the package on ``PYTHONPATH``.  On SIGINT the server stops as
the CLI does, and this script prints the per-name span statistics as one
JSON object on stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, span_stats  # noqa: E402

from relaysim import backend, cli, wire  # noqa: E402

HANDLERS = ("handle_otp", "handle_diagnosis", "handle_chunks", "handle_hashes")
STORE_METHODS = ("authorize_otp", "ingest_diagnosis", "fetch_chunks", "fetch_hash_batch")
# wire imported these by name, so they are wrapped in wire's namespace.
ENCODERS = ("canonical_json", "encode_chunks", "encode_hash_batch")


def main() -> int:
    tracer = Tracer()
    for name in HANDLERS:
        tracer.wrap(wire.BackendHTTPServer, name, f"wire.{name}")
    for name in STORE_METHODS:
        tracer.wrap(backend.BackendStore, name, f"backend.{name}")
    for name in ENCODERS:
        tracer.wrap(wire, name, "backend.encode")
    try:
        code = cli.main(["serve-backend", "--port", "0"])
    finally:
        tracer.close()
        stats = span_stats(tracer.spans)
        print(json.dumps({name: vars(st) for name, st in stats.items()}), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
