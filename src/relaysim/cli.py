"""Command-line front end: run scenarios, list the bundled ones, serve the backend."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import scenario
from .backend import BackendStore
from .params import SimParams
from .wire import BackendHTTPServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Deterministic BLE proximity-tracing simulator: relay attack and hash defense.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config (file path or bundled name)")
    run_p.add_argument("config", help="path to a scenario JSON file, or a bundled scenario name")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")

    sub.add_parser("list-scenarios", help="list bundled scenario names")

    serve_p = sub.add_parser("serve-backend", help="serve the backend over HTTP")
    serve_p.add_argument("--port", type=int, default=8470)
    serve_p.add_argument("--host", default="127.0.0.1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in scenario.builtin_scenario_names():
            config = scenario.load_builtin(name)
            print(f"{name:<18} {config.description}")
        return 0

    if args.command == "run":
        if Path(args.config).exists():
            config = scenario.load_config(args.config, seed_override=args.seed)
        else:
            config = scenario.load_builtin(args.config, seed_override=args.seed)
        report = scenario.run(config)
        blob = scenario.emit_report(report, args.format)
        if args.out is not None:
            args.out.write_bytes(blob)
        else:
            sys.stdout.write(blob.decode())
        return 0

    if args.command == "serve-backend":
        params = SimParams()
        store = BackendStore(params)  # secrets-backed OTPs outside simulation runs
        server = BackendHTTPServer(
            store, lambda: int(time.time()), params, host=args.host, port=args.port
        )
        print(f"backend listening on http://{args.host}:{server.port}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
