"""Command-line front end: run scenarios, list the bundled ones, serve the backend."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .backend import BackendStore
from .params import SimParams


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {port}")
    return port


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
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("list-scenarios", help="list bundled scenario names")

    serve_p = sub.add_parser("serve-backend", help="serve the backend over HTTP")
    serve_p.add_argument("--port", type=_port, default=8470)
    serve_p.add_argument("--host", default="127.0.0.1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        from . import scenario  # the simulator, which serve-backend does not load

        for name in scenario.builtin_scenario_names():
            config = scenario.load_builtin(name)
            print(f"{name:<18} {config.description}")
        return 0

    if args.command == "run":
        from . import scenario

        load = scenario.load_config if os.path.exists(args.config) else scenario.load_builtin
        try:
            config = load(args.config, seed_override=args.seed)
        except scenario.ConfigError as exc:
            print(f"relaysim: {exc}", file=sys.stderr)
            return 2
        report = scenario.run(config)
        blob = scenario.emit_report(report, args.format)
        if args.out is not None:
            try:
                with open(args.out, "wb") as out:
                    out.write(blob)
            except OSError as exc:
                print(f"relaysim: cannot write the report: {exc}", file=sys.stderr)
                return 2
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(blob)
        else:  # a text-only stream, such as redirect_stdout(io.StringIO())
            sys.stdout.write(blob.decode())
        return 0

    if args.command == "serve-backend":
        from .wire import BackendHTTPServer  # only this command needs the HTTP stack

        params = SimParams()
        store = BackendStore(params)  # secrets-backed OTPs outside simulation runs
        try:
            server = BackendHTTPServer(
                store, lambda: int(time.time()), params, host=args.host, port=args.port
            )
        except OSError as exc:  # an unknown host, or a port in use or not ours to bind
            print(f"relaysim: cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 2
        print(f"backend listening on http://{args.host}:{server.port}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
