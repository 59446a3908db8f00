"""Reference HTTP server for the wire workload's host-speed probe.

The standard library's threading HTTP server, as the backend uses, with a
handler that reads the request body and answers every GET and POST with one
fixed JSON body.  It runs none of relaysim's code, so the time of a round
trip to it tracks only the host's speed at this kind of work.  Prints
``listening on http://127.0.0.1:<port>`` on stderr; stops on SIGINT.
"""

from __future__ import annotations

import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = b'{"ok":true}'


class Handler(BaseHTTPRequestHandler):
    def _reply(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    do_GET = do_POST = _reply

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(f"listening on http://127.0.0.1:{server.server_address[1]}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
