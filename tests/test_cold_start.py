"""What a cold start of the simulator imports.

A fresh interpreter imports the package, builds a world from a scenario
dict and imports the command-line module.  None of that should load the
dataclasses code generator (or ``inspect``, which it pulls in), the HTTP
stack, which only ``serve-backend`` needs, ``importlib.resources``,
which only the bundled-scenario lookups need, or ``pathlib``, which
reading a scenario file does not need.  A server's cold start, the
command-line and wire modules and a ``BackendHTTPServer``, should load
neither the simulator nor ``http.server`` and what it brings (``http.client``,
``email``, ``ssl``); the package's simulator names still resolve on first
use.  ``-S`` keeps site hooks, which may import any of these themselves,
out of the check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIO1 = SRC / "relaysim" / "scenarios" / "scenario1.json"

NOT_IMPORTED = ("dataclasses", "inspect", "http.server", "importlib.resources", "pathlib")

PROBE = """
import json, sys
import relaysim
from relaysim.scenario import World
World(relaysim.load_config(json.load(sys.stdin)))
import relaysim.cli
print(json.dumps(sorted(sys.modules)))
"""


def _probe(code: str, stdin: str = "") -> str:
    """What ``code`` prints, run by a fresh interpreter with ``-S``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_cold_start_imports_no_code_generator_or_http_stack():
    modules = set(json.loads(_probe(PROBE, SCENARIO1.read_text())))
    assert "relaysim.cli" in modules
    assert [m for m in NOT_IMPORTED if m in modules] == []


SERVER_NOT_IMPORTED = (
    "relaysim.scenario",
    "relaysim.agents",
    "relaysim.radio",
    "http.server",
    "http.client",
    "email",
    "ssl",
)

SERVER_PROBE = """
import json, sys
import relaysim.cli, relaysim.wire
from relaysim.backend import BackendStore
from relaysim.params import SimParams
server = relaysim.wire.BackendHTTPServer(BackendStore(SimParams()), lambda: 0, SimParams())
server.stop()
print(json.dumps(sorted(sys.modules)))
"""


def test_server_cold_start_imports_no_simulator_or_http_server():
    modules = set(json.loads(_probe(SERVER_PROBE)))
    assert "relaysim.wire" in modules
    assert [m for m in SERVER_NOT_IMPORTED if m in modules] == []


EXPORTS = (
    "SimParams",
    "ScenarioConfig",
    "ScenarioReport",
    "load_builtin",
    "load_config",
    "run",
    "__version__",
)

LAZY_PROBE = """
import sys
import relaysim
loaded = "relaysim.scenario" in sys.modules
print(loaded, relaysim.load_config.__module__, relaysim.ScenarioReport.__name__)
namespace = {}
exec("from relaysim import *", namespace)
print(sorted(name for name in namespace if name != "__builtins__"))
"""


def test_package_names_resolve_on_first_use():
    lines = _probe(LAZY_PROBE).splitlines()
    assert lines[0] == "False relaysim.scenario ScenarioReport"
    assert lines[1] == str(sorted(EXPORTS))
