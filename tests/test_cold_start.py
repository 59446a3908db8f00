"""What a cold start of the simulator imports.

A fresh interpreter imports the package, builds a world from a scenario
dict and imports the command-line module.  None of that should load the
dataclasses code generator (or ``inspect``, which it pulls in), the HTTP
stack, which only ``serve-backend`` needs, ``importlib.resources``,
which only the bundled-scenario lookups need, or ``pathlib``, which
reading a scenario file does not need.  ``-S`` keeps site hooks,
which may import any of these themselves, out of the check.
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


def test_cold_start_imports_no_code_generator_or_http_stack():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        input=SCENARIO1.read_text(),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    modules = set(json.loads(done.stdout))
    assert "relaysim.cli" in modules
    assert [m for m in NOT_IMPORTED if m in modules] == []
