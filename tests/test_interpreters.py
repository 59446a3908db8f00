"""Every other supported interpreter keeps the behaviour contract.

Runs ``stdlib_contract.py`` (golden report and table bytes, the refused
tick after a run's last one, second finish and step after finish, the
stored hash batch and its ``/hashes`` reply, which rest on ``bytes``
order, ``.hex()`` and compact ``json``, the report writer against
``json.dumps`` on a fixed corpus, which rests on the private
``c_make_encoder``, the wire fixtures, one handler thread reused across
sequential requests, a 400 for a header block cut off by a half-close and
``stop()`` of a server never started, which rest on the ``socketserver``
and ``http.server`` hooks the wire server overrides, the CLI's exit-2
paths)
under each Python 3.10 or later found on ``PATH`` or under
``$(pyenv root)/versions/*/bin/python``, other than the one running the
tests.  Those interpreters need no pytest: the script uses
the standard library alone.  A name that does not start an interpreter (a
pyenv shim for a version not selected, say) is passed over.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "stdlib_contract.py"
_NAME = re.compile(r"python(3(\.\d+)?)?")
# Prints "major minor executable"; runs on Python 2 as well.
_PROBE = (
    "import os, sys; sys.stdout.write('%d %d %s' % "
    "(sys.version_info[0], sys.version_info[1], os.path.realpath(sys.executable)))"
)


def _pyenv_root() -> Path:
    if shutil.which("pyenv"):
        found = subprocess.run(["pyenv", "root"], capture_output=True, text=True, timeout=30)
        if found.returncode == 0 and found.stdout.strip():
            return Path(found.stdout.strip())
    return Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))


def _candidates(pyenv_root: Path) -> list[str]:
    found = sorted(map(str, (pyenv_root / "versions").glob("*/bin/python")))
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(directory):
            names = sorted(n for n in os.listdir(directory) if _NAME.fullmatch(n))
            found += [os.path.join(directory, n) for n in names]
    return list(dict.fromkeys(found))


def _interpreters(pyenv_root: Path) -> dict[str, str]:
    """Each other Python 3.10 or later found: its executable -> a path that runs it."""
    running = os.path.realpath(sys.executable)
    interpreters: dict[str, str] = {}
    for path in _candidates(pyenv_root):
        try:
            probe = subprocess.run([path, "-c", _PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue
        major, minor, executable = probe.stdout.split(" ", 2)
        if (int(major), int(minor)) >= (3, 10) and executable != running:
            interpreters.setdefault(executable, path)
    return interpreters


def test_every_other_interpreter_keeps_the_contract():
    pyenv_root = _pyenv_root()
    interpreters = _interpreters(pyenv_root)
    if not interpreters:
        pytest.skip(
            f"no Python 3.10 or later other than {sys.executable} in"
            f" {pyenv_root / 'versions' / '*' / 'bin' / 'python'} or as python, python3"
            f" or python3.N on PATH"
        )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    failed = []
    for executable, path in interpreters.items():
        run = subprocess.run(
            [path, str(SCRIPT)], capture_output=True, text=True, timeout=300, env=env
        )
        if run.returncode != 0:
            failed.append(f"{executable}:\n{run.stdout}{run.stderr}")
    assert not failed, "\n".join(failed)
