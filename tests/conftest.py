"""Shared test helpers."""

import json
from http.client import HTTPConnection
from pathlib import Path

from hypothesis import strategies as st

WIRE_FIXTURES = Path(__file__).parent / "golden" / "wire_fixtures.json"


class ManualClock:
    """Settable clock for driving the wire-mode backend deterministically."""

    def __init__(self, now: int):
        self.now = now

    def __call__(self) -> int:
        return self.now


def replay_wire_fixtures(server, clock: ManualClock) -> int:
    """Replay the committed HTTP exchanges; every response must byte-match.

    Returns how many request/response pairs were verified.
    """
    data = json.loads(WIRE_FIXTURES.read_text())
    clock.now = data["initial_time"]
    conn = HTTPConnection("127.0.0.1", server.port)
    replayed = 0
    for step in data["steps"]:
        if "set_time" in step:
            clock.now = step["set_time"]
            continue
        request = step["request"]
        body = request.get("body")
        conn.request(
            request["method"],
            request["path"],
            body=body.encode() if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = response.read()
        assert response.status == step["response"]["status"], request
        assert payload == step["response"]["body"].encode(), request
        replayed += 1
    conn.close()
    return replayed


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def json_paths(value, path=()) -> list[tuple]:
    """Every path into a JSON document, the empty one (the whole document) first."""
    paths = [path]
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            paths += json_paths(child, (*path, key))
    return paths


def replaced(document, path: tuple, value):
    """``document`` with the value at ``path`` replaced by ``value``, in place;
    the empty path replaces the whole document."""
    if not path:
        return value
    owner = document
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return document
