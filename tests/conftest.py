"""Shared test helpers."""

from hypothesis import strategies as st

from stdlib_contract import ManualClock, replay_wire_fixtures  # re-exported to the tests


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
