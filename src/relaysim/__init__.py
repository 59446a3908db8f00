"""relaysim: a deterministic simulator of BLE proximity tracing, the relay
attack against it, and a location-bound contact-hash defense."""

from .params import SimParams

__version__ = "0.1.0"

# The simulator's names, which import it on first use (PEP 562): a process
# that only serves the backend never loads it.
_SCENARIO_NAMES = ("ScenarioConfig", "ScenarioReport", "load_builtin", "load_config", "run")

__all__ = ["SimParams", *_SCENARIO_NAMES, "__version__"]


def __getattr__(name: str):
    if name not in _SCENARIO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import scenario

    for export in _SCENARIO_NAMES:
        globals()[export] = getattr(scenario, export)
    return globals()[name]
