#!/usr/bin/env python3
"""Generate the golden canonical reports under reports/.

Writes ``reports/<name>.json`` for each bundled scenario (at its own config
seed) and for each crowd config ``reports/<name>.config.json`` committed
beside them.  Regenerate only on a deliberate change of the report bytes,
and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/gen_reports.py

``--crowd-configs`` first rebuilds the two crowd configs from the
benchmark's crowd generator (``bench/crowd.py``) with the small shapes
below; the tests read the committed JSON and never import ``bench``.
``multi_adversary.config.json`` is written by hand: ``scenario1`` plus a
second sniffer and a second rebroadcaster and two devices walking into Y,
so that captures and relays of several adversaries share one tick.
"""

import argparse
import json
import sys
from pathlib import Path

from relaysim.scenario import World, builtin_scenario_names, load_builtin, load_config

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"
CROWD_SEED = 1

# Scaled-down versions of the benchmark's two crowds, small enough that
# running both stays well under a second.  The guarded one yields every
# verdict kind; the dense one moves its devices and runs no defense.
CROWD_SHAPES = {
    "crowd_guarded_small": dict(
        honest=6, places=2, spacing_m=1100.0, duration=1800,
        diagnoses=3, diagnosis_start=900, diagnosis_spacing=300,
        undefended_share=1 / 3, defended=True, relay_pair=True, victims=1,
    ),
    "crowd_dense_small": dict(
        honest=12, places=3, spacing_m=1100.0, duration=900,
        diagnoses=3, diagnosis_start=450, diagnosis_spacing=90,
        undefended_share=0.0, defended=False, relay_pair=True, victims=1,
        move_interval=300,
    ),
}


def report_bytes(name: str) -> bytes:
    """Canonical report of a bundled scenario or of a committed crowd config."""
    if name in builtin_scenario_names():
        config = load_builtin(name)
    else:
        config = load_config(REPORTS / f"{name}.config.json")
    return World(config).run().to_json_bytes()


def golden_names() -> list[str]:
    crowds = [p.name[: -len(".config.json")] for p in sorted(REPORTS.glob("*.config.json"))]
    return builtin_scenario_names() + crowds


def write_crowd_configs() -> None:
    sys.path.insert(0, str(HERE.parents[1] / "bench"))
    from crowd import CrowdShape, crowd_config

    for name, shape in CROWD_SHAPES.items():
        config = crowd_config(name, CROWD_SEED, CrowdShape(**shape))
        path = REPORTS / f"{name}.config.json"
        path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--crowd-configs",
        action="store_true",
        help="rebuild the crowd configs from bench/crowd.py first",
    )
    args = parser.parse_args()
    REPORTS.mkdir(exist_ok=True)
    if args.crowd_configs:
        write_crowd_configs()
    for name in golden_names():
        path = REPORTS / f"{name}.json"
        path.write_bytes(report_bytes(name))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
