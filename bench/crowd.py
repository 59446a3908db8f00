"""Seeded crowd generator for the benchmark's synthetic workloads.

The generator only builds a scenario config dict; the simulator receives it
through ``relaysim.load_config`` like any other config.  The same seed and
shape always give byte-identical JSON, so ``config_sha256`` shows that two
commits ran on identical inputs.

Layout: honest devices are dealt round-robin over places spaced far beyond
radio range, so every place holds the same number of devices whatever the
seed, and each device sits within a few meters of its place center, so
everyone at one place hears everyone else.  The sniffer sits at the first
place; the rebroadcaster and the relay-only victims sit at a place of their
own, so the victims only ever hear relayed packets.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

# Meters per degree of latitude on the simulator's sphere (R = 6371 km).
METERS_PER_DEGREE = 6371000.0 * math.pi / 180.0
# Devices stand within this distance of their place's center, so any two at
# one place are within the default 10 m radio range of each other.
JITTER_M = 4.0


@dataclass(frozen=True)
class CrowdShape:
    """Everything about a crowd except its seed."""

    honest: int
    places: int
    spacing_m: float
    duration: int
    diagnoses: int
    diagnosis_start: int
    diagnosis_spacing: int
    undefended_share: float
    defended: bool
    relay_pair: bool
    victims: int
    move_interval: int | None = None


def _position(rng: random.Random, center: tuple[float, float]) -> list[float]:
    r = JITTER_M * math.sqrt(rng.random())
    theta = 2 * math.pi * rng.random()
    return [
        round(center[0] + r * math.cos(theta) / METERS_PER_DEGREE, 8),
        round(center[1] + r * math.sin(theta) / METERS_PER_DEGREE, 8),
    ]


def crowd_config(name: str, seed: int, shape: CrowdShape) -> dict:
    """Build one scenario config dict from a seed and a crowd shape."""
    if shape.diagnoses > shape.honest:
        raise ValueError("more diagnoses than honest devices")
    if shape.diagnosis_start + (shape.diagnoses - 1) * shape.diagnosis_spacing >= shape.duration:
        raise ValueError("diagnoses must fall inside the run")
    rng = random.Random(f"relaysim-bench-crowd:{name}:{seed}")
    spacing_deg = shape.spacing_m / METERS_PER_DEGREE
    places = [
        {"name": f"P{i}", "lat": round(i * spacing_deg, 8), "lon": 0.0, "radius_m": 20.0}
        for i in range(shape.places)
    ]
    relay_place = {
        "name": "R",
        "lat": round(shape.places * spacing_deg, 8),
        "lon": 0.0,
        "radius_m": 20.0,
    }
    centers = {p["name"]: (p["lat"], p["lon"]) for p in places + [relay_place]}
    honest = [f"d{i:03d}" for i in range(shape.honest)]

    def deal() -> dict[str, str]:
        order = rng.sample(honest, len(honest))
        return {dev: f"P{j % shape.places}" for j, dev in enumerate(order)}

    home = deal()
    waypoints: dict[str, list[dict]] = {dev: [] for dev in honest}
    if shape.move_interval:
        for at in range(shape.move_interval, shape.duration, shape.move_interval):
            for dev, place in deal().items():
                lat, lon = _position(rng, centers[place])
                waypoints[dev].append({"at": at, "lat": lat, "lon": lon})

    # Diagnosed devices come one per place in turn, starting at the sniffer's
    # place so the relay carries the first one's pseudonyms to the victims;
    # the undefended ones come last.  Which device of a place is diagnosed
    # depends on the seed, how much work follows does not.
    by_place = {f"P{i}": sorted(d for d in honest if home[d] == f"P{i}") for i in range(shape.places)}
    for devices in by_place.values():
        rng.shuffle(devices)
    diagnosed = [by_place[f"P{i % shape.places}"][i // shape.places] for i in range(shape.diagnoses)]
    n_undefended = round(shape.undefended_share * shape.diagnoses)
    undefended = set(diagnosed[len(diagnosed) - n_undefended :]) if n_undefended else set()

    actors = []
    for dev in honest:
        actor = {
            "name": dev,
            "role": "honest",
            "place": home[dev],
            "actguard": shape.defended and dev not in undefended,
            "position": _position(rng, centers[home[dev]]),
        }
        if waypoints[dev]:
            actor["movement"] = {"waypoints": waypoints[dev]}
        actors.append(actor)
    if shape.relay_pair:
        actors.append({"name": "sniffer", "role": "sniffer", "place": "P0"})
        actors.append({"name": "rebroadcaster", "role": "rebroadcaster", "place": "R"})
    for i in range(shape.victims):
        actors.append(
            {
                "name": f"victim{i}",
                "role": "honest",
                "place": "R",
                "actguard": shape.defended,
                "position": _position(rng, centers["R"]),
            }
        )

    return {
        "name": name,
        "description": f"benchmark crowd {name}, generator seed {seed}",
        "seed": seed,
        "duration": shape.duration,
        "places": places + [relay_place],
        "actors": actors,
        "attack": {"relay_delay": 60, "replay_ttl": 7200},
        "diagnosis_events": [
            {"actor": dev, "at_time": shape.diagnosis_start + i * shape.diagnosis_spacing}
            for i, dev in enumerate(diagnosed)
        ],
    }


def victim_names(config: dict) -> list[str]:
    return [a["name"] for a in config["actors"] if a["name"].startswith("victim")]


def config_sha256(config: dict) -> str:
    """Digest of the config's canonical JSON: equal digests, equal inputs."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
