"""Scenario configuration, the tick loop, and machine-readable reports.

A scenario file is JSON: named places, actors with roles, an optional
attack section, scheduled diagnoses, and parameter overrides.  Running one
is fully deterministic: the config seed fixes every key, pseudonym, OTP
code, and therefore the report bytes.

Tick phasing (fixed): every actor's ``outgoing_packets`` (the
rebroadcaster's replay queue is computed here, from earlier captures) ->
radio delivery -> every actor's ``on_deliveries`` in ascending ``phase``
(sniffer captures 0, rebroadcaster relay events 1, honest recording 2),
then name -> scheduled diagnoses -> exposure checks.  A packet captured in
one tick is therefore never back on the air before the next tick, matching
the causal order of a real relay.  The radio link table (who hears whom, at
what rssi) is rebuilt only on a tick where a station moved, and each actor
is handed only the deliveries addressed to it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from . import radio
from .agents import (
    HonestDevice,
    MaliciousDatabase,
    RebroadcastAdversary,
    SnifferAdversary,
)
from .backend import BackendError, BackendStore
from .params import AttackSpec, SimParams

ROLES = ("honest", "sniffer", "rebroadcaster")


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the offender."""


@dataclass(frozen=True)
class Waypoint:
    at: int
    lat: float
    lon: float


@dataclass
class ActorSpec:
    name: str
    role: str
    place: str
    actguard: bool = False
    position: tuple[float, float] | None = None
    waypoints: tuple[Waypoint, ...] = ()

    def position_at(self, now: int, places: dict[str, radio.Place]) -> tuple[float, float]:
        pos = self.position if self.position is not None else places[self.place].center
        for wp in self.waypoints:
            if wp.at <= now:
                pos = (wp.lat, wp.lon)
            else:
                break
        return pos


@dataclass(frozen=True)
class DiagnosisEvent:
    actor: str
    at_time: int


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration: int
    places: dict[str, radio.Place]
    actors: list[ActorSpec]
    attack: AttackSpec
    diagnosis_events: list[DiagnosisEvent]
    params: SimParams
    description: str = ""
    raw: dict = field(default_factory=dict)


_TOP_LEVEL_KEYS = {
    "name",
    "description",
    "seed",
    "duration",
    "places",
    "actors",
    "attack",
    "diagnosis_events",
    "params",
}
_ACTOR_KEYS = {"name", "role", "place", "actguard", "position", "movement"}


def _objects(section: dict, key: str, owner: str = "scenario") -> list[dict]:
    """The list of JSON objects under ``key``, or a ConfigError naming it."""
    items = section.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise ConfigError(f"{owner}: {key} must be a list of objects")
    return items


def _field(item: dict, key: str, owner: str):
    try:
        return item[key]
    except KeyError:
        raise ConfigError(f"{owner} has no {key!r}") from None


def _as(kind: type, value, what: str):
    """``kind(value)`` for ``int`` or ``float``, or a ConfigError naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from None


def load_config(source: str | Path | dict, *, seed_override: int | None = None) -> ScenarioConfig:
    """Parse and validate a scenario from a file path or an in-memory dict."""
    if isinstance(source, dict):
        data = json.loads(json.dumps(source))  # private copy
    else:
        data = json.loads(Path(source).read_text())

    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")
    if seed_override is not None:
        data["seed"] = seed_override

    name = str(data.get("name", "unnamed"))
    seed = _as(int, data.get("seed", 0), "seed")
    duration = _as(int, data.get("duration", 0), "duration")
    if duration <= 0:
        raise ConfigError("duration must be a positive number of seconds")

    places: dict[str, radio.Place] = {}
    for i, p in enumerate(_objects(data, "places")):
        place_name = str(_field(p, "name", f"place #{i}"))
        owner = f"place {place_name!r}"
        try:
            place = radio.Place(
                name=place_name,
                lat=_as(float, _field(p, "lat", owner), f"{owner} lat"),
                lon=_as(float, _field(p, "lon", owner), f"{owner} lon"),
                radius_m=_as(float, p.get("radius_m", 20.0), f"{owner} radius_m"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if place.name in places:
            raise ConfigError(f"duplicate place name {place.name!r}")
        places[place.name] = place

    actors: list[ActorSpec] = []
    seen = set()
    for i, a in enumerate(_objects(data, "actors")):
        unknown = set(a) - _ACTOR_KEYS
        if unknown:
            raise ConfigError(
                f"unknown actor key(s) for {a.get('name', '?')!r}: {', '.join(sorted(unknown))}"
            )
        actor_name = str(_field(a, "name", f"actor #{i}"))
        if actor_name in seen:
            raise ConfigError(f"duplicate actor name {actor_name!r}")
        seen.add(actor_name)
        role = str(a.get("role", "honest"))
        if role not in ROLES:
            raise ConfigError(f"unknown actor role {role!r} for actor {actor_name!r}")
        place = str(a.get("place", ""))
        if place not in places:
            raise ConfigError(f"actor {actor_name!r} references unknown place {place!r}")
        actguard = bool(a.get("actguard", False))
        if actguard and role != "honest":
            raise ConfigError(f"actor {actor_name!r}: only honest actors can run the defense")
        position = None
        if "position" in a:
            if not isinstance(a["position"], list) or len(a["position"]) != 2:
                raise ConfigError(f"actor {actor_name!r}: position must be [lat, lon]")
            lat, lon = a["position"]
            where = f"actor {actor_name!r} position"
            position = (_as(float, lat, f"{where} lat"), _as(float, lon, f"{where} lon"))
        waypoints: tuple[Waypoint, ...] = ()
        movement = a.get("movement", "stationary")
        if movement != "stationary":
            if not isinstance(movement, dict):
                raise ConfigError(
                    f"actor {actor_name!r}: movement must be \"stationary\" or a waypoints object"
                )
            where = f"actor {actor_name!r} waypoint"
            wps = [
                Waypoint(
                    at=_as(int, _field(w, "at", where), f"{where} at"),
                    lat=_as(float, _field(w, "lat", where), f"{where} lat"),
                    lon=_as(float, _field(w, "lon", where), f"{where} lon"),
                )
                for w in _objects(movement, "waypoints", f"actor {actor_name!r}")
            ]
            if any(b.at <= a_.at for a_, b in zip(wps, wps[1:])):
                raise ConfigError(f"actor {actor_name!r}: waypoint times must increase")
            waypoints = tuple(wps)
        actors.append(
            ActorSpec(
                name=actor_name,
                role=role,
                place=place,
                actguard=actguard,
                position=position,
                waypoints=waypoints,
            )
        )

    try:
        params = SimParams.from_dict(data.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc

    # Diagnoses run at the first tick at or after their time; none follows
    # the last tick.
    last_tick = (duration // params.tick_seconds - 1) * params.tick_seconds
    by_name = {a.name: a for a in actors}
    events = []
    for i, e in enumerate(_objects(data, "diagnosis_events")):
        owner = f"diagnosis event #{i}"
        target = str(_field(e, "actor", owner))
        at_time = _as(int, _field(e, "at_time", owner), f"{owner} at_time")
        if target not in by_name:
            raise ConfigError(f"diagnosis event names unknown actor {target!r}")
        if by_name[target].role != "honest":
            raise ConfigError(f"diagnosis target {target!r} is not an honest actor")
        if not 0 <= at_time < duration:
            raise ConfigError(f"diagnosis for {target!r} at t={at_time} is outside the run")
        if at_time > last_tick:
            last = f"at t={last_tick}" if last_tick >= 0 else "(the run has no tick)"
            raise ConfigError(
                f"diagnosis for {target!r} at t={at_time} comes after the last tick"
                f" {last}, so it would never run"
            )
        events.append(DiagnosisEvent(actor=target, at_time=at_time))
    events.sort(key=lambda e: (e.at_time, e.actor))

    attack_data = data.get("attack", {})
    if not isinstance(attack_data, dict):
        raise ConfigError("attack must be an object")
    unknown = set(attack_data) - {f.name for f in fields(AttackSpec)}
    if unknown:
        raise ConfigError(f"unknown attack key(s): {', '.join(sorted(unknown))}")
    attack = AttackSpec(**attack_data)
    for key, least in (("relay_delay", 0), ("replay_ttl", 1)):
        value = getattr(attack, key)
        if type(value) is not int or value < least:
            raise ConfigError(f"attack {key} must be an integer >= {least}, got {value!r}")

    return ScenarioConfig(
        name=name,
        seed=seed,
        duration=duration,
        places=places,
        actors=actors,
        attack=attack,
        diagnosis_events=events,
        params=params,
        description=str(data.get("description", "")),
        raw=data,
    )


def builtin_scenario_names() -> list[str]:
    root = resources.files("relaysim").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str, *, seed_override: int | None = None) -> ScenarioConfig:
    ref = resources.files("relaysim").joinpath("scenarios").joinpath(f"{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"no bundled scenario {name!r}; available: {', '.join(builtin_scenario_names())}"
        ) from None
    return load_config(json.loads(text), seed_override=seed_override)


def _device_seed(scenario_seed: int, actor_name: str) -> bytes:
    return hashlib.sha256(f"relaysim:{scenario_seed}:{actor_name}".encode()).digest()


class ScenarioReport:
    """Final run outcome; serializes canonically for byte-exact reruns."""

    def __init__(self, data: dict):
        self.data = data

    def to_dict(self) -> dict:
        return self.data

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.data, sort_keys=True, indent=2).encode() + b"\n"

    def to_table(self) -> str:
        rows = [f"{'actor':<10} {'role':<14} {'guard':<6} {'alert':<6} {'risk':>7}  verdicts"]
        for name in sorted(self.data["actors"]):
            a = self.data["actors"][name]
            if a["role"] == "honest":
                verdicts = (
                    "; ".join(
                        f"#{v['diagnosis_id']}:{v['verdict']}" for v in a["verdicts"]
                    )
                    or "-"
                )
                rows.append(
                    f"{name:<10} {a['role']:<14} {str(a['actguard']):<6} "
                    f"{str(a['gaen_alert']):<6} {a['risk_score']:>7.2f}  {verdicts}"
                )
            else:
                rows.append(f"{name:<10} {a['role']:<14} {'-':<6} {'-':<6} {'-':>7}  -")
        return "\n".join(rows) + "\n"

    def actor(self, name: str) -> dict:
        return self.data["actors"][name]


def emit_report(report: ScenarioReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return report.to_json_bytes()
    if fmt == "table":
        return report.to_table().encode()
    raise ValueError(f"unknown report format {fmt!r}")


class World:
    """Single-owner state machine advanced tick by tick.

    ``actors`` holds every actor in name order; the tick loop uses only the
    interface they share.  Diagnoses and exposure checks concern the honest
    ``devices`` alone.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.params = config.params
        self.now = 0
        self.backend = BackendStore(self.params, rng=random.Random(f"relaysim-otp:{config.seed}"))
        self.database = MaliciousDatabase()
        self.events: list[dict] = []

        rpi_indexes: dict = {}  # shared by every device of this run
        specs = sorted(config.actors, key=lambda a: a.name)
        self.actors = [self._new_actor(spec, rpi_indexes) for spec in specs]
        self.devices = {a.name: a for a in self.actors if isinstance(a, HonestDevice)}
        self._movers = [(spec, a) for spec, a in zip(specs, self.actors) if spec.waypoints]
        self._by_phase = sorted(self.actors, key=lambda a: a.phase)  # stable: name order within

        self._pending_diagnoses = list(config.diagnosis_events)
        self._link_key: tuple | None = None
        self._links: radio.LinkTable = {}

    def _new_actor(self, spec: ActorSpec, rpi_indexes: dict):
        position = spec.position_at(0, self.config.places)
        if spec.role == "sniffer":
            return SnifferAdversary(spec.name, position, spec.place, self.database)
        if spec.role == "rebroadcaster":
            return RebroadcastAdversary(spec.name, position, self.config.attack, self.database)
        return HonestDevice(
            spec.name,
            _device_seed(self.config.seed, spec.name),
            position,
            params=self.params,
            actguard_enabled=spec.actguard,
            rpi_indexes=rpi_indexes,
        )

    def _log(self, t: int, event: str, **fields) -> None:
        self.events.append({"t": t, "event": event, **fields})

    def _move_actors(self, now: int) -> None:
        for spec, actor in self._movers:
            actor.position = spec.position_at(now, self.config.places)

    def _stations(self, now: int) -> list[radio.Station]:
        tx_power = self.params.tx_power_dbm
        return [
            radio.Station(a.name, a.position, tx_power, a.outgoing_packets(now))
            for a in self.actors
        ]

    def deliver(self, stations: list[radio.Station]) -> dict[str, list[radio.Delivery]]:
        """Deliveries by receiver, in delivery order; the link table is rebuilt
        only when a station's position or power differs from the last call."""
        key = tuple((s.name, s.position, s.tx_power_dbm) for s in stations)
        if key != self._link_key:
            self._links = radio.link_table(stations, self.params)
            self._link_key = key
        by_receiver: dict[str, list[radio.Delivery]] = {}
        for d in radio.broadcast_step(stations, self._links):
            by_receiver.setdefault(d.receiver, []).append(d)
        return by_receiver

    def step(self) -> None:
        now = self.now
        self._move_actors(now)
        by_receiver = self.deliver(self._stations(now))
        for actor in self._by_phase:
            self.events += actor.on_deliveries(by_receiver.get(actor.name, []), now)

        while self._pending_diagnoses and self._pending_diagnoses[0].at_time <= now:
            event = self._pending_diagnoses.pop(0)
            self._run_diagnosis(event.actor, now)

        for device in self.devices.values():
            device.exposure_check(self.backend, now)
            self.events += device.match_events(now)

        self.now += self.params.tick_seconds

    def _run_diagnosis(self, actor: str, now: int) -> None:
        device = self.devices[actor]
        otp = self.backend.authorize_otp(self.params.otp_ttl_seconds, now)
        try:
            diagnosis_id, payload = device.diagnose_and_upload(self.backend, otp.code, now)
        except BackendError as exc:
            self._log(now, "upload_rejected", actor=actor, reason=str(exc))
            return
        self._log(
            now,
            "diagnosis",
            actor=actor,
            diagnosis_id=diagnosis_id,
            teks=len(device.teks),
            hashes=len(device.contacts) if device.contacts is not None else 0,
            payload=payload.decode(),
        )

    def run(self) -> ScenarioReport:
        ticks = self.config.duration // self.params.tick_seconds
        for _ in range(ticks):
            self.step()
        for device in self.devices.values():
            device.evaluate_exposure()
            self.events += device.match_events(self.config.duration)
        return self._report()

    def _report(self) -> ScenarioReport:
        return ScenarioReport(
            {
                "scenario": self.config.name,
                "seed": self.config.seed,
                "duration": self.config.duration,
                "tick_seconds": self.params.tick_seconds,
                "actors": {a.name: a.report_row() for a in self.actors},
                "events": self.events,
                "backend": {
                    "chunks": self.backend.chunk_count,
                    "audit": self.backend.audit,
                },
                "config": self.config.raw,
            }
        )


def run(config: ScenarioConfig) -> ScenarioReport:
    return World(config).run()
