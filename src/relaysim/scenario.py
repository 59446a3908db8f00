"""Scenario configuration, the tick loop, and machine-readable reports.

A scenario file is JSON: named places, actors with roles, an optional
attack section, scheduled diagnoses, and parameter overrides.  Running one
is fully deterministic: the config seed fixes every key, pseudonym, OTP
code, and therefore the report bytes.

Tick phasing (fixed): radio delivery -> adversary capture -> adversary
rebroadcast bookkeeping -> honest recording -> scheduled diagnoses ->
exposure checks.  A packet captured in one tick is therefore never back on
the air before the next tick, matching the causal order of a real relay.
The radio link table (who hears whom, at what rssi) is rebuilt only on a
tick where a station moved, and each actor is handed only the deliveries
addressed to it.
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
from .params import SimParams

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


@dataclass(frozen=True)
class AttackSpec:
    relay_delay: int = 0
    replay_ttl: int = 7200


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
    seed = int(data.get("seed", 0))
    duration = int(data.get("duration", 0))
    if duration <= 0:
        raise ConfigError("duration must be a positive number of seconds")

    places: dict[str, radio.Place] = {}
    for i, p in enumerate(_objects(data, "places")):
        place_name = str(_field(p, "name", f"place #{i}"))
        owner = f"place {place_name!r}"
        place = radio.Place(
            name=place_name,
            lat=float(_field(p, "lat", owner)),
            lon=float(_field(p, "lon", owner)),
            radius_m=float(p.get("radius_m", 20.0)),
        )
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
            if len(a["position"]) != 2:
                raise ConfigError(f"actor {actor_name!r}: position must be [lat, lon]")
            position = (float(a["position"][0]), float(a["position"][1]))
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
                    at=int(_field(w, "at", where)),
                    lat=float(_field(w, "lat", where)),
                    lon=float(_field(w, "lon", where)),
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
        target = str(_field(e, "actor", f"diagnosis event #{i}"))
        at_time = int(_field(e, "at_time", f"diagnosis event #{i}"))
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
    """Single-owner state machine advanced tick by tick."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.params = config.params
        self.now = 0
        self.backend = BackendStore(
            rng=random.Random(f"relaysim-otp:{config.seed}"),
            retention_days=self.params.tek_retention_days,
        )
        self.database = MaliciousDatabase()
        self.events: list[dict] = []

        self.devices: dict[str, HonestDevice] = {}
        self.sniffers: dict[str, SnifferAdversary] = {}
        self.rebroadcasters: dict[str, RebroadcastAdversary] = {}
        self._specs: dict[str, ActorSpec] = {}
        rpi_indexes: dict = {}  # shared by every device of this run
        for spec in sorted(config.actors, key=lambda a: a.name):
            self._specs[spec.name] = spec
            pos = spec.position_at(0, config.places)
            if spec.role == "honest":
                self.devices[spec.name] = HonestDevice(
                    spec.name,
                    _device_seed(config.seed, spec.name),
                    pos,
                    params=self.params,
                    actguard_enabled=spec.actguard,
                    rpi_indexes=rpi_indexes,
                )
            elif spec.role == "sniffer":
                self.sniffers[spec.name] = SnifferAdversary(spec.name, pos, spec.place)
            else:
                self.rebroadcasters[spec.name] = RebroadcastAdversary(
                    spec.name,
                    pos,
                    relay_delay=config.attack.relay_delay,
                    replay_ttl=config.attack.replay_ttl,
                    tx_power_dbm=self.params.tx_power_dbm,
                )

        self._pending_diagnoses = list(config.diagnosis_events)
        self._logged_captures: set[bytes] = set()
        self._logged_relays: dict[str, set[bytes]] = {n: set() for n in self.rebroadcasters}
        self._logged_matches: dict[str, set[int]] = {n: set() for n in self.devices}
        self._link_key: tuple | None = None
        self._links: radio.LinkTable = {}

    def _log(self, t: int, event: str, **fields) -> None:
        self.events.append({"t": t, "event": event, **fields})

    def _move_actors(self, now: int) -> None:
        for name, spec in self._specs.items():
            if not spec.waypoints:
                continue
            pos = spec.position_at(now, self.config.places)
            if name in self.devices:
                self.devices[name].position = pos
            elif name in self.sniffers:
                self.sniffers[name].position = pos
            else:
                self.rebroadcasters[name].position = pos

    def _stations(self, now: int) -> list[radio.Station]:
        stations = []
        for name in sorted(self._specs):
            if name in self.devices:
                dev = self.devices[name]
                dev.ensure_interval(now)
                stations.append(
                    radio.Station(name, dev.position, self.params.tx_power_dbm, dev.outgoing_packets())
                )
            elif name in self.sniffers:
                s = self.sniffers[name]
                stations.append(radio.Station(name, s.position, self.params.tx_power_dbm, ()))
            else:
                r = self.rebroadcasters[name]
                stations.append(
                    radio.Station(
                        name, r.position, r.tx_power_dbm, r.rebroadcast_tick(self.database, now)
                    )
                )
        return stations

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

        for name in sorted(self.sniffers):
            sniffer = self.sniffers[name]
            for packet in sniffer.sniff_tick(by_receiver.get(name, []), self.database, now):
                if packet not in self._logged_captures:
                    self._logged_captures.add(packet)
                    self._log(now, "capture", actor=name, place=sniffer.place_name, packet=packet.hex())

        for name in sorted(self.rebroadcasters):
            adv = self.rebroadcasters[name]
            for packet in adv.replay_queue:
                if packet not in self._logged_relays[name]:
                    self._logged_relays[name].add(packet)
                    self._log(now, "relay", actor=name, packet=packet.hex())

        for name in sorted(self.devices):
            self.devices[name].receive(by_receiver.get(name, []), now)

        while self._pending_diagnoses and self._pending_diagnoses[0].at_time <= now:
            event = self._pending_diagnoses.pop(0)
            self._run_diagnosis(event.actor, now)

        for name in sorted(self.devices):
            device = self.devices[name]
            device.exposure_check(self.backend, now)
            self._log_new_matches(name, now)

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

    def _log_new_matches(self, name: str, now: int) -> None:
        state = self.devices[name].exposure
        for diagnosis_id in sorted(state.matches_by_diagnosis):
            if diagnosis_id not in self._logged_matches[name]:
                self._logged_matches[name].add(diagnosis_id)
                self._log(
                    now,
                    "match",
                    actor=name,
                    diagnosis_id=diagnosis_id,
                    matches=state.matches_by_diagnosis[diagnosis_id],
                )

    def run(self) -> ScenarioReport:
        ticks = self.config.duration // self.params.tick_seconds
        for _ in range(ticks):
            self.step()
        for name in sorted(self.devices):
            self.devices[name].evaluate_exposure()
            self._log_new_matches(name, self.config.duration)
        return self._report()

    def _report(self) -> ScenarioReport:
        actors: dict[str, dict] = {}
        for name, spec in self._specs.items():
            if spec.role == "honest":
                dev = self.devices[name]
                actors[name] = {
                    "role": "honest",
                    "actguard": dev.actguard_enabled,
                    "gaen_alert": dev.exposure.gaen_alert,
                    "risk_score": dev.exposure.risk_score,
                    "observations": len(dev.observations),
                    "contact_records": len(dev.contacts) if dev.contacts is not None else 0,
                    "verdicts": [
                        {
                            "diagnosis_id": d,
                            "verdict": v.kind.value,
                            "rpi": v.rpi.hex(),
                        }
                        for d, v in sorted(dev.exposure.verdicts.items())
                    ],
                }
            elif spec.role == "sniffer":
                actors[name] = {
                    "role": "sniffer",
                    "captures": self.sniffers[name].captures,
                }
            else:
                actors[name] = {
                    "role": "rebroadcaster",
                    "relay_delay": self.rebroadcasters[name].relay_delay,
                    "replay_ttl": self.rebroadcasters[name].replay_ttl,
                }
        return ScenarioReport(
            {
                "scenario": self.config.name,
                "seed": self.config.seed,
                "duration": self.config.duration,
                "tick_seconds": self.params.tick_seconds,
                "actors": actors,
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
