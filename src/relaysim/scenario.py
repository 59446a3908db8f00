"""Scenario configuration, the tick loop, and machine-readable reports.

A scenario file is JSON: named places, actors with roles, an optional
attack section, scheduled diagnoses, and parameter overrides.  Running one
is fully deterministic: the config seed fixes every key, pseudonym, OTP
code, and therefore the report bytes.

Tick phasing (fixed): every actor's ``outgoing_packets`` (the
rebroadcaster's replay queue is computed here, from earlier captures) ->
radio delivery -> every actor's ``on_deliveries`` in ascending ``phase``
(sniffer captures 0, rebroadcaster relay events 1, honest recording 2),
then name -> scheduled diagnoses -> the world's poll.  A packet captured in
one tick is therefore never back on the air before the next tick, matching
the causal order of a real relay.  The world polls the devices' one
download log only on a tick where the backend published a chunk, while the
chunk is inside its retention window: any other poll would come back
empty.  No tick matches or scores: ``World.finish`` has each actor report
once, and a device's report reads its final match runs once, to score them
and to derive its match events from the ticks of the polls.  The air has
one change signal: a walker that moved, or an actor whose packets are not
the object it sent the tick before.  An actor keeps the same packets object
while it does not change: a device's packet tuple until it rotates, the
rebroadcaster's queue until the replay window changes it.  The radio link
table (who hears whom, at what rssi, the same both ways) is rebuilt only on
a tick where a walker moved, and so is every inbox then: the deliveries an
actor hears, as a read-only tuple of plain tuples, each carrying its
packet's decoding, made once per new packets object.  On a tick where only
packets changed, only the inboxes of actors that hear an actor with new
packets are rebuilt.  A rebuilt inbox that equals the last one by value is
handed out as that inbox again, the same object.  On a tick with neither
signal no station is built, radio delivery is skipped and every actor gets
its last inbox.  A new inbox costs an honest device one inbox span, which
holds the inbox's sighting tuples, and its last inbox one tick later
O(1): the device extends that span and the sniffer its capture runs
instead of storing each sighting or capture anew, and the rebroadcaster
hands out its cached queue.

Such a tick costs O(1) for the whole world: it is repeated, not run.  After
each tick run in full the world takes its horizon, the earliest time at
which a tick might do more than repeat that one: the minimum of every
walker's next waypoint, the next diagnosis (chunks arrive only with
diagnoses) and every actor's ``quiet_until``.  A tick that directly follows
the last one and comes before the horizon only moves the clock.  The next
tick run in full first has every actor, in phase order, ``repeat`` the
spared ticks at once, and so does the end of a run (``World.finish``).  The
horizon is world-wide: on a tick where any actor may have an event, every
actor runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from contextlib import suppress
from functools import cache, partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import radio
from .actguard import CONTACT_HASH_LENGTH
from .agents import (
    DownloadLog,
    HonestDevice,
    MaliciousDatabase,
    RebroadcastAdversary,
    SnifferAdversary,
)
from .backend import BackendError, BackendStore
from .params import AttackSpec, SimParams, as_number

ROLES = ("honest", "sniffer", "rebroadcaster")
# The most ticks a run may have (duration // tick_seconds): World.run steps
# every tick, and ten million idle ones took 1.6 s on a shared 2-vCPU VM.
# That is 115 days of 1 s ticks, far past the 14-day key retention; the
# longest bundled or tested config has 1,500.
MAX_TICKS = 10_000_000


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the offender."""


class RunEndedError(RuntimeError):
    """A world was stepped at a tick after its run's last one or after it
    finished, or finished a second time."""


_as = partial(as_number, error=ConfigError)


def _coordinates(lat, lon, what: str) -> tuple[float, float]:
    """(lat, lon) in degrees, or a ConfigError naming ``what``'s field."""
    angles = (_as(float, lat, f"{what} lat"), _as(float, lon, f"{what} lon"))
    for field, angle, bound in zip(("lat", "lon"), angles, (90, 180)):
        if not -bound <= angle <= bound:
            raise ConfigError(f"{what} {field} must be within [-{bound}, {bound}], got {angle!r}")
    return angles


class Waypoint(NamedTuple):
    at: int
    lat: float
    lon: float


class ActorSpec(NamedTuple):
    name: str
    role: str
    place: str
    actguard: bool = False
    position: tuple[float, float] | None = None
    waypoints: tuple[Waypoint, ...] = ()


class DiagnosisEvent(NamedTuple):
    actor: str
    at_time: int


class ScenarioConfig(NamedTuple):
    name: str
    seed: int
    duration: int
    places: dict[str, tuple[float, float]]  # place name -> its centre (lat, lon)
    actors: list[ActorSpec]
    attack: AttackSpec
    diagnosis_events: list[DiagnosisEvent]
    params: SimParams
    description: str
    raw: dict  # the scenario's JSON values as loaded, for the report


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


def _only(item: dict, keys, owner: str) -> None:
    """A ConfigError naming ``owner`` and each key of ``item`` not in ``keys``."""
    unknown = set(item) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {owner} key(s): {', '.join(sorted(unknown))}")


def _field(item: dict, key: str, owner: str):
    try:
        return item[key]
    except KeyError:
        raise ConfigError(f"{owner} has no {key!r}") from None


def _text(value, what: str) -> str:
    """A JSON string, or a ConfigError naming ``what``."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def load_config(
    source: str | os.PathLike | dict, *, seed_override: int | None = None
) -> ScenarioConfig:
    """Parse and validate a scenario from a file path or an in-memory dict."""
    path = None if isinstance(source, dict) else os.fspath(source)
    try:
        if path is None:  # an in-memory scenario goes through JSON too: a private copy
            data = json.loads(json.dumps(source))
        else:
            with open(path) as file:
                data = json.load(file)
    except RecursionError:
        raise ConfigError("a scenario nested too deeply to parse") from None
    except TypeError as exc:  # json.dumps: a key or value JSON cannot hold, such as a set
        raise ConfigError(f"a scenario must hold only JSON keys and values: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"a scenario must be JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the scenario file: {exc}") from None
    except ValueError as exc:  # an integer too long for int <-> str, or a dict cycle
        raise ConfigError(f"a scenario value cannot be converted: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("a scenario must be a JSON object at its top level")

    _only(data, _TOP_LEVEL_KEYS, "scenario")
    if seed_override is not None:
        data["seed"] = seed_override

    name = _text(data.get("name", "unnamed"), "scenario name")
    seed = _as(int, data.get("seed", 0), "seed")
    try:
        str(seed)  # device seeds and the report write it out in decimal
    except ValueError as exc:
        raise ConfigError(f"seed cannot be written out in decimal: {exc}") from None
    duration = _as(int, data.get("duration", 0), "duration")
    if duration <= 0:
        raise ConfigError("duration must be a positive number of seconds")

    places: dict[str, tuple[float, float]] = {}
    for i, p in enumerate(_objects(data, "places")):
        place_name = _text(_field(p, "name", f"place #{i}"), f"place #{i} name")
        owner = f"place {place_name!r}"
        _only(p, ("name", "lat", "lon", "radius_m"), owner)
        center = _coordinates(_field(p, "lat", owner), _field(p, "lon", owner), owner)
        if _as(float, p.get("radius_m", 20.0), f"{owner} radius_m") <= 0:
            raise ConfigError(f"{owner} needs a positive radius")
        if place_name in places:
            raise ConfigError(f"duplicate place name {place_name!r}")
        places[place_name] = center

    actors: list[ActorSpec] = []
    seen = set()
    for i, a in enumerate(_objects(data, "actors")):
        actor_name = _text(_field(a, "name", f"actor #{i}"), f"actor #{i} name")
        _only(a, _ACTOR_KEYS, f"actor {actor_name!r}")
        if actor_name in seen:
            raise ConfigError(f"duplicate actor name {actor_name!r}")
        seen.add(actor_name)
        role = _text(a.get("role", "honest"), f"actor {actor_name!r} role")
        if role not in ROLES:
            raise ConfigError(f"unknown actor role {role!r} for actor {actor_name!r}")
        place = _text(a.get("place", ""), f"actor {actor_name!r} place")
        if place not in places:
            raise ConfigError(f"actor {actor_name!r} references unknown place {place!r}")
        actguard = a.get("actguard", False)
        if type(actguard) is not bool:
            raise ConfigError(f"actor {actor_name!r}: actguard must be true or false")
        if actguard and role != "honest":
            raise ConfigError(f"actor {actor_name!r}: only honest actors can run the defense")
        position = None
        if "position" in a:
            if not isinstance(a["position"], list) or len(a["position"]) != 2:
                raise ConfigError(f"actor {actor_name!r}: position must be [lat, lon]")
            position = _coordinates(*a["position"], f"actor {actor_name!r} position")
        waypoints: tuple[Waypoint, ...] = ()
        movement = a.get("movement", "stationary")
        if movement != "stationary":
            if not isinstance(movement, dict):
                raise ConfigError(
                    f"actor {actor_name!r}: movement must be \"stationary\" or a waypoints object"
                )
            _only(movement, ("waypoints",), f"actor {actor_name!r} movement")
            where = f"actor {actor_name!r} waypoint"
            wps = []
            for w in _objects(movement, "waypoints", f"actor {actor_name!r}"):
                _only(w, ("at", "lat", "lon"), where)
                wps.append(Waypoint(
                    _as(int, _field(w, "at", where), f"{where} at"),
                    *_coordinates(_field(w, "lat", where), _field(w, "lon", where), where),
                ))
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

    params_data = data.get("params", {})
    if not isinstance(params_data, dict):
        raise ConfigError("params must be an object")
    try:
        params = SimParams(**params_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc
    if duration // params.tick_seconds > MAX_TICKS:
        raise ConfigError(
            f"duration must span at most {MAX_TICKS} ticks of {params.tick_seconds} s,"
            f" got {duration} s"
        )

    # Diagnoses run at the first tick at or after their time; none follows
    # the last tick.
    last_tick = (duration // params.tick_seconds - 1) * params.tick_seconds
    by_name = {a.name: a for a in actors}
    events = []
    for i, e in enumerate(_objects(data, "diagnosis_events")):
        owner = f"diagnosis event #{i}"
        _only(e, ("actor", "at_time"), owner)
        target = _text(_field(e, "actor", owner), f"{owner} actor")
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
    _only(attack_data, AttackSpec._fields, "attack")
    attack = AttackSpec(**attack_data)
    for key, least in (("relay_delay", 0), ("replay_ttl", 1)):
        value = _as(int, getattr(attack, key), f"attack {key}")
        if value < least:
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
        description=_text(data.get("description", ""), "scenario description"),
        raw=data,
    )


def builtin_scenario_names() -> list[str]:
    from importlib import resources

    root = resources.files("relaysim").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str, *, seed_override: int | None = None) -> ScenarioConfig:
    from importlib import resources

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


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))
_JSON_DEFAULT = json.JSONEncoder().default
_JSON_STRING = json.encoder.encode_basestring_ascii


@cache
def _one_line_encoder(depth: int):
    """``json``'s C encoder with ``sort_keys`` and the item separator that
    ``indent=2`` writes between items at ``depth``.  It writes every
    container on one line, so it gets a flat container right but for the
    newlines after its opening and before its closing bracket."""
    return json.encoder.c_make_encoder(
        None, _JSON_DEFAULT, _JSON_STRING, None, ": ", ",\n" + "  " * depth, True, False, True
    )


def _is_flat(values) -> bool:
    """No non-empty container among the values, told from the types of the
    truthy ones: a scalar of a subclass reads as not flat."""
    return set(map(type, filter(None, values))) <= _SCALARS


def _write(o, depth: int, out: list[str]) -> None:
    """Append ``json.dumps(o, sort_keys=True, indent=2)``, as written at
    ``depth``, to ``out``.  Every key is a string: names are validated as
    strings, ``config.raw`` is parsed JSON, and rows, events and audit
    entries have literal keys.

    A scalar or an empty container takes one C encoder call.  So does a
    flat container, with the newlines after its opening and before its
    closing bracket added around its text.  So does a list of flat objects:
    encoded strings never hold a raw newline, so in its one-line text
    ``},<pad>{`` occurs only between two objects (inside one, a separator
    is followed by a key's quote) and can be rewritten.  Any other
    container writes its items one by one."""
    if not (isinstance(o, _CONTAINERS) and o):
        out.append("".join(_one_line_encoder(0)(o, 0)))
        return
    outer = "\n" + "  " * depth
    inner = outer + "  "
    is_dict = isinstance(o, dict)
    if _is_flat(o.values() if is_dict else o):
        text = "".join(_one_line_encoder(depth + 1)(o, 0))
        out.append(text[0] + inner + text[1:-1] + outer + text[-1])
    elif not is_dict and all(o) and set(map(type, o)) == {dict} and _is_flat(
        chain.from_iterable(map(dict.values, o))
    ):
        field = inner + "  "
        text = "".join(_one_line_encoder(depth + 2)(o, 0))[2:-2]
        out.append("[" + inner + "{" + field)
        out.append(text.replace("}," + field + "{", inner + "}," + inner + "{" + field))
        out.append(inner + "}" + outer + "]")
    else:
        separator = inner
        out.append("{" if is_dict else "[")
        for key, value in sorted(o.items()) if is_dict else enumerate(o):
            out.append(separator + _JSON_STRING(key) + ": " if is_dict else separator)
            _write(value, depth + 1, out)
            separator = "," + inner
        out.append(outer + ("}" if is_dict else "]"))


class ScenarioReport:
    """Final run outcome; serializes canonically for byte-exact reruns.

    The report bytes are ``json.dumps(data, sort_keys=True, indent=2)``
    encoded, plus a newline.  ``to_json_bytes`` writes exactly those bytes
    through ``json``'s C encoder, since ``indent`` makes ``json.dumps`` fall
    back to its pure-Python encoder: ``_write`` appends the pieces to one
    list, which is joined and encoded once.  On an interpreter without the
    C encoder it calls ``json.dumps``."""

    def __init__(self, data: dict):
        self.data = data

    def to_json_bytes(self) -> bytes:
        if json.encoder.c_make_encoder is None:
            return json.dumps(self.data, sort_keys=True, indent=2).encode() + b"\n"
        out: list[str] = []
        _write(self.data, 0, out)
        out.append("\n")
        text = "".join(out)
        out.clear()
        return text.encode()

    def to_table(self) -> str:
        rows = [f"{'actor':<10} {'role':<14} {'guard':<6} {'alert':<6} {'risk':>7}  verdicts"]
        for name in sorted(self.data["actors"]):
            a = self.data["actors"][name]
            risk = f"{a['risk_score']:.2f}" if "risk_score" in a else "-"
            verdicts = "; ".join(
                f"#{v['diagnosis_id']}:{v['verdict']}" for v in a.get("verdicts", [])
            )
            rows.append(
                f"{name:<10} {a['role']:<14} {str(a.get('actguard', '-')):<6} "
                f"{str(a.get('gaen_alert', '-')):<6} {risk:>7}  {verdicts or '-'}"
            )
        return "\n".join(rows) + "\n"


def emit_report(report: ScenarioReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return report.to_json_bytes()
    if fmt == "table":
        return report.to_table().encode()
    raise ValueError(f"unknown report format {fmt!r}")


class World:
    """Single-owner state machine, stepped once per tick, that runs in full
    only the ticks on which something may change and repeats the rest.

    ``actors`` holds every actor in name order; the tick loop uses only the
    interface they share.  Diagnoses concern the honest ``devices`` alone,
    which share the world's one ``downloads`` log.  The world polls it once
    per round that published a chunk, so a chunk is fetched and expanded
    once; a ``BackendError`` skips the round and leaves the log as it was.
    It expands a published key only through the last tick ``run`` steps, so
    ``step`` refuses any tick after that one (``RunEndedError``), as
    ``finish`` refuses a second call.  Actor
    state is read only after the actors caught up with the repeated ticks:
    on the next tick run in full, or in ``finish``.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.params = config.params
        self.now = 0
        self.backend = BackendStore(self.params, rng=random.Random(f"relaysim-otp:{config.seed}"))
        self.database = MaliciousDatabase(self.params.tick_seconds)
        self.events: list[dict] = []

        self._final_tick = (config.duration // self.params.tick_seconds - 1) * self.params.tick_seconds
        self.downloads = DownloadLog(self.params, self._final_tick)  # shared by the devices
        specs = sorted(config.actors, key=lambda a: a.name)
        self.actors = [self._new_actor(spec) for spec in specs]
        self.devices = {a.name: a for a in self.actors if isinstance(a, HonestDevice)}
        # [actor, its waypoints as (at, position), how many it has reached]
        self._movers = [
            [a, [(w.at, (w.lat, w.lon)) for w in spec.waypoints], 0]
            for spec, a in zip(specs, self.actors) if spec.waypoints
        ]
        self._by_phase = sorted(self.actors, key=lambda a: a.phase)  # stable: name order within

        self._pending_diagnoses = list(config.diagnosis_events)
        self._chunks_checked = 0  # the backend's chunk count at the last poll
        self._links: radio.LinkTable | None = None  # built on the first delivery
        self._inboxes: radio.Inboxes = {}
        self._sent: dict[str, tuple[bytes, ...]] = {}  # actor name -> packets on air last
        self._frames: dict[str, list] = {}  # actor name -> (packet, frame) of each packet sent
        self._last_tick = -math.inf  # the last tick run or repeated
        self._quiet_until: float = -math.inf  # ticks before it repeat the last one run
        self._repeated_through: int | None = None  # the last tick repeated since then
        self._finished = False

    def _new_actor(self, spec: ActorSpec):
        # A waypoint at or before time 0 is reached on the first tick.
        position = spec.position
        if position is None:
            position = self.config.places[spec.place]
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
            downloads=self.downloads,
        )

    def _log(self, t: int, event: str, **fields) -> None:
        self.events.append({"t": t, "event": event, **fields})

    def _move_actors(self, now: int) -> bool:
        """Move every walker to the last waypoint it has reached by ``now``,
        which never decreases; returns whether one moved.  A walker keeps
        its position object while its position is equal."""
        moved = False
        for mover in self._movers:
            actor, waypoints, reached = mover
            while reached < len(waypoints) and waypoints[reached][0] <= now:
                reached += 1
            if reached != mover[2]:
                mover[2] = reached
                position = waypoints[reached - 1][1]
                if position != actor.position:
                    actor.position = position
                    moved = True
        return moved

    def _on_air(self, now: int, moved: bool) -> radio.Inboxes:
        """This tick's inboxes.  While nothing moved and every actor's
        packets are the object it sent on the last tick, nothing on air
        changed: the last inboxes are handed out again, no station built."""
        packets = [a.outgoing_packets(now) for a in self.actors]
        sent = self._sent
        if moved or any(sent.get(a.name) is not out for a, out in zip(self.actors, packets)):
            actors = zip(self.actors, packets)
            self.deliver([(a.name, a.position, out) for a, out in actors], moved)
        return self._inboxes

    def deliver(self, stations: list[tuple], moved: bool) -> radio.Inboxes:
        """Each receiver's inbox, as ``radio.broadcast_step`` gives it, but of
        plain tuples, with each new packets object decoded once, its frames
        shared by every delivery of its packets.  When a station ``moved``
        (and on the first call) the link table is rebuilt, and so is every
        inbox.  Otherwise only the inboxes of receivers that hear a sender
        whose packets are not the object it sent last time are rebuilt;
        every other receiver keeps its inbox.  A rebuilt inbox that equals
        the last one by value is that inbox again, the same object; an empty
        one is no entry."""
        last_sent, last_frames = self._sent, self._frames
        self._sent = sent = {name: out for name, _, out in stations}
        self._frames = frames = {
            name: last_frames[name] if out is last_sent.get(name)
            else [(packet, radio.decode_advertisement(packet)) for packet in out]
            for name, out in sent.items()
        }
        last = self._inboxes
        if moved or self._links is None:
            self._links = links = receivers = radio.link_table(stations, self.params)
            self._inboxes = inboxes = {}
        else:
            links = self._links
            changed = [name for name, out in sent.items() if out is not last_sent.get(name)]
            receivers = dict.fromkeys(r for name in changed for r, _ in links[name])
            self._inboxes = inboxes = dict(last)
        for receiver in receivers:
            inbox = tuple([
                (sender, packet, rssi, frame)
                for sender, rssi in links[receiver]
                for packet, frame in frames[sender]
            ])
            if not inbox:
                inboxes.pop(receiver, None)
            else:
                inboxes[receiver] = last[receiver] if last.get(receiver) == inbox else inbox
        return inboxes

    def step(self) -> None:
        """Run the tick at ``now``.  A tick that directly follows the last
        one, before the horizon, repeats it: only the clock moves.  A tick
        after the run's last one, past every horizon, raises ``RunEndedError``,
        and so does any tick once the world finished, which leaves no horizon."""
        now, tick = self.now, self.params.tick_seconds
        if now == self._last_tick + tick and now < self._quiet_until:
            self._last_tick = self._repeated_through = now
            self.now += tick
            return
        if self._finished:
            raise RunEndedError("the run has already finished")
        if now > self._final_tick:
            raise RunEndedError(
                f"tick at t={now} comes after the run's last tick at t={self._final_tick}"
            )
        self._catch_up()
        inboxes = self._on_air(now, self._move_actors(now))
        for actor in self._by_phase:
            self.events += actor.on_deliveries(inboxes.get(actor.name, ()), now)

        while self._pending_diagnoses and self._pending_diagnoses[0].at_time <= now:
            event = self._pending_diagnoses.pop(0)
            self._run_diagnosis(event.actor, now)

        if self.backend.chunk_count != self._chunks_checked:
            self._chunks_checked = self.backend.chunk_count
            with suppress(BackendError):  # a transport failure skips the round
                self.downloads.poll(self.backend, now)

        self._last_tick = now
        self._quiet_until = self._horizon(now)
        self.now += tick

    def _horizon(self, now: int) -> float:
        """The earliest time a tick after ``now`` might do more than repeat
        the tick at ``now``: a walker's next waypoint, the next diagnosis
        (chunks come only with diagnoses), an actor's own horizon or the
        tick after the run's last one, which raises."""
        times = [self._final_tick + self.params.tick_seconds]
        times += [a.quiet_until(now) for a in self.actors]
        times += [w[reached][0] for _, w, reached in self._movers if reached < len(w)]
        if self._pending_diagnoses:
            times.append(self._pending_diagnoses[0].at_time)
        return min(times)

    def _catch_up(self) -> None:
        """Have every actor, in phase order, repeat the ticks it was spared."""
        through = self._repeated_through
        if through is not None:
            self._repeated_through = None
            for actor in self._by_phase:
                actor.repeat(through)

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
            # one digest per contact row
            hashes=len(self.backend.fetch_hash_batch(diagnosis_id) or b"") // CONTACT_HASH_LENGTH,
            payload=payload.decode(),
        )

    def finish(self) -> ScenarioReport:
        """End the run: catch the actors up, then have each actor, in name
        order, report its row and log its end-of-run events (a device's
        match events).  Within a tick those come after every other event;
        the sort is stable and the events are in time order.  A second call
        raises ``RunEndedError``: the events are logged once.  No tick
        repeats after it, so ``step`` refuses every later tick."""
        if self._finished:
            raise RunEndedError("the run has already finished")
        self._finished = True
        self._quiet_until = -math.inf
        self._catch_up()
        rows = {}
        for actor in self.actors:
            rows[actor.name], events = actor.report(self.config.duration)
            self.events += events
        self.events.sort(key=itemgetter("t"))
        return ScenarioReport(
            {
                "scenario": self.config.name,
                "seed": self.config.seed,
                "duration": self.config.duration,
                "tick_seconds": self.params.tick_seconds,
                "actors": rows,
                "events": self.events,
                "backend": {
                    "chunks": self.backend.chunk_count,
                    "audit": self.backend.audit,
                },
                "config": self.config.raw,
            }
        )

    def run(self) -> ScenarioReport:
        for _ in range(self.config.duration // self.params.tick_seconds):
            self.step()
        return self.finish()


def run(config: ScenarioConfig) -> ScenarioReport:
    return World(config).run()
