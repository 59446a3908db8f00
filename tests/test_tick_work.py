"""A tick on which nothing on air changes costs O(1) per actor, and one on
which nothing can change costs O(1) for the whole world.

For every golden config these tests pin, from outside the package, that:
no station is built (``World.deliver`` is not called) on a tick where no
actor's position or packets changed; every actor is handed its inbox once
on each tick run in full, and a new inbox object only on a tick where its
deliveries differ by value from its last inbox; more than 80 % of the ticks are repeated, calling
no actor method and no ``radio`` function; a walker keeps
its position object while its position is equal, and its waypoint cursor
only moves forward, to the waypoints reached by the tick; the capture
database opens one run per new sniffer inbox
that holds a protocol packet, not one entry per tick (an inbox scanned
again through a catch-up is not new); and the rebroadcaster
recomputes its replay queue only on a tick where the database opened a run
or a run reached an event: its first capture entering the window, the
runs ahead of it catching up with its first capture, or its first or last
capture leaving the window; a run that closed out of a window shorter
than one tick ends the ticks run in full.  A delivery on which nothing
moved reads the links of, and rebuilds the inboxes of, only the receivers
that hear a sender whose packets changed (every other receiver keeps its
inbox object), and the world decodes each packet once per new packets
object put on the air, however many receivers hear it.  A link-table build
converts each station's coordinates once and measures each pair of
stations in neighbouring grid cubes once.  The contact-hash defense runs
no tick in full that the same world without it would repeat.
"""

from collections import Counter
from contextlib import ExitStack
from types import FunctionType
from unittest import mock

import pytest

from relaysim import radio
from relaysim.agents import HonestDevice, RebroadcastAdversary, SnifferAdversary
from relaysim.params import SimParams
from relaysim.scenario import ActorSpec, World, load_config

from golden.gen_reports import REPORTS, golden_config, golden_names
from oracles import EveryTickWorld, capture_entries, naive_deliveries, naive_links


def _recording(owner, attr: str, calls: list):
    """Patch ``owner.attr`` to append its arguments, (self, *args) for a
    method, to ``calls`` first."""
    original = getattr(owner, attr)

    def recorded(self, *args):
        calls.append((self, *args))
        return original(self, *args)

    return mock.patch.object(owner, attr, recorded)


class WatchedWorld(World):
    """Records, for every tick, what every actor had on air and how many
    stations were built and handed to ``deliver``."""

    def __init__(self, config):
        super().__init__(config)
        self.sent: dict[str, tuple] = {}
        self.ticks: list[tuple[list, int]] = []
        self.stations = Counter()
        for actor in self.actors:
            original = actor.outgoing_packets

            def outgoing_packets(now, name=actor.name, original=original):
                self.sent[name] = original(now)
                return self.sent[name]

            actor.outgoing_packets = outgoing_packets

    def deliver(self, stations, moved):
        self.stations["built"] += len(stations)
        return super().deliver(stations, moved)

    def step(self):
        built = self.stations["built"]
        super().step()
        air = [(a.name, a.position, self.sent[a.name]) for a in self.actors]
        self.ticks.append((air, self.stations["built"] - built))


@pytest.mark.parametrize("name", golden_names())
def test_no_station_is_built_while_nothing_on_air_changes(name):
    world = WatchedWorld(golden_config(name))
    world.run()
    quiet = 0
    previous = None
    for air, built in world.ticks:
        if air == previous:
            quiet += 1
            assert built == 0
        else:
            assert built == len(world.actors)
        previous = air
    assert quiet > len(world.ticks) / 2


@pytest.mark.parametrize("name", golden_names())
def test_a_delivery_without_a_move_rebuilds_only_changed_senders_inboxes(name):
    # Counts each ``deliver`` call's reads of the link table, by station.  A
    # call after a move (and the first) builds a table and reads every
    # station's links once, to build its inbox; any other reads the links of
    # each sender whose packets are not the object it sent on the last call,
    # to find who hears it, and of each receiver that hears such a sender,
    # to rebuild its inbox, and of no other station.  Each inbox holds every
    # delivery its receiver hears (it equals ``naive_deliveries``), and it is
    # the last call's object exactly when it was not rebuilt or was rebuilt
    # equal by value.
    world = World(golden_config(name))
    reads: Counter = Counter()

    class CountedLinks(dict):
        def __getitem__(self, station):
            reads[station] += 1
            return dict.__getitem__(self, station)

    calls: list = []  # (stations, moved, link reads, inboxes) per call
    deliver, table = world.deliver, radio.link_table

    def recorded(stations, moved):
        reads.clear()
        inboxes = deliver(stations, moved)
        calls.append((stations, moved, Counter(reads), dict(inboxes)))
        return inboxes

    world.deliver = recorded
    with mock.patch.object(radio, "link_table", lambda *args: CountedLinks(table(*args))):
        world.run()
    last: dict = {}
    last_inboxes: dict = {}
    rebuilt = 0
    for stations, moved, read, inboxes in calls:
        stations = [radio.Station(*s) for s in stations]
        links = naive_links(stations, world.params)
        assert inboxes == naive_deliveries(stations, world.params)
        packets = {s.name: s.packets for s in stations}
        if moved or not last:
            changed, receivers = [], set(packets)
        else:
            changed = [s for s, out in packets.items() if out is not last[s]]
            receivers = {r for s in changed for r, _ in links[s]}
        assert read == Counter(changed) + Counter(receivers)
        for receiver, inbox in inboxes.items():
            kept = receiver not in receivers or inbox == last_inboxes.get(receiver)
            assert (inbox is last_inboxes.get(receiver)) == kept, receiver
            rebuilt += not kept
        last, last_inboxes = packets, inboxes
    assert rebuilt > 0


@pytest.mark.parametrize("name", golden_names())
def test_each_packet_is_decoded_once(name):
    # Per ``deliver`` call, one ``decode_advertisement`` per packet of each
    # packets object not sent on the last call (every one on the first),
    # and no decoding anywhere else.
    world = World(golden_config(name))
    decoded: list = []
    decode = radio.decode_advertisement

    def counted(packet):
        decoded.append(packet)
        return decode(packet)

    calls: list = []  # (stations, packets decoded) per call
    deliver = world.deliver

    def recorded(stations, moved):
        before = len(decoded)
        inboxes = deliver(stations, moved)
        calls.append((stations, len(decoded) - before))
        return inboxes

    world.deliver = recorded
    with mock.patch.object(radio, "decode_advertisement", counted):
        report = world.run()
    assert report.to_json_bytes() == (REPORTS / f"{name}.json").read_bytes()
    last: dict = {}
    expected = 0
    for stations, count in calls:
        new = sum(len(out) for name, _, out in stations if out is not last.get(name))
        assert count == new
        expected += new
        last = {name: out for name, _, out in stations}
    assert len(decoded) == expected > 0


def _handed(world: World) -> dict[str, list]:
    """Run ``world``; each actor's inboxes, as (now, inbox) per tick."""
    handed: dict[str, list] = {a.name: [] for a in world.actors}
    for actor in world.actors:
        original = actor.on_deliveries

        def on_deliveries(inbox, now, calls=handed[actor.name], original=original):
            calls.append((now, inbox))
            return original(inbox, now)

        actor.on_deliveries = on_deliveries
    world.run()
    return handed


@pytest.mark.parametrize("name", golden_names())
def test_a_new_inbox_only_when_its_deliveries_change(name):
    handed = _handed(World(golden_config(name)))
    # The stepped ticks: those on which any actor was handed its inbox.
    stepped = sorted({now for calls in handed.values() for now, _ in calls})
    assert stepped[0] == 0
    for calls in handed.values():
        assert [now for now, _ in calls] == stepped  # once on every stepped tick
        inboxes = [inbox for _, inbox in calls]
        for last, inbox in zip(inboxes, inboxes[1:]):
            assert inbox is last or inbox != last


def _ticks_run_in_full(world: World) -> int:
    return len({now for calls in _handed(world).values() for now, _ in calls})


@pytest.mark.parametrize("name", golden_names())
def test_the_defense_adds_no_tick_run_in_full(name):
    # Contact rows are derived from the runs, so a defended device has no
    # reason to end a quiet span at a time-bucket boundary.
    config = golden_config(name)
    undefended = config._replace(actors=[a._replace(actguard=False) for a in config.actors])
    assert _ticks_run_in_full(World(config)) == _ticks_run_in_full(World(undefended))


@pytest.mark.parametrize("name", golden_names())
def test_a_repeated_tick_calls_no_actor_or_radio_code(name):
    world = World(golden_config(name))
    calls: list = []
    watched = [
        (cls, attr)
        for cls in (HonestDevice, SnifferAdversary, RebroadcastAdversary)
        for attr in ("outgoing_packets", "on_deliveries", "receive", "sniff_tick", "rebroadcast_tick")
        if attr in vars(cls)
    ]
    watched += [
        (radio, attr)
        for attr, value in vars(radio).items()
        if isinstance(value, FunctionType) and value.__module__ == radio.__name__
    ]
    ticks = world.config.duration // world.params.tick_seconds
    repeated = 0
    with ExitStack() as patches:
        for owner, attr in watched:
            patches.enter_context(_recording(owner, attr, calls))
        for _ in range(ticks):
            before = len(calls)
            world.step()
            repeated += len(calls) == before
        report = world.finish()
    assert report.to_json_bytes() == (REPORTS / f"{name}.json").read_bytes()
    assert repeated > 0.8 * ticks


def _position_at(spec: ActorSpec, now: int, places) -> tuple[float, float]:
    """The last waypoint reached by ``now``, else the actor's start."""
    reached = [(w.lat, w.lon) for w in spec.waypoints if w.at <= now]
    if reached:
        return reached[-1]
    return spec.position if spec.position is not None else places[spec.place]


@pytest.mark.parametrize("name", golden_names())
def test_a_walker_keeps_its_position_object_while_it_stays(name):
    world = World(golden_config(name))
    specs = {spec.name: spec for spec in world.config.actors}
    moves = 0
    for _ in range(world.config.duration // world.params.tick_seconds):
        now = world.now
        before = [a.position for a in world.actors]
        cursors = [reached for _, _, reached in world._movers]
        world.step()
        for actor, last in zip(world.actors, before):
            assert actor.position == _position_at(specs[actor.name], now, world.config.places)
            assert (actor.position is last) == (actor.position == last)
            moves += actor.position is not last
        for (_, waypoints, reached), cursor in zip(world._movers, cursors):
            assert cursor <= reached == sum(at <= now for at, _ in waypoints)
    assert (moves > 0) == any(spec.waypoints for spec in world.config.actors)


@pytest.mark.parametrize("name", golden_names())
def test_capture_runs_open_per_new_sniffer_inbox(name):
    world = World(golden_config(name))
    scans: list = []  # (sniffer, inbox, now) per scan, (sniffer, through) per catch-up
    with _recording(SnifferAdversary, "sniff_tick", scans), _recording(
        SnifferAdversary, "repeat", scans
    ):
        world.run()
    tick = world.params.tick_seconds
    new_inboxes = 0
    last: dict = {}
    for sniffer, *call in scans:
        if len(call) == 1:  # the last inbox scanned again on every tick through call[0]
            last[sniffer.name] = (last[sniffer.name][0], call[0])
            continue
        inbox, now = call
        again = sniffer.name in last and last[sniffer.name] == (id(inbox), now - tick)
        heard = any(frame is not None for _, _, _, frame in inbox)
        new_inboxes += heard and not again
        last[sniffer.name] = (id(inbox), now)
    database = world.database
    assert len(database.runs) == new_inboxes
    sniffers = [a for a in world.actors if isinstance(a, SnifferAdversary)]
    captures = sum(database.captures(a.rank) for a in sniffers)
    assert len(capture_entries(database)) == captures
    if captures:
        assert len(database.runs) * 10 < world.config.duration // tick


@pytest.mark.parametrize("name", golden_names())
def test_replay_queue_is_recomputed_only_at_events(name):
    world = World(golden_config(name))
    ticks: list = []
    recomputes: list = []
    database = world.database

    original = RebroadcastAdversary.rebroadcast_tick

    def rebroadcast_tick(self, now):
        ticks.append((self, now, len(database.runs)))
        return original(self, now)

    with (
        mock.patch.object(RebroadcastAdversary, "rebroadcast_tick", rebroadcast_tick),
        _recording(RebroadcastAdversary, "_recompute_queue", recomputes),
    ):
        world.run()
    attack, tick = world.config.attack, world.params.tick_seconds
    events = set()
    for run in database.runs:
        events |= {
            run.first + attack.relay_delay,
            run.first + attack.replay_ttl - tick,
            run.first + attack.replay_ttl,
            run.last + attack.replay_ttl,
        }
    recomputed = {(id(adv), now) for adv, now in recomputes}
    last: dict = {}
    for adv, now, runs in ticks:
        before, opened = last.get(id(adv), (-1, 0))
        if (id(adv), now) in recomputed:
            reached = any(before < t <= now for t in events)
            assert runs != opened or reached, (adv.name, now)
        last[id(adv)] = (now, runs)
    # A few recomputes per run, however many ticks the run lasts.
    rebroadcasters = {id(adv) for adv, _, _ in ticks}
    assert len(recomputes) <= 3 * len(database.runs) * len(rebroadcasters)


# A replay window shorter than one tick: the sniffer's run is out of the
# window whenever the rebroadcaster looks, and it closes at t=600 when ``a``
# walks out of range.  Places X, R and F are 11 km apart.
SHORT_TTL = {
    "name": "short_ttl",
    "duration": 7200,
    "places": [
        {"name": "X", "lat": 0.0, "lon": 0.0},
        {"name": "R", "lat": 0.1, "lon": 0.0},
        {"name": "F", "lat": 0.2, "lon": 0.0},
    ],
    "actors": [
        {
            "name": "a",
            "role": "honest",
            "place": "X",
            "movement": {"waypoints": [{"lat": 0.2, "lon": 0.0, "at": 600}]},
        },
        {"name": "s", "role": "sniffer", "place": "X"},
        {"name": "r", "role": "rebroadcaster", "place": "R"},
        {"name": "v", "role": "honest", "place": "R"},
    ],
    "attack": {"relay_delay": 0, "replay_ttl": 5},
}


def test_a_closed_run_out_of_a_short_window_ends_the_full_ticks():
    config = load_config(SHORT_TTL)
    handed = _handed(World(config))
    stepped = {now for calls in handed.values() for now, _ in calls}
    assert 600 in stepped
    assert not [now for now in stepped if now > 700]
    # Under a 5 s window, a capture one tick old is already out of it: the
    # sniffer's open run can never be replayed, and only the ticks of its
    # opening and of the first recompute after it run in full before t=600.
    assert sorted(now for now in stepped if now < 600) == [0, 10]
    expected = EveryTickWorld(config).run().to_json_bytes()
    assert World(config).run().to_json_bytes() == expected


def _six_places() -> list:
    """6 places 1.1 km apart, 8 stations within 3 m of each place's centre."""
    return [
        radio.Station(f"p{p}s{s}", (45.0 + 0.01 * p + 1e-5 * (s % 3), 11.0 + 1e-5 * (s // 3)))
        for p in range(6)
        for s in range(8)
    ]


def _counted_link_table(stations: list, attrs: tuple[str, ...]) -> tuple[dict, dict]:
    """``link_table(stations)`` and the arguments of each call to ``attrs``."""
    calls: dict[str, list] = {attr: [] for attr in attrs}
    with ExitStack() as patches:
        for attr, recorded in calls.items():
            original = getattr(radio, attr)

            def counted(*args, original=original, recorded=recorded):
                recorded.append(args)
                return original(*args)

            patches.enter_context(mock.patch.object(radio, attr, counted))
        table = radio.link_table(stations, SimParams())
    return table, calls


def test_a_link_table_build_measures_only_neighbouring_stations():
    # A build measures (``_arc_m``) each pair of stations at one place once
    # and no pair across places, 1.1 km apart.
    stations = _six_places()
    station_at = {radio._point(s.position): s.name for s in stations}
    table, calls = _counted_link_table(stations, ("_arc_m",))
    assert table == naive_links(stations, SimParams())
    assert all(len(links) == 7 for links in table.values())
    pairs = [frozenset(station_at[point] for point in args) for args in calls["_arc_m"]]
    assert len(set(pairs)) == len(pairs) == 6 * 28  # no pair twice, none across places


def test_a_link_table_build_converts_each_station_once():
    # ``haversine_m`` converts both of its points on every call; a build
    # converts each station once (``_point``) and measures a pair from the
    # two conversions.
    stations = _six_places()
    table, calls = _counted_link_table(stations, ("_point",))
    assert table == naive_links(stations, SimParams())
    assert sorted(calls["_point"]) == sorted((s.position,) for s in stations)
