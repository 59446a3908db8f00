"""Observation runs against the per-sighting reference device, and
event-driven exposure work against the every-tick reference world.

The first property runs small random worlds twice, once as they are and once
with every honest device replaced by ``oracles.PerSightingDevice``, and
compares for every device the canonical report bytes, the expanded
observations, each chunk's match list in order and the contact-row keys.
The reference matches at every poll that brings chunks and logs each match
event at its diagnosis's first match, so the report bytes also compare the
match events a device derives from its finished run with that rule.
Some ticks may be skipped, so a receiver is also handed an unchanged inbox
more than one tick after its last scan.

The second property runs the same random worlds once as they are and once
as ``oracles.EveryTickWorld``, which runs every tick in full and polls the
devices' download log on every tick; the reports and device states must be
identical.

Every reference runs every tick in full, so these properties also check
the repeated ticks of the worlds as they are: ``SPANS`` ends quiet
stretches at each kind of event a repeated span must stop at, and replay
windows of about one tick (``replay_ttl`` 10) and of less (5) are drawn
too.  Random worlds run on 10 s ticks or on 7 s ones, which divide no
drawn bucket, rotation or replay window.

The third property runs random worlds in which one actor is diagnosed twice,
so that two chunks share RPIs, against the per-sighting reference, and
compares for every device each chunk's matches expanded in order, the match
counts, the risk score's bits and the verdicts with their RPIs, and the
match events.

The fourth property runs random worlds with adversaries once as they are and
once with ``oracles.PER_CAPTURE_ADVERSARIES``, the capture database as one
entry per capture and a rebroadcaster that rescans it on every tick; the
reports and the captures must be identical.  Short replay windows and
skipped ticks make runs leave the window while open or after they close.

The fifth property feeds one device and its reference the same inboxes
directly: fresh ones and the same object again, after one or more ticks,
across the device's own rotations (an inbox may carry its own current or
earlier packet) and time buckets, with duplicate packets heard at two
rssi values and with the device moving under an unchanged inbox.  A chunk
holding every stored RPI then matches exactly the sightings inside its
window.  Explicit cases feed the pair the inbox sequences that end an open
inbox span: an inbox of only an own echo or only non-advertisements between
two scans of one inbox, one inbox object across a rotation and after a gap
of more than a tick, and a list changed after its scan.

The sixth property runs random attacked worlds and checks each defended
device's report against its full contact table: the row count it reports
without building the table equals the table's length, and each verdict,
checked from the matched pseudonyms' own runs, equals the naive verifier's
over every row of the table.
"""

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import actguard, gaen, scenario
from relaysim.agents import DownloadedChunk, DownloadLog, HonestDevice
from relaysim.params import SimParams

from oracles import (
    PER_CAPTURE_ADVERSARIES, EveryTickWorld, KeyKeepingLog, PerSightingDevice, capture_entries,
    chunk_matches, delivery, match_counts, naive_verdict, observations, records,
)

METERS_PER_DEGREE = 6371000.0 * 3.141592653589793 / 180.0
PLACES = {"P0": (0.0, 0.0), "P1": (0.01, 0.0)}  # 1.1 km apart, far out of range
JITTER_M = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
TICK = 10
# For a 10 s tick: a bucket shorter than it, one it does not divide, and the default.
BUCKET_SECONDS = st.sampled_from([8, 15, 300])


def _at(place: str, jitter_m: tuple[int, int]) -> list[float]:
    lat, lon = PLACES[place]
    return [lat + jitter_m[0] / METERS_PER_DEGREE, lon + jitter_m[1] / METERS_PER_DEGREE]


@st.composite
def worlds(draw, attacked=st.booleans(), twice=st.just(False)):
    """A scenario config and the tick times to run (the last is never skipped).
    With ``twice``, the first diagnosed actor is diagnosed again, at the same
    tick or later, so two chunks share its RPIs."""
    tick = draw(st.sampled_from([TICK, 7]))
    places = list(PLACES)[: draw(st.integers(1, 2))]
    duration = draw(st.sampled_from([900, 1500]))
    ticks = duration // tick
    place = st.sampled_from(places)
    actors = []
    for i in range(draw(st.integers(3, 6))):
        home = draw(place)
        actor = {
            "name": f"d{i}",
            "role": "honest",
            "place": home,
            "actguard": draw(st.booleans()),
            "position": _at(home, draw(JITTER_M)),
        }
        times = draw(st.lists(st.integers(1, ticks - 1), max_size=2, unique=True))
        if times:
            actor["movement"] = {
                "waypoints": [
                    dict(zip(("lat", "lon"), _at(draw(place), draw(JITTER_M))), at=t * tick)
                    for t in sorted(times)
                ]
            }
        actors.append(actor)
    diagnoses = [
        {"actor": f"d{draw(st.integers(0, len(actors) - 1))}", "at_time": t * tick}
        for t in draw(st.lists(st.integers(0, ticks - 1), min_size=1, max_size=3))
    ]
    if draw(twice):
        again = draw(st.integers(diagnoses[0]["at_time"] // tick, ticks - 1)) * tick
        diagnoses.append({"actor": diagnoses[0]["actor"], "at_time": again})
    config = {
        "name": "runs",
        "seed": draw(st.integers(0, 3)),
        "duration": duration,
        "places": [{"name": p, "lat": PLACES[p][0], "lon": PLACES[p][1]} for p in places],
        "actors": actors,
        "diagnosis_events": diagnoses,
        "params": {
            "rotation_seconds": draw(st.sampled_from([600, 7200])),
            "clock_tolerance_seconds": draw(st.sampled_from([0, 30])),
            "bucket_seconds": draw(BUCKET_SECONDS),
            "tick_seconds": tick,
        },
    }
    if draw(attacked):
        config["actors"] += [
            {"name": "sniffer", "role": "sniffer", "place": places[0]},
            {"name": "rebroadcaster", "role": "rebroadcaster", "place": places[-1]},
        ]
        if draw(st.booleans()):  # a second sniffer sharing the database
            config["actors"].append({"name": "sniffer2", "role": "sniffer", "place": draw(place)})
        config["attack"] = {
            "relay_delay": draw(st.sampled_from([0, 10, 60])),
            "replay_ttl": draw(st.sampled_from([5, 10, 20, 60, 300, 7200])),
        }
    skipped = draw(st.sets(st.integers(1, ticks - 2), max_size=6))
    return config, [t * tick for t in range(ticks) if t not in skipped]


def _run(
    config: dict,
    times: list[int],
    device_class: type = HonestDevice,
    world_class: type = scenario.World,
    adversaries: dict | None = None,
) -> tuple[scenario.World, bytes]:
    """Step the world at ``times``, then finish the run as ``World.run``
    does; returns the world and its report bytes."""
    replaced = {"HonestDevice": device_class, **(adversaries or {})}
    if device_class is PerSightingDevice:  # it indexes each chunk's keys itself
        replaced["DownloadLog"] = KeyKeepingLog
    with mock.patch.dict(vars(scenario), replaced):
        world = world_class(scenario.load_config(config))
    for t in times:
        world.now = t
        world.step()
    return world, world.finish().to_json_bytes()


# d0 is diagnosed twice, so the two chunks carry the same keys and every
# sighting of d0 matches both; the second upload comes after the first
# chunk's matches are scored, and the relay adds sightings far away.
DIAGNOSED_TWICE = (
    {
        "name": "runs",
        "duration": 1500,
        "places": [
            {"name": "P0", "lat": 0.0, "lon": 0.0},
            {"name": "P1", "lat": 0.01, "lon": 0.0},
        ],
        "actors": [
            {"name": "d0", "place": "P0", "actguard": True, "position": _at("P0", (0, 0))},
            {"name": "d1", "place": "P0", "actguard": True, "position": _at("P0", (3, 0))},
            {"name": "d2", "place": "P0", "position": _at("P0", (0, 3))},
            {"name": "d3", "place": "P1", "actguard": True, "position": _at("P1", (0, 0))},
            {"name": "sniffer", "role": "sniffer", "place": "P0"},
            {"name": "rebroadcaster", "role": "rebroadcaster", "place": "P1"},
        ],
        "attack": {"relay_delay": 60, "replay_ttl": 7200},
        "diagnosis_events": [
            {"actor": "d0", "at_time": 300},
            {"actor": "d0", "at_time": 900},
        ],
        "params": {"rotation_seconds": 600, "clock_tolerance_seconds": 30},
    },
    [t for t in range(0, 1500, TICK) if t not in (500, 900, 910)],
)


# Quiet stretches that end at every kind of event a repeated span must not
# cross: the 600 s rotations; the bucket boundary at 900 s, while the
# defended d0 and d1 hear each other, before d1 walks away at 950 s (a
# contact row left for a later tick would never be recorded); d2's waypoint
# into P0; the diagnosis; and sniffer2 walking away, after which its closed
# run leaves the replay window with no run opened in between.  Ticks
# 700-750 are skipped, so the tick at 760 does not follow the last one.
SPANS = (
    {
        "name": "spans",
        "duration": 1500,
        "places": [
            {"name": "P0", "lat": 0.0, "lon": 0.0},
            {"name": "P1", "lat": 0.01, "lon": 0.0},
        ],
        "actors": [
            {"name": "d0", "place": "P0", "actguard": True, "position": _at("P0", (0, 0))},
            {
                "name": "d1", "place": "P0", "actguard": True, "position": _at("P0", (3, 0)),
                "movement": {"waypoints": [dict(zip(("lat", "lon"), _at("P1", (3, 0))), at=950)]},
            },
            {
                "name": "d2", "place": "P1", "position": _at("P1", (0, 3)),
                "movement": {"waypoints": [dict(zip(("lat", "lon"), _at("P0", (0, 3))), at=1050)]},
            },
            {"name": "d3", "place": "P1", "actguard": True, "position": _at("P1", (3, 3))},
            {"name": "d4", "place": "P0", "position": [0.0, 0.005]},
            {"name": "sniffer", "role": "sniffer", "place": "P0"},
            {
                "name": "sniffer2", "role": "sniffer", "place": "P0", "position": [0.0, 0.005],
                "movement": {"waypoints": [{"at": 200, "lat": 0.0, "lon": 0.01}]},
            },
            {"name": "rebroadcaster", "role": "rebroadcaster", "place": "P1"},
        ],
        "attack": {"relay_delay": 60, "replay_ttl": 300},
        "diagnosis_events": [{"actor": "d4", "at_time": 1300}],
        "params": {
            "rotation_seconds": 600, "bucket_seconds": 900, "clock_tolerance_seconds": 30,
        },
    },
    [t for t in range(0, 1500, TICK) if not 700 <= t <= 750],
)


def walk_in(second_diagnosis: bool) -> tuple[dict, list[int]]:
    """No relay: d0 is diagnosed at 300 s and d1 walks up to it at 500 s,
    after the only poll, so d1's match event waits for the next poll that
    brings chunks (d2, whom nobody hears, diagnosed at 900 s) or, with no
    such poll, for the end of the run."""
    diagnoses = [{"actor": "d0", "at_time": 300}]
    if second_diagnosis:
        diagnoses.append({"actor": "d2", "at_time": 900})
    return (
        {
            "name": "walk-in",
            "duration": 1500,
            "places": [
                {"name": "P0", "lat": 0.0, "lon": 0.0},
                {"name": "P1", "lat": 0.01, "lon": 0.0},
            ],
            "actors": [
                {"name": "d0", "place": "P0", "position": _at("P0", (0, 0))},
                {
                    "name": "d1", "place": "P1", "position": _at("P1", (0, 0)),
                    "movement": {
                        "waypoints": [dict(zip(("lat", "lon"), _at("P0", (3, 0))), at=500)]
                    },
                },
                {"name": "d2", "place": "P0", "position": [0.0, 0.005]},
            ],
            "diagnosis_events": diagnoses,
        },
        list(range(0, 1500, TICK)),
    )


def _state(device: HonestDevice) -> tuple:
    return (
        observations(device),
        {d: chunk_matches(device, d) for d in device.downloads.chunks},
        set(records(device.contact_rows())) if device.defended else None,
    )


@settings(max_examples=40, deadline=None)
@example(
    # One place holding the sniffer and the rebroadcaster: every device hears
    # each diagnosed pseudonym directly and relayed, at two rssi values on
    # the same ticks, so scan order interleaves two runs of one RPI.
    world=(
        {
            "name": "runs",
            "duration": 900,
            "places": [{"name": "P0", "lat": 0.0, "lon": 0.0}],
            "actors": [
                {"name": "d0", "place": "P0", "actguard": True, "position": _at("P0", (0, 0))},
                {"name": "d1", "place": "P0", "position": _at("P0", (3, 0))},
                {"name": "d2", "place": "P0", "actguard": True, "position": _at("P0", (0, 3))},
                {"name": "sniffer", "role": "sniffer", "place": "P0"},
                {"name": "rebroadcaster", "role": "rebroadcaster", "place": "P0"},
            ],
            "attack": {"relay_delay": 10, "replay_ttl": 7200},
            "diagnosis_events": [{"actor": "d1", "at_time": 300}],
            "params": {"rotation_seconds": 600, "clock_tolerance_seconds": 30},
        },
        list(range(0, 900, TICK)),
    )
)
@example(world=SPANS)
@example(world=walk_in(second_diagnosis=True))
@example(world=walk_in(second_diagnosis=False))
@given(world=worlds())
def test_worlds_with_runs_equal_per_sighting_worlds(world):
    config, times = world
    runs, report = _run(config, times, HonestDevice)
    reference, expected = _run(config, times, PerSightingDevice)
    assert report == expected
    for name, device in runs.devices.items():
        assert _state(device) == _state(reference.devices[name]), name


@settings(max_examples=40, deadline=None)
@example(world=DIAGNOSED_TWICE)
@given(world=worlds())
def test_event_driven_exposure_equals_every_tick_exposure(world):
    config, times = world
    events, report = _run(config, times)
    reference, expected = _run(config, times, world_class=EveryTickWorld)
    assert report == expected
    for name, device in events.devices.items():
        assert _state(device) == _state(reference.devices[name]), name


def _exposure(world: scenario.World) -> tuple:
    """Per device, each chunk's expanded matches, the match counts, the
    risk score's bits, the alert and each verdict with its RPI; and the
    match events."""
    devices = {}
    for name, device in world.devices.items():
        exposure = device.evaluate_exposure()
        devices[name] = (
            {d: chunk_matches(device, d) for d in device.downloads.chunks},
            match_counts(device),
            exposure.risk_score.hex(),
            exposure.gaen_alert,
            {d: (v.kind, v.rpi) for d, v in exposure.verdicts.items()},
        )
    return devices, [e for e in world.events if e["event"] == "match"]


@settings(max_examples=40, deadline=None)
@example(world=DIAGNOSED_TWICE)
@given(world=worlds(twice=st.just(True)))
def test_chunks_sharing_rpis_match_and_score_as_per_sighting(world):
    config, times = world
    runs, _ = _run(config, times)
    reference, _ = _run(config, times, PerSightingDevice)
    assert _exposure(runs) == _exposure(reference)


OWN_REPLAY = (
    {
        # d0 hears its first pseudonym replayed after rotating at 600 s,
        # after its upload at 300 s, and matches it in its own chunk (the
        # 30 s clock tolerance): only the rows d0 recorded while that
        # pseudonym was its own, with d1, are in the batch.  8 s buckets,
        # shorter than a tick.
        "name": "own-replay",
        "duration": 900,
        "places": [{"name": "P0", "lat": 0.0, "lon": 0.0}],
        "actors": [
            {"name": "d0", "place": "P0", "actguard": True, "position": _at("P0", (0, 0))},
            {"name": "d1", "place": "P0", "actguard": True, "position": _at("P0", (3, 0))},
            {"name": "sniffer", "role": "sniffer", "place": "P0"},
            {"name": "rebroadcaster", "role": "rebroadcaster", "place": "P0"},
        ],
        "attack": {"relay_delay": 60, "replay_ttl": 7200},
        "diagnosis_events": [{"actor": "d0", "at_time": 300}],
        "params": {"rotation_seconds": 600, "clock_tolerance_seconds": 30, "bucket_seconds": 8},
    },
    list(range(0, 900, TICK)),
)


@settings(max_examples=40, deadline=None)
@example(world=OWN_REPLAY)
@given(world=worlds(attacked=st.just(True)))
def test_counted_rows_and_verdicts_equal_the_full_contact_tables(world):
    config, times = world
    runs, _ = _run(config, times)
    params = runs.params
    for device in runs.devices.values():
        if not device.defended:
            continue
        exposure = device.evaluate_exposure()
        table = records(device.contact_rows())
        assert exposure.contact_records == len(table)
        flat = [(lo, hi, *cell, bucket) for lo, hi, cell, bucket in table]
        for d, verdict in exposure.verdicts.items():
            expected = naive_verdict(
                [m.rpi for m in chunk_matches(device, d)],
                flat,
                device.downloads.chunks[d].batch,
                params.neighborhood_cells,
                params.neighborhood_buckets,
            )
            assert (verdict.kind.value, verdict.rpi) == expected


@settings(max_examples=40, deadline=None)
@example(
    # Two sniffers at d0's place and the rebroadcaster with d2 far away: d1
    # walks in and out, so runs close and reopen while others stay open, and
    # a 60 s window with 70 s of skipped ticks lets runs leave it while
    # still open.
    world=(
        {
            "name": "runs",
            "duration": 900,
            "places": [
                {"name": "P0", "lat": 0.0, "lon": 0.0},
                {"name": "P1", "lat": 0.01, "lon": 0.0},
            ],
            "actors": [
                {"name": "d0", "place": "P0", "actguard": True, "position": _at("P0", (0, 0))},
                {
                    "name": "d1", "place": "P1", "position": _at("P1", (0, 0)),
                    "movement": {"waypoints": [
                        dict(zip(("lat", "lon"), _at("P0", (3, 0))), at=200),
                        dict(zip(("lat", "lon"), _at("P1", (0, 0))), at=400),
                    ]},
                },
                {"name": "d2", "place": "P1", "actguard": True, "position": _at("P1", (3, 3))},
                {"name": "sniffer", "role": "sniffer", "place": "P0"},
                {"name": "sniffer2", "role": "sniffer", "place": "P0"},
                {"name": "rebroadcaster", "role": "rebroadcaster", "place": "P1"},
            ],
            "attack": {"relay_delay": 10, "replay_ttl": 60},
            "diagnosis_events": [{"actor": "d0", "at_time": 600}],
            "params": {"rotation_seconds": 600, "clock_tolerance_seconds": 30},
        },
        [t for t in range(0, 900, TICK) if not 250 <= t <= 300],
    )
)
@example(world=SPANS)
@given(world=worlds(attacked=st.just(True)))
def test_capture_runs_equal_per_capture_adversaries(world):
    config, times = world
    runs, report = _run(config, times)
    reference, expected = _run(config, times, adversaries=PER_CAPTURE_ADVERSARIES)
    assert report == expected
    assert capture_entries(runs.database) == reference.database.entries


HERE = (44.63, 10.94)
FAR = (44.70, 10.94)  # another grid cell
# An inbox is (sender, packet source, rssi) triples: a packet source is a
# peer's current packet, the device's own current packet (an echo), the
# packet the device sent when the run began (relayed back later) or bytes
# that are not an advertisement.
SOURCE = st.sampled_from(["p0", "p1", "own", "own_then", "junk"])
SENDER = st.sampled_from(["p0", "p1", "relay"])
DELIVERY = st.tuples(SENDER, SOURCE, st.sampled_from([-50.0, -70.0]))
step = st.tuples(
    st.booleans(),  # hand over the last inbox object again
    st.lists(DELIVERY, max_size=4),  # else this new inbox
    st.sampled_from([1, 1, 2, 3]),  # ticks since the last scan
    st.booleans(),  # move to the other place first
)


@settings(max_examples=150, deadline=None)
@example(
    # The inbox holds the device's own packet (an echo) and a peer's, and is
    # handed over again, one tick apart, across the device's rotation: from
    # then on the old own packet is a sighting like any other.
    steps=[(False, [("relay", "own", -50.0), ("p0", "p0", -50.0)], 1, False)]
    + [(True, [], 1, False)] * 3,
    start=2,
    rotation=600,
    defended=True,
    bucket=300,
)
@given(
    steps=st.lists(step, min_size=1, max_size=40),
    start=st.integers(0, 20),  # ticks before a rotation boundary
    rotation=st.sampled_from([600, 7200]),
    defended=st.booleans(),
    bucket=BUCKET_SECONDS,
)
def test_any_inbox_sequence_stores_what_per_sighting_stores(
    steps, start, rotation, defended, bucket
):
    params = SimParams(rotation_seconds=rotation, bucket_seconds=bucket)
    devices = [
        cls("me", b"me" * 8, HERE, params=params, actguard_enabled=defended,
            downloads=DownloadLog(params))
        for cls in (HonestDevice, PerSightingDevice)
    ]
    peers = {
        n: HonestDevice(n, n.encode() * 8, HERE, params=params, downloads=DownloadLog(params))
        for n in ("p0", "p1")
    }
    now = rotation - start * TICK
    first_packet = devices[0].outgoing_packets(now)[0]
    inbox: tuple = ()
    for again, deliveries, gap, move in steps:
        now += gap * TICK
        own = devices[0].outgoing_packets(now)[0]
        if not again:
            packets = {
                "own": own,
                "own_then": first_packet,
                "junk": b"\x00" * 22,
                **{n: p.outgoing_packets(now)[0] for n, p in peers.items()},
            }
            inbox = tuple(delivery(sender, packets[src], rssi) for sender, src, rssi in deliveries)
        for device in devices:
            if move:
                device.position = FAR if device.position == HERE else HERE
        _receive_alike(devices, inbox, now)
    _store_alike(*devices, now)


def _receive_alike(devices: list, inbox, now: int) -> None:
    """Hand ``inbox`` to a device and its per-sighting reference at ``now``:
    both hold as many sightings of it."""
    assert devices[0].receive(inbox, now) == devices[1].receive(inbox, now)


def _store_alike(device: HonestDevice, reference: PerSightingDevice, now: int) -> None:
    """The device and its reference report and store the same sightings,
    and derive the same contact rows; and a chunk holding, in one window,
    every stored RPI matches exactly the sightings inside the window, open
    spans clipped too."""
    assert device.report(now + TICK) == reference.report(now + TICK)
    expected = observations(reference)
    assert observations(device) == expected
    if device.defended:
        assert set(records(device.contact_rows())) == set(reference.contacts)
        assert actguard.digests(device.contact_rows()) == {
            actguard.contact_hash(*r) for r in reference.contacts
        }
    tek = gaen.Tek(bytes(16), 0)
    cuts = sorted({o.scan_time for o in expected[::3]} | {now + 1})
    device.downloads.chunks[0] = DownloadedChunk(None, now)
    for since, until in combinations(cuts, 2):
        entry = gaen.IndexedRpi(tek, gaen.HmacSha256(gaen.derive_subkeys(tek)[1]), 0, since, until)
        device.downloads.index = {o.rpi: [(0, entry)] for o in expected}
        got = [m.observation for m in chunk_matches(device, 0)]
        assert got == [o for o in expected if since <= o.scan_time < until]


def _device_and_reference(rotation: int = 600) -> list:
    params = SimParams(rotation_seconds=rotation)
    return [
        cls("me", b"me" * 8, HERE, params=params, actguard_enabled=True,
            downloads=DownloadLog(params))
        for cls in (HonestDevice, PerSightingDevice)
    ]


def _peer_delivery(now: int, rssi: float = -50.0):
    params = SimParams()
    peer = HonestDevice("p0", b"p0" * 8, HERE, params=params, downloads=DownloadLog(params))
    return delivery("p0", peer.outgoing_packets(now)[0], rssi)


@pytest.mark.parametrize("middle", ["own", "junk"])
def test_an_inbox_without_sightings_between_two_scans_of_one_inbox(middle):
    # The inbox of only an own echo or of only bytes that are no
    # advertisement opens no span, but it is the last inbox: the inbox
    # handed over again one tick after it opens a new span, and the tick
    # between holds no sighting.
    devices = _device_and_reference()
    inbox = (_peer_delivery(0), _peer_delivery(0, -70.0))
    packet = devices[0].outgoing_packets(20)[0] if middle == "own" else b"\x00" * 22
    between = (delivery("relay", packet, -50.0),) * 2
    for scan, now in ((inbox, 0), (inbox, 10), (between, 20), (inbox, 30), (inbox, 40)):
        _receive_alike(devices, scan, now)
    assert [(first, last) for _, _, first, last in devices[0]._spans] == [(0, 10), (30, 40)]
    _store_alike(*devices, 40)


def test_one_inbox_across_a_rotation():
    # One inbox object, one tick apart, holds a peer's packet and the
    # device's own packet of before its rotation at 600 s: an echo until
    # then, a sighting from then on, in a new span scanned as the new RPI.
    devices = _device_and_reference()
    own_then = devices[0].outgoing_packets(580)[0]
    inbox = (delivery("relay", own_then, -50.0), _peer_delivery(580))
    for now in range(580, 630, TICK):
        _receive_alike(devices, inbox, now)
    assert [(first, last, len(seen)) for seen, _, first, last in devices[0]._spans] == [
        (580, 590, 1), (600, 620, 2)
    ]
    _store_alike(*devices, 620)


def test_one_inbox_after_a_gap_longer_than_a_tick():
    devices = _device_and_reference()
    inbox = (_peer_delivery(0),)
    for now in (0, 10, 30, 40):  # no scan at 20
        _receive_alike(devices, inbox, now)
    assert [(first, last) for _, _, first, last in devices[0]._spans] == [(0, 10), (30, 40)]
    _store_alike(*devices, 40)


def test_a_list_mutated_after_its_scan():
    # A span keeps what the inbox held when it was scanned; handed over
    # again after a gap, the changed list opens a span of what it holds then.
    devices = _device_and_reference()
    inbox = [_peer_delivery(0), delivery("relay", b"\x00" * 22, -50.0)]
    _receive_alike(devices, inbox, 0)
    inbox[:] = [delivery("relay", b"\x00" * 22, -60.0), _peer_delivery(0, -70.0)] * 2
    _receive_alike(devices, (), 10)
    _receive_alike(devices, inbox, 30)
    _store_alike(*devices, 30)
