"""A world's cached link table and inboxes against the all-pairs fan-out
and against ``radio.broadcast_step``'s, tick by tick, with stations that
keep their packets object, send a copy of it or send new packets, some of
them advertisements.  Each receiver's inbox holds exactly the packets of
the stations in range of it, each delivery with the frame that
``oracles.frame`` parses from its packet."""

import math

from hypothesis import example, given, strategies as st

from relaysim import radio, scenario

from oracles import naive_deliveries

# Offsets within +-12.5 m of a common point on each axis: pairs land on both
# sides of the 10 m range.
OFFSET_M = st.tuples(st.floats(-12.5, 12.5), st.floats(-12.5, 12.5))
# What a station sends on a tick: the very packets object it sent on its
# last tick (before the first, ``()``), a new tuple equal to it, or a new
# tuple of the packets listed: bytes that are no advertisement, or one
# that is (one of two; a wrong UUID is none).
KEEP, COPY = "keep", "copy"
ADVERTISEMENTS = (b"\x6f\xfd" + bytes(range(20)), b"\x6f\xfd" + bytes(20), b"\x09\x18" + bytes(20))


def _position(origin, offset_m):
    dlat = math.degrees(offset_m[0] / 6371000.0)
    dlon = math.degrees(offset_m[1] / 6371000.0) / math.cos(math.radians(origin[0]))
    return (origin[0] + dlat, origin[1] + dlon)


@st.composite
def _runs(draw):
    """Stations' first offsets, then per tick the moves (station index, new
    offset or None to stay) and what every station sends."""
    n = draw(st.integers(2, 8))
    origin = (draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)))
    start = draw(st.lists(OFFSET_M, min_size=n, max_size=n))
    packet = st.binary(min_size=1, max_size=4) | st.sampled_from(ADVERTISEMENTS)
    sends = st.sampled_from((KEEP, COPY)) | st.lists(packet, max_size=2)
    ticks = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, n - 1), st.none() | OFFSET_M), max_size=3),
                st.lists(sends, min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return origin, start, ticks


# Stations around a point 1.1 m from the north pole, some moving over it,
# and on both sides of the antimeridian.
@given(_runs())
@example(
    ((89.99999, 0.0), [(0.0, 0.0), (9.0, 0.0), (-9.0, 3.0)],
     [([(1, (12.0, -4.0))], [[b"a"], [b"b"], []]), ([(0, (-5.0, 5.0)), (2, None)], [[b"a"]] * 3)])
)
# No move after the first tick: a changed sender's receivers alone get new
# inboxes, and a copy of the packets sent last counts as no change.
@example(
    ((45.0, 11.0), [(0.0, 0.0), (0.0, 4.0), (0.0, 8.0), (0.0, -4.0)],
     [([], [[b"a"], [ADVERTISEMENTS[0]], [b"c"], []]), ([], [KEEP, [b"x"], COPY, KEEP]),
      ([], [COPY, KEEP, [ADVERTISEMENTS[2]], [b"d", ADVERTISEMENTS[1]]]), ([], [KEEP] * 4)])
)
@example(
    ((10.0, 179.99999), [(0.0, 0.0), (0.0, 2.0), (0.0, -2.0)],
     [([], [[b"a"], [b"b"], [b"c"]]), ([(1, (0.0, 9.0)), (2, (0.0, -12.0))], [[b"a"]] * 3)])
)
@example(
    ((-10.0, -179.99999), [(0.0, 0.0), (0.0, 2.0), (0.0, -2.0)],
     [([], [[b"a"], [b"b"], [b"c"]]), ([(1, (0.0, 9.0)), (2, (0.0, -12.0))], [[b"a"]] * 3)])
)
def test_cached_fanout_equals_all_pairs(run):
    origin, offsets, ticks = run
    config = scenario.load_config(
        {"name": "fanout", "duration": 10, "places": [], "actors": []}
    )
    world = scenario.World(config)
    names = [f"s{i}" for i in range(len(offsets))]
    offsets = list(offsets)
    previous, previous_inboxes = None, {}
    sent = [()] * len(names)
    for moves, sends in ticks:
        for i, offset in moves:
            offsets[i] = offsets[i] if offset is None else offset
        sent = [
            last if send == KEEP else tuple(list(last)) if send == COPY else tuple(send)
            for last, send in zip(sent, sends)
        ]
        stations = [
            radio.Station(name, _position(origin, offset), pk)
            for name, offset, pk in zip(names, offsets, sent)
        ]
        positions = [s.position for s in stations]
        links = world._links

        inboxes = world.deliver(stations, moved=positions != previous)

        naive = naive_deliveries(stations, config.params)
        assert inboxes == naive
        assert radio.broadcast_step(stations, world._links) == naive
        assert (world._links is not links) == (positions != previous)
        # A receiver is handed its previous inbox again, the same object,
        # exactly while its deliveries equal that inbox by value.
        for name, inbox in inboxes.items():
            last = previous_inboxes.get(name)
            assert (inbox is last) == (inbox == last)
        previous, previous_inboxes = positions, inboxes
