"""Packet codec, range model, path loss, symmetric links, and deterministic
per-receiver delivery."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import radio
from relaysim.params import SimParams

from oracles import law_of_cosines_m, naive_links, offset_north_m

# Frozen 22-byte layout: uuid 0xFD6F little-endian || rpi(16) || aem(4).
GOLDEN_RPI = bytes(range(16))
GOLDEN_AEM = bytes.fromhex("a0a1a2a3")
GOLDEN_PACKET = "6ffd" + GOLDEN_RPI.hex() + GOLDEN_AEM.hex()


class TestCodec:
    def test_golden_encoding(self):
        assert radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM).hex() == GOLDEN_PACKET

    def test_uuid_leads_every_packet(self):
        packet = radio.encode_advertisement(b"\xff" * 16, b"\x00" * 4)
        assert int.from_bytes(packet[:2], "little") == 0xFD6F

    def test_round_trip(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        assert radio.decode_advertisement(packet) == (GOLDEN_RPI, GOLDEN_AEM)

    def test_wrong_field_lengths_rejected(self):
        with pytest.raises(ValueError):
            radio.encode_advertisement(b"\x00" * 15, GOLDEN_AEM)
        with pytest.raises(ValueError):
            radio.encode_advertisement(GOLDEN_RPI, b"\x00" * 5)

    def test_wrong_uuid_is_not_protocol(self):
        packet = (0x1809).to_bytes(2, "little") + GOLDEN_RPI + GOLDEN_AEM
        assert radio.decode_advertisement(packet) is None

    def test_truncated_buffer_is_not_protocol(self):
        assert radio.decode_advertisement(b"\x6f\xfd" + b"\x00" * 8) is None

    def test_oversized_buffer_is_not_protocol(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        assert radio.decode_advertisement(packet + b"\x00") is None

    @given(rpi=st.binary(min_size=16, max_size=16), aem=st.binary(min_size=4, max_size=4))
    def test_codec_bijection(self, rpi, aem):
        packet = radio.encode_advertisement(rpi, aem)
        assert len(packet) == 22
        assert radio.decode_advertisement(packet) == (rpi, aem)


def _station(name, position, packets=()):
    return radio.Station(name=name, position=position, packets=tuple(packets))


def _hears(a, b, params=SimParams()):
    """Whether a station at b hears one at a."""
    links = radio.link_table([_station("a", a), _station("b", b)], params)
    return [receiver for receiver, _ in links["a"]] == ["b"]


class TestRange:
    def test_identical_positions_in_range(self):
        p = (45.0, 11.0)
        assert _hears(p, p)

    def test_nine_meters_in_eleven_out(self):
        origin = (45.0, 11.0)
        near = offset_north_m(origin, 9.0)
        far = offset_north_m(origin, 11.0)
        # sanity-check the constructed offsets with the independent formula
        assert law_of_cosines_m(origin, near) == pytest.approx(9.0, abs=0.01)
        assert law_of_cosines_m(origin, far) == pytest.approx(11.0, abs=0.01)
        assert _hears(origin, near, SimParams(ble_range_m=10.0))
        assert not _hears(origin, far, SimParams(ble_range_m=10.0))

    def test_symmetry(self):
        a = (45.0, 11.0)
        b = offset_north_m(a, 8.0)
        assert _hears(a, b) == _hears(b, a)

    def test_haversine_agrees_with_independent_formula(self):
        a = (44.5, 10.9)
        b = (44.5021, 10.9034)
        assert radio.haversine_m(a, b) == pytest.approx(law_of_cosines_m(a, b), rel=1e-6)


class TestPathLoss:
    def test_reference_values(self):
        assert radio.path_loss_db(1.0, SimParams()) == pytest.approx(40.0)
        assert radio.path_loss_db(10.0, SimParams()) == pytest.approx(60.0)

    def test_clamped_below_min_distance(self):
        assert radio.path_loss_db(0.0, SimParams()) == radio.path_loss_db(0.1, SimParams())

    def test_rssi_monotone_in_distance(self):
        tx = -20
        rssi = [tx - radio.path_loss_db(d, SimParams()) for d in (1.0, 5.0, 10.0)]
        assert rssi[0] > rssi[1] > rssi[2]


def _broadcast(stations):
    return radio.broadcast_step(stations, radio.link_table(stations, SimParams()))


class TestBroadcast:
    def test_single_advertiser_single_scanner(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        stations = [
            _station("adv", (45.0, 11.0), [packet]),
            _station("scan", (45.0, 11.0)),
        ]
        inboxes = _broadcast(stations)
        assert list(inboxes) == ["scan"]
        (delivery,) = inboxes["scan"]
        assert delivery.sender == "adv"
        assert delivery.packet == packet
        assert delivery.frame == (GOLDEN_RPI, GOLDEN_AEM)

    def test_non_protocol_packet_delivered_without_a_frame(self):
        bogus = (0x1809).to_bytes(2, "little") + GOLDEN_RPI + GOLDEN_AEM
        stations = [_station("adv", (45.0, 11.0), [bogus]), _station("scan", (45.0, 11.0))]
        (delivery,) = _broadcast(stations)["scan"]
        assert (delivery.packet, delivery.frame) == (bogus, None)

    def test_no_cross_place_delivery(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        stations = [
            _station("a", (0.0, 0.0), [packet]),
            _station("b", (0.01, 0.0), [packet]),  # ~1.1 km away
        ]
        assert _broadcast(stations) == {}

    def test_delivery_order_deterministic(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        stations = [
            _station("c", (45.0, 11.0), [packet]),
            _station("a", (45.0, 11.0), [packet]),
            _station("b", (45.0, 11.0)),
        ]
        first = _broadcast(stations)
        second = _broadcast(list(reversed(stations)))
        assert first == second
        assert {r: [d.sender for d in inbox] for r, inbox in first.items()} == {
            "a": ["c"], "b": ["a", "c"], "c": ["a"],
        }

    def test_rssi_falls_with_distance(self):
        packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
        origin = (45.0, 11.0)
        rssi_by_distance = []
        for meters in (1.0, 5.0, 9.0):
            stations = [
                _station("tx", origin, [packet]),
                _station("rx", offset_north_m(origin, meters)),
            ]
            (delivery,) = _broadcast(stations)["rx"]
            rssi_by_distance.append(delivery.rssi)
        assert rssi_by_distance[0] > rssi_by_distance[1] > rssi_by_distance[2]


@given(
    lat_a=st.floats(min_value=-80.0, max_value=80.0),
    lon_a=st.floats(min_value=-179.0, max_value=179.0),
    dlat=st.floats(min_value=-0.01, max_value=0.01),
    dlon=st.floats(min_value=-0.01, max_value=0.01),
)
def test_no_delivery_ever_leaks_past_range(lat_a, lon_a, dlat, dlon):
    packet = radio.encode_advertisement(GOLDEN_RPI, GOLDEN_AEM)
    a = (lat_a, lon_a)
    b = (lat_a + dlat, lon_a + dlon)
    inboxes = _broadcast([_station("a", a, [packet]), _station("b", b, [packet])])
    if radio.haversine_m(a, b) > 10.0:
        assert inboxes == {}
    else:
        assert {r: [d.sender for d in inbox] for r, inbox in inboxes.items()} == {
            "a": ["b"], "b": ["a"],
        }


R = radio.EARTH_RADIUS_M
LAT = st.floats(-90.0, 90.0)
LON = st.floats(-180.0, 180.0)
# The extremes SimParams accepts, and ranges a scenario would use.
RANGES = (5e-324, 1e-300, 0.5, 10.0, 37.3, 2e7, 1e308)


@st.composite
def _on_cube_face(draw, side):
    """A point on a face between two of ``link_table``'s grid cubes, which
    have side ``side`` in Earth-centred x, y, z metres."""
    axis = draw(st.sampled_from("xyz"))
    if axis == "z":
        k = draw(st.integers(-int(R // side), int(R // side)))
        return (math.degrees(math.asin(max(-1.0, min(1.0, k * side / R)))), draw(LON))
    lat = draw(st.floats(-89.0, 89.0))
    ring = R * math.cos(math.radians(lat))
    k = draw(st.integers(-int(ring // side), int(ring // side)))
    c = max(-1.0, min(1.0, k * side / ring))
    # The two longitudes at which x (or y) is k * side.
    if axis == "x":
        lon = math.acos(c) * draw(st.sampled_from((1, -1)))
    else:
        lon = draw(st.sampled_from((math.asin(c), math.pi - math.asin(c))))
    return (lat, math.degrees(lon))


def _step(base, kind, r, u, v):
    """A position ``kind`` away from ``base``: u, v times the range (at most
    1e7 m) north and east, u and v metres, or exactly the range along the
    meridian or the parallel.  Latitudes stop at the poles."""
    lat, lon = base
    if kind == "meridian":
        lat += math.copysign(math.degrees(r / R), u)
    elif kind == "parallel":
        # sin(dlon / 2) of the point on the parallel one range away, if any.
        half = math.sin(r / (2 * R)) / math.cos(math.radians(lat))
        if abs(half) <= 1:
            lon += math.copysign(math.degrees(2 * math.asin(half)), v)
    else:
        scale = min(r, 1e7) if kind == "ranges" else 1.0
        lon += math.degrees(v * scale / R) / math.cos(math.radians(lat))
        lat += math.degrees(u * scale / R)
    return (max(-90.0, min(90.0, lat)), lon)


@st.composite
def _grid_case(draw):
    """A range and 2-9 stations: the first near a cube face, a pole or the
    antimeridian, or anywhere; each next one a step from an earlier one."""
    r = draw(st.sampled_from(RANGES) | st.floats(5e-324, 1e308))
    origin = draw(
        _on_cube_face(r + 1.0)
        | st.tuples(st.sampled_from((90.0, -90.0)), LON)
        | st.tuples(LAT, st.sampled_from((180.0, -180.0)))
        | st.tuples(LAT, LON)
    )
    positions = [origin]
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.sampled_from(positions))
        kind = draw(st.sampled_from(("ranges", "metres", "meridian", "parallel")))
        u, v = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        positions.append(_step(base, kind, r, u, v))
    return r, draw(st.permutations(positions))


def _bits(table):
    return {s: [(name, rssi.hex()) for name, rssi in links] for s, links in table.items()}


@settings(max_examples=400)
@given(_grid_case())
@example((5e-324, [(45.0, 11.0), (45.0, 11.0), (45.00001, 11.0)]))
@example((1e-300, [(45.0, 11.0), (45.0, 11.0), (45.0, 11.00000000001)]))
@example((1e-300, [(90.0, 0.0), (90.0, -1.468703640175883e-289)]))
@example((1e308, [(90.0, 0.0), (-90.0, 0.0), (0.0, 180.0), (0.0, -180.0)]))
@example((2e7, [(0.0, 0.0), (0.0, 179.0), (89.9, 30.0), (-45.0, -90.0)]))
@example((10.0, [(90.0, 0.0), (89.99995, 120.0), (89.99995, -60.0), (89.9999, 0.0)]))
@example((10.0, [(10.0, 179.99999), (10.0, -179.99999), (10.0, -179.9999)]))
@example((37.3, [(0.0, 0.0), (math.degrees(37.3 / R), 0.0), (0.0, math.degrees(37.3 / R))]))
def test_grid_link_table_equals_all_pairs(case):
    r, positions = case
    params = SimParams(ble_range_m=r)
    stations = [_station(f"s{i}", p) for i, p in enumerate(positions)][::-1]
    assert _bits(radio.link_table(stations, params)) == _bits(naive_links(stations, params))


@settings(max_examples=200)
@given(_grid_case())
@example((10.0, [(45.0, 11.0), (45.0, 11.00005), (45.00005, 11.0), (44.99995, 10.99995)]))
@example((1e308, [(90.0, 0.0), (-90.0, 0.0), (0.0, 180.0), (0.0, -180.0)]))
def test_every_link_runs_both_ways_with_the_same_rssi_bits(case):
    # ``link_table`` measures each pair once and writes the link both ways;
    # an all-pairs table measures it each way.
    r, positions = case
    params = SimParams(ble_range_m=r)
    stations = [_station(f"s{i}", p) for i, p in enumerate(positions)]
    table = radio.link_table(stations, params)
    links = {(s, name): rssi.hex() for s, heard in table.items() for name, rssi in heard}
    assert links == {(name, s): bits for (s, name), bits in links.items()}
    assert _bits(table) == _bits(naive_links(stations, params))
