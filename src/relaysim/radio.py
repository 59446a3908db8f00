"""Simulated world plumbing: advertisement packets, range, delivery.

Who hears whom is a link table built over a cell-list grid (``link_table``).
A link is the same both ways, so a station's links list both the stations
it reaches and those it hears: the world builds a receiver's inbox straight
from its own links.  ``broadcast_step`` is the sender-ordered reference
fan-out over a table, regrouped into each receiver's inbox.

The world builds stations and deliveries as plain tuples, which every
reader unpacks by position; ``Station`` and ``Delivery`` name their fields.

The over-the-air record is frozen at 22 bytes: the 16-bit service UUID
0xFD6F little-endian, then 16 bytes of RPI, then 4 bytes of AEM.  Anything
that does not parse to that shape is classified as a non-protocol packet,
never an error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .gaen import AEM_LENGTH, RPI_LENGTH
from .params import SimParams

SERVICE_UUID = 0xFD6F
PACKET_LENGTH = 2 + RPI_LENGTH + AEM_LENGTH
_UUID_PREFIX = SERVICE_UUID.to_bytes(2, "little")

EARTH_RADIUS_M = 6371000.0


def encode_advertisement(rpi: bytes, aem: bytes) -> bytes:
    if len(rpi) != RPI_LENGTH:
        raise ValueError(f"rpi must be {RPI_LENGTH} bytes, got {len(rpi)}")
    if len(aem) != AEM_LENGTH:
        raise ValueError(f"aem must be {AEM_LENGTH} bytes, got {len(aem)}")
    return _UUID_PREFIX + rpi + aem


def decode_advertisement(data: bytes) -> tuple[bytes, bytes] | None:
    """Parse a protocol packet; returns None for anything else."""
    if len(data) != PACKET_LENGTH:
        return None
    if data[:2] != _UUID_PREFIX:
        return None
    return data[2 : 2 + RPI_LENGTH], data[2 + RPI_LENGTH :]


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lon) points."""
    return _arc_m(_point(a), _point(b))


def _point(position: tuple[float, float]) -> tuple[float, float, float]:
    """(lat, lon) in radians and the cosine of the latitude."""
    lat, lon = math.radians(position[0]), math.radians(position[1])
    return lat, lon, math.cos(lat)


def _arc_m(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """The haversine formula over two ``_point``s."""
    lat1, lon1, cos1 = a
    lat2, lon2, cos2 = b
    h = math.sin((lat2 - lat1) / 2) ** 2 + cos1 * cos2 * math.sin((lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def path_loss_db(distance_m: float, params: SimParams) -> float:
    """Log-distance loss, clamped below min_path_distance_m to keep log10 sane."""
    d = max(distance_m, params.min_path_distance_m)
    return params.path_loss_ref_db + params.path_loss_per_decade_db * math.log10(d)


class Station(NamedTuple):
    """One radio participant for a tick (the world's is a plain tuple):
    position plus outgoing packets, all sent at ``params.tx_power_dbm``."""

    name: str
    position: tuple[float, float]
    packets: tuple[bytes, ...] = ()


class Delivery(NamedTuple):
    """One packet in a receiver's inbox for one tick (the world's is a plain
    tuple).  ``frame`` is the packet's ``decode_advertisement``: its (rpi,
    aem), or None for a non-protocol packet."""

    sender: str
    packet: bytes
    rssi: float
    frame: tuple[bytes, bytes] | None


LinkTable = dict[str, tuple[tuple[str, float], ...]]
# receiver name -> its deliveries, ``Delivery`` fields in a named or plain tuple
Inboxes = dict[str, tuple[tuple, ...]]


def link_table(stations: list[tuple], params: SimParams) -> LinkTable:
    """For each station, the (name, rssi) of every other station in range,
    in name order.  rssi = tx_power - path_loss(distance), so a table stays
    valid until a station moves.  A link is the same both ways: every
    station sends at ``params.tx_power_dbm``, and ``_arc_m`` gives the same
    float either way round (sin is odd and the product of the cosines
    commutes).  So a station's links are both whom it reaches and whom it
    hears, and each pair is measured once.

    A cell list: stations are bucketed into cubes a metre wider than the
    range by their Earth-centred x, y, z on the ``EARTH_RADIUS_M`` sphere,
    and each station is measured only against the later stations, in name
    order, of the 27 cubes around its own.  A chord is never longer than
    its arc, so no station in range is missed, at the poles and across the
    antimeridian too.  Each station's latitude and longitude in radians and
    the cosine of its latitude are worked out once per build; a pair takes
    the same operations as ``haversine_m``, so every rssi is the same float
    as in an all-pairs table.
    """
    ordered = sorted(stations, key=itemgetter(0))
    names = [name for name, _, _ in ordered]
    reach, tx_power = params.ble_range_m, params.tx_power_dbm
    # The extra metre covers coordinate rounding at Earth radius and keeps cube indices finite.
    scale = EARTH_RADIUS_M / (reach + 1.0)
    points = [_point(position) for _, position, _ in ordered]
    homes = []
    cubes: dict[tuple[int, int, int], list[int]] = {}
    for n, (lat, lon, cos_lat) in enumerate(points):
        x, y, z = cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat)
        home = (math.floor(scale * x), math.floor(scale * y), math.floor(scale * z))
        homes.append(home)
        cubes.setdefault(home, []).append(n)
    around = {  # by cube: the stations in it and the 26 around it
        home: sorted(m for cube in product(*(range(a - 1, a + 2) for a in home))
                     for m in cubes.get(cube, ()))
        for home in cubes
    }
    links: list[list[tuple[str, float]]] = [[] for _ in ordered]
    # Station n's links to the stations before it were added on their turns.
    for n, home in enumerate(homes):
        near, origin, name, own = around[home], points[n], names[n], links[n]
        for m in near[bisect_right(near, n) :]:
            distance = _arc_m(origin, points[m])
            if distance > reach:
                continue
            rssi = tx_power - path_loss_db(distance, params)
            own.append((names[m], rssi))
            links[m].append((name, rssi))
    return {name: tuple(own) for name, own in zip(names, links)}


def broadcast_step(stations: list[Station], links: LinkTable) -> Inboxes:
    """Deliver every station's packets along its links: the reference
    fan-out, in sender order, each packet decoded per delivery.  Returns
    each receiver's inbox: its deliveries in sender-name order, then packet
    order, so identical world states always produce identical inboxes.  A
    receiver that hears nothing has no entry.  No interference or loss.
    The world does not call it: ``World.deliver`` builds the same inboxes
    from each receiver's own links, decoding each packet once.
    """
    inboxes: dict[str, list[Delivery]] = {}
    for sender, _, packets in sorted(stations, key=itemgetter(0)):
        for receiver, rssi in links[sender]:
            for packet in packets:
                delivery = Delivery(sender, packet, rssi, decode_advertisement(packet))
                inboxes.setdefault(receiver, []).append(delivery)
    return {receiver: tuple(inboxes[receiver]) for receiver in sorted(inboxes)}
