"""Simulated world plumbing: advertisement packets, range, delivery.

Who hears whom is a link table built over a cell-list grid (``link_table``),
keyed by sender; ``receiver_view`` inverts it, so that a receiver's inbox
is built straight from the senders it hears.  ``broadcast_step`` is the
sender-ordered reference fan-out over a table.

The over-the-air record is frozen at 22 bytes: the 16-bit service UUID
0xFD6F little-endian, then 16 bytes of RPI, then 4 bytes of AEM.  Anything
that does not parse to that shape is classified as a non-protocol packet,
never an error.
"""

from __future__ import annotations

import math
from itertools import product
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
    """One radio participant for a single tick: position plus outgoing
    packets.  Every station sends at ``params.tx_power_dbm``."""

    name: str
    position: tuple[float, float]
    packets: tuple[bytes, ...] = ()


class Delivery(NamedTuple):
    """One packet heard by one receiver in one tick."""

    sender: str
    receiver: str
    packet: bytes
    rssi: float


LinkTable = dict[str, tuple[tuple[str, float], ...]]


def link_table(stations: list[Station], params: SimParams) -> LinkTable:
    """For each sender, the (receiver name, rssi) of every station in range,
    in receiver-name order.  rssi = tx_power - path_loss(distance), so a
    table stays valid until a station moves.

    A cell list: stations are bucketed into cubes a metre wider than the
    range by their Earth-centred x, y, z on the ``EARTH_RADIUS_M`` sphere,
    and each sender measures only the 27 cubes around its own.  A chord is
    never longer than its arc, so no station in range is missed, at the
    poles and across the antimeridian too.  Each station's latitude and
    longitude in radians and the cosine of its latitude are worked out once
    per build; a pair takes the same operations as ``haversine_m``, so
    every rssi is the same float as in an all-pairs table.
    """
    ordered = sorted(stations, key=lambda s: s.name)
    names = [s.name for s in ordered]
    reach, tx_power = params.ble_range_m, params.tx_power_dbm
    # The extra metre covers coordinate rounding at Earth radius and keeps cube indices finite.
    scale = EARTH_RADIUS_M / (reach + 1.0)
    points = [_point(s.position) for s in ordered]
    cubes: dict[tuple[int, int, int], list[int]] = {}
    for n, (lat, lon, cos_lat) in enumerate(points):
        x, y, z = cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat)
        home = (math.floor(scale * x), math.floor(scale * y), math.floor(scale * z))
        cubes.setdefault(home, []).append(n)
    table: LinkTable = {}
    for home, members in cubes.items():
        around = product(*(range(a - 1, a + 2) for a in home))
        near = sorted(n for c in around for n in cubes.get(c, ()))
        for n in members:
            sender, origin, links = names[n], points[n], []
            for m in near:
                if names[m] == sender:
                    continue
                distance = _arc_m(origin, points[m])
                if distance > reach:
                    continue
                links.append((names[m], tx_power - path_loss_db(distance, params)))
            table[sender] = tuple(links)
    return table


def receiver_view(table: LinkTable) -> LinkTable:
    """``table`` inverted: for each receiver, the (sender name, rssi) of
    every sender that reaches it, in sender-name order.  A receiver that
    hears nobody has no entry."""
    view: dict[str, list[tuple[str, float]]] = {}
    for sender in sorted(table):
        for receiver, rssi in table[sender]:
            view.setdefault(receiver, []).append((sender, rssi))
    return {receiver: tuple(links) for receiver, links in view.items()}


def broadcast_step(stations: list[Station], links: LinkTable) -> list[Delivery]:
    """Deliver every station's packets along its links: the reference
    fan-out, in sender order.

    Output order is fixed (sender name, then receiver name, then packet
    order) so identical world states always produce identical delivery
    lists.  No interference or loss.  The world does not call it: it builds
    each receiver's inbox from ``receiver_view``, which gives each
    receiver's deliveries in this order.
    """
    deliveries: list[Delivery] = []
    for sender in sorted(stations, key=lambda s: s.name):
        for receiver, rssi in links[sender.name]:
            for packet in sender.packets:
                deliveries.append(Delivery(sender.name, receiver, packet, rssi))
    return deliveries
