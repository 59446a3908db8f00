"""Independent reference implementations the tests check the package against.

Everything here is written from primitives (stdlib hmac/hashlib, textbook
formulas) on purpose: the derivation chain re-implements RFC 5869 by hand,
the matcher is a quadratic
cross-product scan instead of an index, and the distance uses the spherical
law of cosines instead of the haversine form.  The one exception is the
all-pairs link table and fan-out, which keep the package's distance and
path-loss arithmetic so that rssi values compare exactly (the fan-out looks
up each receiver's senders one by one and parses each delivery's packet
itself, with ``frame``), the per-sighting
device, which keeps the package's protocol code and replaces how sightings
are stored, matched and scored with one ``Observation`` and one
``ExposureMatch`` per sighting, matched as of every poll of its download
log that brought chunks and taking each match event at its diagnosis's
first match (the incremental rule a device derives its events from at the
end of a run), the every-tick world, which keeps the package's tick phases
and replaces only when the world polls and that no tick is repeated, and
the per-capture adversaries, which store one entry per capture and rescan
the replay window on every tick.  Every reference
actor is stepped on every tick (``EveryTick``): a world holding one repeats
no tick.  The per-sighting device records each sighting's contact row
with ``actguard.record_contact`` into ``IndexedContactsTable``, a table of
rows with an index by pseudonym, and verifies each match against that
pseudonym's rows, one bucket at a time.

``observations``, ``chunk_matches`` and ``match_counts`` are the
per-sighting views of a device that the tests compare: read from an
``HonestDevice``'s inbox spans and match runs, or straight from a
``PerSightingDevice``'s lists.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac
import math
import struct
from operator import attrgetter
from typing import NamedTuple

from relaysim import actguard, gaen, radio, scenario
from relaysim.agents import DownloadLog, ExposureState, HonestDevice
from relaysim.backend import BackendError

SECONDS_PER_DAY = 86400


def hkdf16(ikm: bytes, info: bytes) -> bytes:
    """RFC 5869 extract-and-expand, SHA-256, empty salt, 16-byte output."""
    prk = hmac.new(b"\x00" * 32, ikm, hashlib.sha256).digest()
    okm = hmac.new(prk, info + b"\x01", hashlib.sha256).digest()
    return okm[:16]


def tek_bytes(seed: bytes, day_index: int) -> bytes:
    return hmac.new(seed, b"SIM-TEK" + struct.pack(">Q", day_index), hashlib.sha256).digest()[:16]


def rpi_bytes(rpik: bytes, interval_index: int) -> bytes:
    msg = b"SIM-RPI" + struct.pack(">I", interval_index)
    return hmac.new(rpik, msg, hashlib.sha256).digest()[:16]


def aem_bytes(aemk: bytes, rpi: bytes, tx_power: int) -> bytes:
    ks = hmac.new(aemk, b"SIM-AEM" + rpi, hashlib.sha256).digest()[:4]
    return bytes(p ^ k for p, k in zip(struct.pack(">i", tx_power), ks))


def brute_force_matches(diagnosis_teks, observations, clock_tolerance, rotation_seconds):
    """Cross-compare every expanded pseudonym with every observation.

    Returns the match set as (tek bytes, day index, observation) triples;
    derivations are recomputed here from primitives.
    """
    matched = set()
    for tek in diagnosis_teks:
        rpik = hkdf16(tek.bytes, b"SIM-RPIK")
        for interval in range(SECONDS_PER_DAY // rotation_seconds):
            rpi = rpi_bytes(rpik, interval)
            start = tek.day_index * SECONDS_PER_DAY + interval * rotation_seconds
            end = start + rotation_seconds
            for obs in observations:
                if obs.rpi != rpi:
                    continue
                if start - clock_tolerance <= obs.scan_time < end + clock_tolerance:
                    matched.add((tek.bytes, tek.day_index, obs))
    return matched


def law_of_cosines_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance via the spherical law of cosines."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    c = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return 6371000.0 * math.acos(min(1.0, max(-1.0, c)))


def offset_north_m(point: tuple[float, float], meters: float) -> tuple[float, float]:
    """Move a point north by a given arc length."""
    dlat = math.degrees(meters / 6371000.0)
    return (point[0] + dlat, point[1])


def aem_tx_power(aemk: bytes, rpi: bytes, aem: bytes) -> int:
    """Decrypt an AEM's transmit power by XOR with the same keystream."""
    ks = hmac.new(aemk, b"SIM-AEM" + rpi, hashlib.sha256).digest()[:4]
    return struct.unpack(">i", bytes(c ^ k for c, k in zip(aem, ks)))[0]


def naive_verdict(match_rpis, records, batch, neighborhood_cells, neighborhood_buckets):
    """Verify every match against every contact record, one match at a time.

    ``records`` are (rpi_low, rpi_high, cell_lat, cell_lon, bucket) tuples.
    Returns (verdict name, rpi): the first match whose records' digest
    neighborhood meets the batch confirms; otherwise the first match's
    verdict stands.  No batch at all is Unverifiable.
    """

    def verdict(rpi):
        if not batch:
            return "Unverifiable"
        for lo, hi, lat, lon, bucket in records:
            if rpi not in (lo, hi):
                continue
            for dlat in range(-neighborhood_cells, neighborhood_cells + 1):
                for dlon in range(-neighborhood_cells, neighborhood_cells + 1):
                    for db in range(-neighborhood_buckets, neighborhood_buckets + 1):
                        quantized = struct.pack(">qqq", lat + dlat, lon + dlon, bucket + db)
                        if hashlib.sha256(lo + hi + quantized).digest() in batch:
                            return "ConfirmedContact"
        return "RelaySuspected"

    first = None
    for rpi in match_rpis:
        kind = verdict(rpi)
        if kind == "ConfirmedContact":
            return kind, rpi
        if first is None:
            first = (kind, rpi)
    return first


class IndexedContactsTable(dict):
    """Contact rows ``(lo, hi, cell, bucket)`` as dict keys, in insertion
    order, also indexed by pseudonym: ``records_for`` gives the rows
    holding an RPI at either end, in insertion order."""

    def __init__(self):
        super().__init__()
        self._by_rpi = {}

    def add(self, row):
        if row not in self:
            self[row] = None
            self._by_rpi.setdefault(row[0], []).append(row)
            self._by_rpi.setdefault(row[1], []).append(row)

    @property
    def records(self):
        return list(self)

    def records_for(self, rpi):
        return self._by_rpi.get(rpi, ())


def spans(records):
    """Contact rows as ``verify_exposure`` reads them, one bucket a range."""
    return [(lo, hi, cell, range(bucket, bucket + 1)) for lo, hi, cell, bucket in records]


def records(rows):
    """Contact spans expanded to one row per bucket, in order: the inverse
    of ``spans``."""
    return [(lo, hi, cell, bucket) for lo, hi, cell, buckets in rows for bucket in buckets]


def naive_links(stations, params):
    """Measure every sender/receiver pair, with no grid: each sender's
    (receiver name, rssi) links in receiver-name order."""
    from relaysim.radio import haversine_m, path_loss_db

    ordered = sorted(stations, key=lambda s: s.name)
    table = {}
    for sender in ordered:
        links = []
        for receiver in ordered:
            if receiver.name == sender.name:
                continue
            distance = haversine_m(sender.position, receiver.position)
            if distance > params.ble_range_m:
                continue
            links.append((receiver.name, params.tx_power_dbm - path_loss_db(distance, params)))
        table[sender.name] = tuple(links)
    return table


def frame(packet):
    """A packet's (rpi, aem) if it has the frozen 22-byte layout, the 0xFD6F
    service UUID little-endian first, else None."""
    if len(packet) == 22 and packet[:2] == b"\x6f\xfd":
        return packet[2:18], packet[18:]
    return None


def delivery(sender, packet, rssi):
    """One inbox entry for ``packet``, parsed here."""
    return radio.Delivery(sender, packet, rssi, frame(packet))


def naive_deliveries(stations, params):
    """Every receiver's inbox from links measured afresh for every pair
    (``naive_links``), looked up sender by sender: each packet of each
    sender that reaches it, in sender then packet order, each packet parsed
    per delivery.  A receiver that hears nothing has no inbox."""
    links = naive_links(stations, params)
    ordered = sorted(stations, key=lambda s: s.name)
    inboxes = {}
    for receiver in ordered:
        inbox = tuple(
            delivery(sender.name, packet, rssi)
            for sender in ordered
            for name, rssi in links[sender.name]
            if name == receiver.name
            for packet in sender.packets
        )
        if inbox:
            inboxes[receiver.name] = inbox
    return inboxes


def naive_replay_queue(captures, now, relay_delay, replay_ttl):
    """Scan every capture: the distinct packets captured inside the replay
    window (now - replay_ttl, now - relay_delay], in first-capture order.

    ``captures`` are (packet, capture_time) pairs in capture order.
    """
    window = [p for p, t in captures if now - replay_ttl < t <= now - relay_delay]
    return tuple(dict.fromkeys(window))


def risk_score(matches, params):
    """Score matches one sighting at a time: group them by RPI in order of
    first appearance, sort each group stably by scan time, split it into
    episodes at gaps over two ticks and add up each close episode's minutes."""
    tick = params.tick_seconds
    by_rpi = {}
    for m in matches:
        by_rpi.setdefault(m.rpi, []).append(m)
    score = 0.0
    for group in by_rpi.values():
        ordered = sorted(group, key=lambda m: m.observation.scan_time)
        episodes = [[ordered[0]]]
        for m in ordered[1:]:
            if m.observation.scan_time - episodes[-1][-1].observation.scan_time > 2 * tick:
                episodes.append([m])
            else:
                episodes[-1].append(m)
        for ep in episodes:
            minutes = (ep[-1].observation.scan_time - ep[0].observation.scan_time + tick) / 60.0
            attenuation = sum(m.tx_power_dbm - m.observation.rssi for m in ep) / len(ep)
            if attenuation <= params.attenuation_threshold_db:
                score += minutes
    return gaen.RiskResult(score=score, alert=score >= params.alert_threshold_minutes)


class EveryTick:
    """A reference actor is never quiet: the world runs every tick in full
    while one takes part, so no actor repeats a tick."""

    def quiet_until(self, now):
        return now

    def repeat(self, through):
        raise AssertionError(f"{self.name} is a reference actor and never repeats a tick")


class KeyKeepingLog(DownloadLog):
    """The package's download log, which also keeps the keys of each chunk
    a poll brought (``teks``, by diagnosis id), as the backend served them,
    for a ``PerSightingDevice`` to index itself."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.teks: dict = {}

    def poll(self, backend, now):
        since = next(reversed(self.chunks), 0)
        new = super().poll(backend, now)
        self.teks.update((c.index, c.teks) for c in backend.fetch_chunks(since, now))
        return new


class PerSightingDevice(EveryTick, HonestDevice):
    """The honest device storing one ``Observation`` per sighting, in
    receive order, with each RPI's list positions, and one ``ExposureMatch``
    list per chunk, matched against an RPI index of the chunk's keys that
    it builds itself (its ``KeyKeepingLog`` keeps them); a chunk's cursor
    counts the observations it was matched against.  A defended one
    records each sighting's contact row as it receives it, into a table it
    keeps (``contacts``), and its ``contact_rows`` are that table's rows,
    one bucket a range.  Key schedule, the download log and verification
    are the package's; what a match pass scans and builds, how matches are
    scored and when matching runs are replaced.

    Match events follow the incremental rule: every poll that brings
    chunks matches the new sightings against every chunk, and a
    diagnosis's event is (t, count) of the first such poll at which it has
    matches; ``report(end)`` adds, at ``end``, the diagnoses first matched
    by a last pass at the end of the run.  The world polls the log, after
    the device's turn in the tick; the device catches up with it at its
    next turn or report, before anything else, so its sightings are those
    of the poll's tick, and matches at that chunk's ``at``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stored: list = []
        self.positions_by_rpi: dict = {}
        self.indexes: dict = {}  # diagnosis id -> the chunk's RPI index
        self.matches: dict = {}  # diagnosis id -> ExposureMatch list
        self.cursors: dict = {}  # diagnosis id -> observations matched against
        self.first_matched: dict = {}  # diagnosis id -> (t, matches) at its first match
        self.contacts = IndexedContactsTable() if self.defended else None

    def contact_rows(self):
        return spans(self.contacts)

    def on_deliveries(self, deliveries, now):
        self._catch_up_downloads()
        return super().on_deliveries(deliveries, now)

    def receive(self, deliveries, now):
        self.ensure_interval(now)
        own = self.current_rpi.bytes
        before = len(self.stored)
        for _, _, rssi, parsed in deliveries:
            if parsed is None:
                continue
            rpi, aem = parsed
            if rpi == own:
                continue
            self.positions_by_rpi.setdefault(rpi, []).append(len(self.stored))
            self.stored.append(gaen.Observation(rpi, aem, rssi, now))
            if self.contacts is not None:
                actguard.record_contact(self.contacts, own, rpi, self.position, now, self.params)
        return len(self.stored) - before

    def _catch_up_downloads(self):
        """Match as of the poll that brought the chunks new to this device.
        The device has a turn between any two polls, so one poll did."""
        chunks = self.downloads.chunks
        new_ids = [d for d in chunks if d not in self.indexes]
        for d in new_ids:
            teks = [gaen.Tek(b, day) for b, day in self.downloads.teks[d]]
            self.indexes[d] = gaen.build_rpi_index(teks, self.params)
        polls = {chunks[d].at for d in new_ids}
        assert len(polls) <= 1, f"{self.name} missed a poll: {sorted(polls)}"
        for at in polls:
            self._match_new_sightings(at)

    def evaluate_exposure(self):
        self._match_new_sightings(None)
        return self._score()


    def _match_new_sightings(self, now):
        """Match the sightings stored since each chunk's last pass and, at
        ``now`` unless it is None, record the first match of each chunk."""
        stored = len(self.stored)
        for diagnosis_id, index in self.indexes.items():
            cursor = self.cursors.get(diagnosis_id, 0)
            if cursor < stored:
                new = gaen.match_indexed(index, self._observations_in(index, cursor), self.params)
                self.cursors[diagnosis_id] = stored
                self.matches.setdefault(diagnosis_id, []).extend(new)
            matches = self.matches.get(diagnosis_id)
            if now is not None and matches:
                self.first_matched.setdefault(diagnosis_id, (now, len(matches)))

    def _observations_in(self, index, start):
        """Observations from list position ``start`` on whose RPI
        ``index`` holds, in list order."""
        positions = []
        for rpi in self.positions_by_rpi.keys() & index.keys():
            positions += [i for i in self.positions_by_rpi[rpi] if i >= start]
        positions.sort()
        return [self.stored[i] for i in positions]

    def _score(self):
        all_matches, verdicts = [], {}
        for diagnosis_id in sorted(self.downloads.chunks):
            matches = self.matches.get(diagnosis_id)
            if not matches:
                continue
            all_matches += matches
            if self.contacts is not None:
                verdicts[diagnosis_id] = self._per_match_verdict(diagnosis_id, matches)
        risk = risk_score(all_matches, self.params)
        return ExposureState(
            gaen_alert=risk.alert,
            risk_score=risk.score,
            verdicts=verdicts,
            contact_records=len(self.contacts) if self.contacts is not None else 0,
        )

    def _per_match_verdict(self, diagnosis_id, matches):
        """Verify the matches in order, each RPI once: the first
        confirmation wins, else the first match's verdict stands."""
        batch = self.downloads.chunks[diagnosis_id].batch
        first_by_rpi = {}
        for match in matches:
            first_by_rpi.setdefault(match.rpi, match)
        first = None
        for match in first_by_rpi.values():
            verdict = actguard.verify_exposure(
                match,
                spans(self.contacts.records_for(match.rpi)),
                batch,
                diagnosis_id=diagnosis_id,
                params=self.params,
            )
            if verdict.kind is actguard.VerdictKind.CONFIRMED_CONTACT:
                return verdict
            if first is None:
                first = verdict
        return first

    def report(self, end):
        self._catch_up_downloads()
        self._match_new_sightings(end)
        row, _ = super().report(end)
        firsts = sorted((t, d, n) for d, (t, n) in self.first_matched.items())
        events = [
            {"t": t, "event": "match", "actor": self.name, "diagnosis_id": d, "matches": n}
            for t, d, n in firsts
        ]
        return row | {"observations": len(self.stored)}, events


def sightings(device):
    """(rpi, aem, rssi, first, last) of each sighting an ``HonestDevice``'s
    inbox spans hold, span by span in opening order, each in inbox order."""
    return [
        (*parsed, rssi, first, last)
        for seen, _, first, last in device._spans
        for _, _, rssi, parsed in seen
    ]


def observations(device):
    """Every sighting a device stored, one ``Observation`` per scan:
    ordered by scan time, then by sighting order for an ``HonestDevice``,
    in storing order for a ``PerSightingDevice``."""
    if isinstance(device, PerSightingDevice):
        return list(device.stored)
    tick = device.params.tick_seconds
    seen = sightings(device)
    scans = sorted(
        (t, i) for i, (*_, first, last) in enumerate(seen) for t in range(first, last + 1, tick)
    )
    return [gaen.Observation(*seen[i][:3], t) for t, i in scans]


def chunk_matches(device, diagnosis_id):
    """A chunk's matches, one ``ExposureMatch`` per matched sighting: in
    (scan time, run, entry) order from an ``HonestDevice``'s match runs, in
    matching order for a ``PerSightingDevice``."""
    if isinstance(device, PerSightingDevice):
        return list(device.matches.get(diagnosis_id, ()))
    matched = device._matched().get(diagnosis_id, [])
    sightings = sorted((t, k, match) for k, match in enumerate(matched) for t in match[0])
    return [
        gaen.ExposureMatch(
            entry.tek, rpi, entry.interval_index, tx, gaen.Observation(rpi, aem, rssi, t)
        )
        for t, _, (_, entry, tx, (_, _, rssi, (rpi, aem))) in sightings
    ]


def match_counts(device):
    """How many sightings each matched diagnosis matched, by diagnosis id."""
    counts = {d: len(chunk_matches(device, d)) for d in device.downloads.chunks}
    return {d: n for d, n in counts.items() if n}


class EveryTickWorld(scenario.World):
    """The tick loop as it was before polling became event-driven and quiet
    ticks were repeated: every tick runs in full, and the world polls the
    backend on every tick.  ``World.finish`` ends the run."""

    def step(self):
        now = self.now
        inboxes = self._on_air(now, self._move_actors(now))
        for actor in self._by_phase:
            self.events += actor.on_deliveries(inboxes.get(actor.name, ()), now)
        while self._pending_diagnoses and self._pending_diagnoses[0].at_time <= now:
            self._run_diagnosis(self._pending_diagnoses.pop(0).actor, now)
        self.downloads.poll(self.backend, now)
        self.now += self.params.tick_seconds


class BackendUnavailable(BackendError):
    """Transient transport failure; the caller should retry later."""


class DatabaseEntry(NamedTuple):
    packet: bytes
    capture_time: int


def capture_entries(database) -> list[DatabaseEntry]:
    """Every capture of a ``MaliciousDatabase``'s runs, one entry each, in
    capture order."""
    captures = [
        ((t, run.rank, run.seq, i), packet)
        for run in database.runs
        for t in range(run.first, run.last + 1, database.tick_seconds)
        for i, packet in enumerate(run.packets)
    ]
    captures.sort()
    return [DatabaseEntry(packet, key[0]) for key, packet in captures]


class PerCaptureDatabase:
    """The capture database as one entry per capture, in capture order, with
    each distinct packet's entry indexes."""

    def __init__(self, tick_seconds):
        self.entries: list[DatabaseEntry] = []
        self.positions: dict[bytes, list[int]] = {}

    def append(self, packet, capture_time):
        if self.entries and capture_time < self.entries[-1].capture_time:
            raise ValueError(f"capture at t={capture_time} precedes the last one")
        positions = self.positions.setdefault(packet, [])
        positions.append(len(self.entries))
        self.entries.append(DatabaseEntry(packet, capture_time))
        return len(positions) == 1

    def __len__(self):
        return len(self.entries)


class PerCaptureSniffer(EveryTick):
    """Appends every protocol packet of every inbox, on every tick."""

    phase = 0

    def __init__(self, name, position, place_name, database):
        self.name = name
        self.position = position
        self.place_name = place_name
        self.database = database
        self.captures = 0

    def outgoing_packets(self, now):
        return ()

    def on_deliveries(self, deliveries, now):
        events = []
        for _, packet, _, parsed in deliveries:
            if parsed is None:
                continue
            self.captures += 1
            if self.database.append(packet, now):
                events.append(
                    {"t": now, "event": "capture", "actor": self.name,
                     "place": self.place_name, "packet": packet.hex()}
                )
        return events

    def report(self, end):
        return {"role": "sniffer", "captures": self.captures}, []


class PerCaptureRebroadcaster(EveryTick):
    """Rebuilds the replay queue on every tick: bisects the entries for the
    window (now - ttl, now - delay] and takes each distinct packet's first
    entry in it."""

    phase = 1

    def __init__(self, name, position, attack, database):
        self.name = name
        self.position = position
        self.relay_delay = attack.relay_delay
        self.replay_ttl = attack.replay_ttl
        self.database = database
        self.replay_queue = ()
        self._relayed = set()

    def outgoing_packets(self, now):
        entries = self.database.entries
        time = attrgetter("capture_time")
        lo = bisect.bisect_right(entries, now - self.replay_ttl, key=time)
        hi = bisect.bisect_right(entries, now - self.relay_delay, key=time)
        firsts = []
        for packet, positions in self.database.positions.items():
            first = bisect.bisect_left(positions, lo)
            if first < len(positions) and positions[first] < hi:
                firsts.append((positions[first], packet))
        self.replay_queue = tuple(packet for _, packet in sorted(firsts))
        return self.replay_queue

    def on_deliveries(self, deliveries, now):
        new = [p for p in self.replay_queue if p not in self._relayed]
        self._relayed.update(new)
        return [{"t": now, "event": "relay", "actor": self.name, "packet": p.hex()} for p in new]

    def report(self, end):
        row = {
            "role": "rebroadcaster",
            "relay_delay": self.relay_delay,
            "replay_ttl": self.replay_ttl,
        }
        return row, []


# What a world's adversaries are, for ``mock.patch.multiple(scenario, ...)``.
PER_CAPTURE_ADVERSARIES = {
    "MaliciousDatabase": PerCaptureDatabase,
    "SnifferAdversary": PerCaptureSniffer,
    "RebroadcastAdversary": PerCaptureRebroadcaster,
}
