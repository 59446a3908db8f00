"""Actor state machines: honest devices, the two adversary roles, and the
database they share.

Honest devices run the full protocol stack (key schedule, scanning, risk
scoring) plus, optionally, the contact-hash defense.  Adversaries run no
protocol app at all: the sniffer only captures in-range packets into the
shared database, the rebroadcaster only retransmits captured bytes verbatim.
Neither ever stores observations or uploads keys.

Every actor has the one shape the world loop uses: ``name``, ``position``,
``outgoing_packets(now)``, ``on_deliveries(deliveries, now)`` returning the
events to log, ``report_row()``, and a class-level ``phase`` that orders
the actors' turns within a tick (see :mod:`relaysim.scenario`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from . import actguard, gaen, radio
from .backend import BackendError, BackendStore, encode_diagnosis_payload
from .params import SECONDS_PER_DAY, AttackSpec, SimParams


class DatabaseEntry(NamedTuple):
    packet: bytes
    capture_time: int


_capture_time = attrgetter("capture_time")


@dataclass
class MaliciousDatabase:
    """Append-only packet exchange between the two adversary roles.

    Entries are kept in capture order.  ``positions`` maps each distinct
    packet to the indexes of its entries, ascending, so a reader can work
    per distinct packet instead of per captured copy.
    """

    entries: list[DatabaseEntry] = field(default_factory=list)
    positions: dict[bytes, list[int]] = field(default_factory=dict)

    def append(self, packet: bytes, capture_time: int) -> bool:
        """Record one capture; True when the packet was never captured before."""
        if self.entries and capture_time < self.entries[-1].capture_time:
            raise ValueError(
                f"capture at t={capture_time} precedes the last one"
                f" at t={self.entries[-1].capture_time}"
            )
        positions = self.positions.setdefault(packet, [])
        positions.append(len(self.entries))
        self.entries.append(DatabaseEntry(packet, capture_time))
        return len(positions) == 1

    def __len__(self) -> int:
        return len(self.entries)


class SnifferAdversary:
    """Captures in-range protocol packets into ``database``; never transmits
    anything."""

    phase = 0

    def __init__(
        self,
        name: str,
        position: tuple[float, float],
        place_name: str,
        database: MaliciousDatabase,
    ):
        self.name = name
        self.position = position
        self.place_name = place_name
        self.database = database
        self.captures = 0

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        return ()

    def sniff_tick(self, deliveries: list[radio.Delivery], now: int) -> list[dict]:
        """Append every protocol packet delivered to us; returns a capture
        event for each one no sniffer had captured before, in delivery order."""
        events = []
        for d in deliveries:
            if d.receiver != self.name:
                continue
            if radio.decode_advertisement(d.packet) is None:
                continue
            self.captures += 1
            if self.database.append(d.packet, now):
                events.append(
                    {"t": now, "event": "capture", "actor": self.name,
                     "place": self.place_name, "packet": d.packet.hex()}
                )
        return events

    def on_deliveries(self, deliveries: list[radio.Delivery], now: int) -> list[dict]:
        return self.sniff_tick(deliveries, now)

    def report_row(self) -> dict:
        return {"role": "sniffer", "captures": self.captures}


class RebroadcastAdversary:
    """Replays captured packets byte-for-byte at its own location.

    An entry goes on the air once its relay delay has elapsed and keeps
    being replayed every tick until ``replay_ttl`` seconds after capture,
    the longest the pseudonym inside could still be valid.  Byte-identical
    entries collapse to one transmission per tick, ordered by each packet's
    first eligible capture.  A tick costs one bisect per distinct packet in
    the database, however many copies of it were captured.
    """

    phase = 1

    def __init__(
        self,
        name: str,
        position: tuple[float, float],
        attack: AttackSpec,
        database: MaliciousDatabase,
    ):
        self.name = name
        self.position = position
        self.relay_delay = attack.relay_delay
        self.replay_ttl = attack.replay_ttl
        self.database = database
        self.replay_queue: tuple[bytes, ...] = ()
        self._relayed: set[bytes] = set()

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        return self.rebroadcast_tick(now)

    def rebroadcast_tick(self, now: int) -> tuple[bytes, ...]:
        # Entries arrive in capture order, so the eligibility window
        # (now - ttl, now - delay] is the slice [lo, hi) of entries.  A packet
        # is eligible when its first position at or after lo is below hi.
        database = self.database
        entries = database.entries
        lo = bisect.bisect_right(entries, now - self.replay_ttl, key=_capture_time)
        hi = bisect.bisect_right(entries, now - self.relay_delay, key=_capture_time)
        firsts = []
        if lo < hi:
            for packet, positions in database.positions.items():
                if positions[-1] >= lo:
                    first = positions[bisect.bisect_left(positions, lo)]
                    if first < hi:
                        firsts.append((first, packet))
            firsts.sort()
        self.replay_queue = tuple(packet for _, packet in firsts)
        return self.replay_queue

    def on_deliveries(self, deliveries: list[radio.Delivery], now: int) -> list[dict]:
        """A relay event for each packet of this tick's replay queue that is
        on the air for the first time; what it hears is of no use to it."""
        if self._relayed.issuperset(self.replay_queue):  # the common case
            return []
        new = [p for p in self.replay_queue if p not in self._relayed]  # queue has no repeats
        self._relayed.update(new)
        return [{"t": now, "event": "relay", "actor": self.name, "packet": p.hex()} for p in new]

    def report_row(self) -> dict:
        return {
            "role": "rebroadcaster",
            "relay_delay": self.relay_delay,
            "replay_ttl": self.replay_ttl,
        }


@dataclass
class DownloadedChunk:
    """A downloaded chunk's RPI index and this device's matches against its
    first ``cursor`` observations."""

    index: gaen.RpiIndex
    matches: list[gaen.ExposureMatch] = field(default_factory=list)
    cursor: int = 0


@dataclass
class ExposureState:
    gaen_alert: bool = False
    risk_score: float = 0.0
    verdicts: dict[int, actguard.Verdict] = field(default_factory=dict)
    matches_by_diagnosis: dict[int, int] = field(default_factory=dict)


class HonestDevice:
    """A protocol-running device, optionally with the hash defense enabled.

    ``rpi_indexes`` maps a chunk's keys to their RPI index.  Devices of one
    run share it, so each chunk is expanded once however many download it.
    Besides the observations in scan order, a device keeps the positions of
    each observed RPI's observations, so matching touches only the
    observations a chunk can match.
    """

    phase = 2

    def __init__(
        self,
        name: str,
        seed: bytes,
        position: tuple[float, float],
        *,
        params: SimParams,
        actguard_enabled: bool = False,
        rpi_indexes: dict[tuple[int, tuple], gaen.RpiIndex] | None = None,
    ):
        self.name = name
        self.seed = seed
        self.position = position
        self.params = params
        self.actguard_enabled = actguard_enabled
        self.rpi_indexes = {} if rpi_indexes is None else rpi_indexes

        self.teks: dict[int, gaen.Tek] = {}
        self.current_rpi: gaen.Rpi | None = None
        self.current_packet: bytes | None = None
        self._current_slot: tuple[int, int] | None = None  # (day, interval)

        self.observations: list[gaen.Observation] = []
        self._positions_by_rpi: dict[bytes, list[int]] = {}
        self.contacts = actguard.MyContactsTable() if actguard_enabled else None
        self.positive_table = actguard.PositiveTable() if actguard_enabled else None

        self.downloaded: dict[int, DownloadedChunk] = {}
        self.last_chunk_index = 0
        self.exposure = ExposureState()
        self._reported_matches: set[int] = set()

    # --- key schedule ---------------------------------------------------

    def _tek_for_day(self, day: int) -> gaen.Tek:
        tek = self.teks.get(day)
        if tek is None:
            tek = gaen.generate_tek(self.seed, day)
            self.teks[day] = tek
            self._purge_teks(day)
        return tek

    def _purge_teks(self, today: int) -> None:
        horizon = today - (self.params.tek_retention_days - 1)
        for day in [d for d in self.teks if d < horizon]:
            del self.teks[day]

    def ensure_interval(self, now: int) -> bool:
        """Rotate the advertised pseudonym when the clock crosses a boundary."""
        day = now // SECONDS_PER_DAY
        interval = (now % SECONDS_PER_DAY) // self.params.rotation_seconds
        if self._current_slot == (day, interval):
            return False
        tek = self._tek_for_day(day)
        rpik = gaen.derive_rpik(tek)
        aemk = gaen.derive_aemk(tek)
        rpi = gaen.derive_rpi(rpik, interval, self.params)
        aem = gaen.encrypt_aem(aemk, rpi.bytes, self.params.tx_power_dbm)
        self.current_rpi = rpi
        self.current_packet = radio.encode_advertisement(rpi.bytes, aem)
        self._current_slot = (day, interval)
        return True

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        self.ensure_interval(now)
        return (self.current_packet,)

    # --- scanning ---------------------------------------------------------

    def receive(self, deliveries: list[radio.Delivery], now: int) -> int:
        """Store one observation per protocol delivery; own echoes are dropped."""
        self.ensure_interval(now)
        assert self.current_rpi is not None
        own = self.current_rpi.bytes
        observations = self.observations
        before = len(observations)
        for d in deliveries:
            if d.receiver != self.name:
                continue
            decoded = radio.decode_advertisement(d.packet)
            if decoded is None:
                continue
            rpi, aem = decoded
            if rpi == own:
                continue
            self._positions_by_rpi.setdefault(rpi, []).append(len(observations))
            observations.append(gaen.Observation(rpi, aem, d.rssi, now, self.position))
            if self.contacts is not None:
                actguard.record_contact(self.contacts, own, rpi, self.position, now, self.params)
        return len(observations) - before

    def on_deliveries(self, deliveries: list[radio.Delivery], now: int) -> tuple[()]:
        self.receive(deliveries, now)
        return ()

    # --- diagnosis and exposure checking -----------------------------------

    def diagnose_and_upload(
        self, backend: BackendStore, otp_code: str, now: int
    ) -> tuple[int, bytes]:
        """Publish retained keys (and the hash batch, if defended).

        Returns (diagnosis_id, serialized upload payload).  A rejected OTP
        propagates as a BackendError and leaves this device untouched.
        """
        teks = [self.teks[d] for d in sorted(self.teks)]
        hashes = self.contacts.hashes() if self.contacts is not None else None
        payload = encode_diagnosis_payload(teks, otp_code, hashes)
        diagnosis_id = backend.ingest_diagnosis(teks, otp_code, hashes, now)
        return diagnosis_id, payload

    def poll_backend(self, backend: BackendStore, now: int) -> list[int]:
        """Pull new chunks (and their hash batches); returns new diagnosis ids.

        All fetches complete before any local state changes, so a transport
        failure mid-poll leaves the device exactly as it was.
        """
        fetched = []
        for chunk in backend.fetch_chunks(self.last_chunk_index, now):
            batch = (
                backend.fetch_hash_batch(chunk.index)
                if self.positive_table is not None
                else None
            )
            fetched.append((chunk, batch))

        new_ids = []
        for chunk, batch in fetched:
            self.last_chunk_index = max(self.last_chunk_index, chunk.index)
            self.downloaded[chunk.index] = DownloadedChunk(self._rpi_index(chunk.teks))
            if batch is not None and self.positive_table is not None:
                self.positive_table.add(chunk.index, batch)
            new_ids.append(chunk.index)
        return new_ids

    def _rpi_index(self, teks: tuple[tuple[bytes, int], ...]) -> gaen.RpiIndex:
        key = (self.params.rotation_seconds, teks)
        index = self.rpi_indexes.get(key)
        if index is None:
            index = gaen.build_rpi_index(
                [gaen.Tek(bytes=b, day_index=d) for b, d in teks], self.params
            )
            self.rpi_indexes[key] = index
        return index

    def evaluate_exposure(self) -> ExposureState:
        """Match new observations, then recompute alert and verdicts.

        Each downloaded chunk is matched only against the observations
        stored since it was last matched whose RPI its index holds, in scan
        order; the others cannot match it.  The risk score and the verdicts
        are then recomputed over all matches of every chunk.
        """
        all_matches: list[gaen.ExposureMatch] = []
        verdicts: dict[int, actguard.Verdict] = {}
        matched: dict[int, int] = {}
        stored = len(self.observations)
        for diagnosis_id in sorted(self.downloaded):
            chunk = self.downloaded[diagnosis_id]
            if chunk.cursor < stored:
                chunk.matches += gaen.match_indexed(
                    chunk.index,
                    self._observations_in(chunk.index, chunk.cursor),
                    self.params,
                )
                chunk.cursor = stored
            if not chunk.matches:
                continue
            all_matches.extend(chunk.matches)
            matched[diagnosis_id] = len(chunk.matches)
            if self.actguard_enabled:
                verdicts[diagnosis_id] = self._verdict_for(diagnosis_id, chunk.matches)
        risk = gaen.risk_score(all_matches, self.params)
        self.exposure = ExposureState(
            gaen_alert=risk.alert,
            risk_score=risk.score,
            verdicts=verdicts,
            matches_by_diagnosis=matched,
        )
        return self.exposure

    def _observations_in(self, index: gaen.RpiIndex, start: int) -> list[gaen.Observation]:
        """Observations from position ``start`` on whose RPI ``index`` holds,
        in scan order."""
        positions: list[int] = []
        for rpi in self._positions_by_rpi.keys() & index.keys():
            at = self._positions_by_rpi[rpi]
            positions += at[bisect.bisect_left(at, start) :]
        positions.sort()
        return [self.observations[i] for i in positions]

    def _verdict_for(
        self, diagnosis_id: int, matches: list[gaen.ExposureMatch]
    ) -> actguard.Verdict:
        # One verdict per diagnosis: confirmation by any match wins, else the
        # first match's verdict.  A match's verdict depends only on its RPI,
        # so each distinct RPI is verified once, in first-match order.
        assert self.contacts is not None and self.positive_table is not None
        batch = self.positive_table.get(diagnosis_id)
        first_by_rpi: dict[bytes, gaen.ExposureMatch] = {}
        for match in matches:
            first_by_rpi.setdefault(match.rpi, match)
        first: actguard.Verdict | None = None
        for match in first_by_rpi.values():
            verdict = actguard.verify_exposure(
                match,
                self.contacts,
                batch,
                diagnosis_id=diagnosis_id,
                params=self.params,
            )
            if verdict.kind is actguard.VerdictKind.CONFIRMED_CONTACT:
                return verdict
            if first is None:
                first = verdict
        assert first is not None
        return first

    def exposure_check(self, backend: BackendStore, now: int) -> ExposureState:
        """Poll and re-evaluate; a transport failure just skips this round."""
        try:
            new_ids = self.poll_backend(backend, now)
        except BackendError:
            return self.exposure
        if new_ids:
            self.evaluate_exposure()
        return self.exposure

    def match_events(self, now: int) -> list[dict]:
        """A match event for each diagnosis first matched since the last call."""
        matched = self.exposure.matches_by_diagnosis
        if len(matched) == len(self._reported_matches):  # a diagnosis, once matched, stays
            return []
        new = sorted(matched.keys() - self._reported_matches)
        self._reported_matches.update(new)
        return [
            {"t": now, "event": "match", "actor": self.name, "diagnosis_id": d,
             "matches": matched[d]}
            for d in new
        ]

    def report_row(self) -> dict:
        return {
            "role": "honest",
            "actguard": self.actguard_enabled,
            "gaen_alert": self.exposure.gaen_alert,
            "risk_score": self.exposure.risk_score,
            "observations": len(self.observations),
            "contact_records": len(self.contacts) if self.contacts is not None else 0,
            "verdicts": [
                {"diagnosis_id": d, "verdict": v.kind.value, "rpi": v.rpi.hex()}
                for d, v in sorted(self.exposure.verdicts.items())
            ],
        }
