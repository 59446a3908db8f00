"""Actor state machines: honest devices, the two adversary roles, and the
database they share.

Honest devices run the full protocol stack (key schedule, scanning, risk
scoring) plus, optionally, the contact-hash defense.  Adversaries run no
protocol app at all: the sniffer only captures in-range packets into the
shared database, as capture runs, the rebroadcaster only retransmits
captured bytes verbatim.  Neither ever stores observations or uploads keys.
The pair runs on the database's tick: every capture and every read of the
replay queue comes at a multiple of it, and a tick's read comes before the
captures made at its time.

Every actor has the one shape the world loop uses: ``name``, ``position``,
``outgoing_packets(now)``, ``on_deliveries(deliveries, now)`` returning the
events to log, ``quiet_until(now)``, ``repeat(through)``, ``report(end)``
returning, once the run ends at ``end``, the actor's report row and the
events it adds to the log, and a class-level ``phase`` that orders the
actors' turns within a tick (see :mod:`relaysim.scenario`).  After a tick
at ``now``, ``quiet_until`` is the earliest time at which a tick of the
actor might do more than repeat that one (send the same packets, scan the
same inbox again, log nothing) while nothing else in the world changes;
``repeat(through)`` brings the actor forward as if every tick after its
last one, up to ``through``, had been such a repeat.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from typing import NamedTuple

from . import actguard, gaen, radio
from .backend import BackendStore, encode_diagnosis_payload
from .params import SECONDS_PER_DAY, AttackSpec, SimParams


class CaptureRun:
    """The protocol packets of one sniffer inbox, in inbox order, captured on
    every tick from ``first`` through ``last``: one capture run per packet.

    ``rank`` is the capturing sniffer's and ``seq`` the run's position in
    ``MaliciousDatabase.runs``; captures made at one time are ordered by
    (rank, seq, inbox position).
    """

    __slots__ = ("packets", "first", "last", "rank", "seq")

    def __init__(self, packets: tuple[bytes, ...], first: int, last: int, rank: int, seq: int):
        self.packets = packets
        self.first = first
        self.last = last
        self.rank = rank
        self.seq = seq


class MaliciousDatabase:
    """Packet exchange between the two adversary roles, stored as capture runs.

    ``tick_seconds`` is the one tick the pair runs on: captures are made at
    multiples of it.  Each sniffer joins with a rank: sniffers scan in rank
    order within a tick, as the world's tick loop runs them in the name
    order it made them in.  A sniffer's new inbox closes its open run and
    opens one for the inbox's packets; the same inbox one tick later
    extends the open run, in O(1) however many packets it holds.  Rank -1
    records captures made outside any sniffer, ordered before every
    sniffer's made at their time.  ``runs`` only grows, by one run per
    opening, in opening order.
    """

    def __init__(self, tick_seconds: int) -> None:
        self.tick_seconds = tick_seconds
        self.runs: list[CaptureRun] = []
        self._open: dict[int, CaptureRun] = {}  # by sniffer rank
        self._sniffers = 0
        self._known: set[bytes] = set()
        self._latest = -math.inf  # the last capture time

    def join(self) -> int:
        """A new sniffer's rank."""
        self._sniffers += 1
        return self._sniffers - 1

    def capture(self, rank: int, packets: tuple[bytes, ...], now: int) -> list[bytes]:
        """Close sniffer ``rank``'s open run and, if ``packets`` is not
        empty, open one for them, captured at ``now``.  Returns the packets
        never captured before, in order."""
        if not packets:
            self._open.pop(rank, None)
            return []
        self._at(now)
        self._open[rank] = run = CaptureRun(packets, now, now, rank, len(self.runs))
        self.runs.append(run)
        new = [p for p in dict.fromkeys(packets) if p not in self._known]
        self._known.update(new)
        return new

    def extend(self, rank: int, now: int) -> None:
        """Capture sniffer ``rank``'s open run again on every tick after its
        last, through ``now``."""
        run = self._open.get(rank)
        if run is not None:
            self._at(now)
            run.last = now

    def is_open(self, run: CaptureRun) -> bool:
        """Whether ``run`` may still be extended."""
        return self._open.get(run.rank) is run

    def _at(self, now: int) -> None:
        if now < self._latest:
            raise ValueError(f"capture at t={now} precedes the last one at t={self._latest}")
        self._latest = now

    def captures(self, rank: int) -> int:
        """How many captures sniffer ``rank`` made."""
        tick = self.tick_seconds
        return sum(
            len(r.packets) * ((r.last - r.first) // tick + 1) for r in self.runs if r.rank == rank
        )


class SnifferAdversary:
    """Captures in-range protocol packets into ``database``; never transmits
    anything.

    A new inbox opens a capture run of its protocol packets.  The same inbox
    object handed over exactly one tick after the last scan captures them
    all again by extending that run, in O(1).
    """

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
        self.rank = database.join()
        self._inbox: Sequence[tuple] | None = None
        self._last_scan = 0

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        return ()

    def sniff_tick(self, deliveries: Sequence[tuple], now: int) -> list[dict]:
        """Capture every protocol packet delivered to us; returns a capture
        event for each one no sniffer had captured before, in delivery order."""
        if deliveries is self._inbox and now - self._last_scan == self.database.tick_seconds:
            self.database.extend(self.rank, now)
            self._last_scan = now
            return []
        packets = tuple([packet for _, packet, _, frame in deliveries if frame is not None])
        new = self.database.capture(self.rank, packets, now)
        self._inbox = deliveries
        self._last_scan = now
        return [
            {"t": now, "event": "capture", "actor": self.name,
             "place": self.place_name, "packet": p.hex()}
            for p in new
        ]

    def on_deliveries(self, deliveries: Sequence[tuple], now: int) -> list[dict]:
        return self.sniff_tick(deliveries, now)

    def quiet_until(self, now: int) -> float:
        """A repeated scan only extends the open run: never an event."""
        return math.inf

    def repeat(self, through: int) -> None:
        """Scan the last inbox again on every tick up to ``through``."""
        self.database.extend(self.rank, through)
        self._last_scan = through

    def report(self, end: int) -> tuple[dict, list[dict]]:
        return {"role": "sniffer", "captures": self.database.captures(self.rank)}, []


class RebroadcastAdversary:
    """Replays captured packets byte-for-byte at its own location.

    A capture goes on the air once its relay delay has elapsed and keeps
    being replayed every tick until ``replay_ttl`` seconds after it was
    made, the longest the pseudonym inside could still be valid: at ``now``
    the captures made in the window (now - ttl, now - delay] are replayed.
    Byte-identical captures collapse to one transmission per tick, ordered
    by each packet's first capture inside the window.

    Reads come on the database's tick, each before the captures made at its
    time, as in a world's tick loop.  The queue is one tuple object, handed
    out again while it is unchanged.  It is recomputed, over the runs that
    can still enter the window, only when ``now`` reaches
    ``quiet_until(now)``: when the database opened a run or when a run can
    change the answer.  A run's first capture enters the window at
    ``first + delay``, and its last leaves at ``last + ttl``.  The next
    capture of an open run out of the window, one tick after its last, is
    read first at the first tick after it that is ``delay`` or more later,
    or never, if that tick is ``ttl`` or more later.  A run whose first
    capture in the window leaves it moves to its next capture; the runs at
    the front of the queue all move together, so their order against the
    rest changes only when they catch up with the next run's first capture
    in the window, one tick before that capture leaves it.
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
        self._now = -math.inf
        self._seen = 0  # database runs taken into ``_live``
        self._live: list[CaptureRun] = []  # the runs that can still enter the window
        self._next_change = math.inf
        self._watched: list[CaptureRun] = []  # the open runs in the window
        self._announced: tuple[bytes, ...] = ()
        self._relayed: set[bytes] = set()

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        return self.rebroadcast_tick(now)

    def rebroadcast_tick(self, now: int) -> tuple[bytes, ...]:
        """This tick's replay queue.  Ticks must come in time order."""
        if now < self._now:
            raise ValueError(f"replay at t={now} precedes the last one at t={self._now}")
        self._now = now
        if now >= self.quiet_until(now):
            self._recompute_queue(now)
        return self.replay_queue

    def _recompute_queue(self, now: int) -> None:
        database = self.database
        self._live += database.runs[self._seen :]
        self._seen = len(database.runs)
        tick, delay, ttl = database.tick_seconds, self.relay_delay, self.replay_ttl
        lo, hi = now - ttl, now - delay  # the window (lo, hi]
        if hi <= lo:  # an empty window: nothing is ever replayed
            self._live, self._next_change = [], math.inf
            return
        live: list[CaptureRun] = []
        eligible: list[tuple[int, int, int, CaptureRun]] = []  # (at, rank, seq, run)
        watched = []
        change = math.inf
        for run in self._live:
            if run.last <= lo:  # its captures have all left the window
                if database.is_open(run):  # but its next capture may be read in it
                    live.append(run)
                    change = min(change, self._first_read(run.last + tick))
                continue
            live.append(run)
            if database.is_open(run):
                watched.append(run)
            else:
                change = min(change, run.last + ttl)
            # ``at``: the run's first capture after lo
            at = run.first + max(0, (lo - run.first) // tick + 1) * tick
            if at > hi:
                change = min(change, at + delay)
            else:
                eligible.append((at, run.rank, run.seq, run))
        eligible.sort()
        if eligible:
            front = eligible[0][0]
            later = [at for at, _, _, _ in eligible if at > front]
            if tick > ttl - delay:  # the front runs leave the window
                change = min(change, front + ttl)
            elif later:  # the front runs catch up with the next run
                change = min(change, later[0] - tick + ttl)
        queue = tuple(dict.fromkeys(p for _, _, _, run in eligible for p in run.packets))
        if queue != self.replay_queue:
            self.replay_queue = queue
        self._live = live
        self._watched = watched
        self._next_change = change

    def _first_read(self, capture: int) -> float:
        """The first tick at which a capture made at ``capture`` is read
        inside the window, inf if never."""
        tick = self.database.tick_seconds
        at = -(-max(capture + 1, capture + self.relay_delay) // tick) * tick
        return at if at < capture + self.replay_ttl else math.inf

    def on_deliveries(self, deliveries: Sequence[tuple], now: int) -> list[dict]:
        """A relay event for each packet of this tick's replay queue that is
        on the air for the first time; what it hears is of no use to it."""
        queue = self.replay_queue
        if queue is self._announced:  # the common case
            return []
        self._announced = queue
        new = [p for p in queue if p not in self._relayed]  # queue has no repeats
        self._relayed.update(new)
        return [{"t": now, "event": "relay", "actor": self.name, "packet": p.hex()} for p in new]

    def quiet_until(self, now: int) -> float:
        """When the queue is next recomputed: ``now`` if the database opened
        a run since the last recompute, else the next window event or the
        time an open run's last capture would leave the window were it
        extended no more."""
        if len(self.database.runs) != self._seen:
            return now
        return min([self._next_change] + [run.last + self.replay_ttl for run in self._watched])

    def repeat(self, through: int) -> None:
        """Hand out the same queue on every tick up to ``through``."""
        self._now = through

    def report(self, end: int) -> tuple[dict, list[dict]]:
        row = {
            "role": "rebroadcaster",
            "relay_delay": self.relay_delay,
            "replay_ttl": self.replay_ttl,
        }
        return row, []


class DownloadedChunk(NamedTuple):
    """A downloaded chunk's hash batch as a set of digests (None if it has
    none) and ``at``, the tick of the poll that brought it.  The set is
    built once, by ``DownloadLog.poll``, from the backend's byte string."""

    batch: frozenset[bytes] | None
    at: int


class DownloadLog:
    """The downloaded chunks by diagnosis id, in download order (ids
    ascend), and one RPI index over them: an RPI maps to (diagnosis id,
    entry) for each of its entries, chunk by chunk, in each chunk's
    ``build_rpi_index`` order.  Every device reads one it is given, and
    the devices of a world share the world's log, which the world polls
    once per round that published a chunk: each new chunk is fetched and
    expanded once, through ``until`` (in full by default): the index
    matches only scans by then.  A world's log expands through its last
    tick, and the world refuses any tick after it (``RunEndedError``).
    Each new chunk's hash batch, which the backend stores as one sorted
    byte string, is split here into the ``frozenset`` of digests that its
    ``DownloadedChunk`` keeps and verification reads."""

    def __init__(self, params: SimParams, until: float = math.inf) -> None:
        self.params = params
        self.until = until
        self.chunks: dict[int, DownloadedChunk] = {}
        self.index: dict[bytes, list[gaen.DiagnosisEntry]] = {}

    def poll(self, backend: BackendStore, now: int) -> list[int]:
        """Fetch the chunks after the newest one and their hash batches;
        returns their diagnosis ids.  All fetches complete before the log
        changes, so a transport failure mid-poll leaves it as it was."""
        fetched = [
            (chunk, backend.fetch_hash_batch(chunk.index))
            for chunk in backend.fetch_chunks(next(reversed(self.chunks), 0), now)
        ]
        for chunk, batch in fetched:
            if batch is not None:
                step = actguard.CONTACT_HASH_LENGTH
                batch = frozenset(batch[i : i + step] for i in range(0, len(batch), step))
            self.chunks[chunk.index] = DownloadedChunk(batch, now)
            teks = [gaen.Tek(b, d) for b, d in chunk.teks]
            for rpi, entries in gaen.build_rpi_index(teks, self.params, self.until).items():
                self.index.setdefault(rpi, []).extend((chunk.index, e) for e in entries)
        return [chunk.index for chunk, _ in fetched]


# An inbox span, a device's record of one inbox, is a list [sightings,
# scanned_as, first, last]: a tuple of the inbox's sightings, its delivery
# tuples in inbox order, scanned as (own RPI, position) on every tick from
# first through last.  Only last changes, as the span extends.
_LAST = 3


class ExposureState(NamedTuple):
    gaen_alert: bool
    risk_score: float
    verdicts: dict[int, actguard.Verdict]
    contact_records: int  # the buckets of ``contact_rows``, counted, not expanded
    # (t, diagnosis id, matches scanned by t) of each matched diagnosis, in
    # id order: t is the first tick at which a poll brought chunks that is
    # at or after both the chunk's own poll and its first matched scan
    # time, inf if there is none
    first_matches: Sequence[tuple[float, int, int]] = ()


class HonestDevice:
    """A protocol-running device, optionally with the hash defense enabled
    (``defended``): the upload hashes every row ``contact_rows`` derives
    from its spans, and verification reads only a matched pseudonym's rows;
    each chunk's hash batch rides on its ``DownloadedChunk``.

    ``downloads`` holds the downloaded chunks and their RPI index: the log
    the devices of a world share (see ``DownloadLog``).

    Sightings are stored as inbox spans: a new inbox that holds a sighting
    (a protocol delivery that is not an echo of the device's own RPI) opens
    one, holding its sightings, the delivery tuples themselves in inbox
    order.  While ``receive`` is handed the same inbox object exactly one
    tick after its last scan, with its own RPI and position unchanged, the
    open span extends: storing the tick's sightings costs O(1).

    Matching works on sightings over all of their span's scan times, and
    only when a result is read: during a run a device only stores spans,
    and its world polls the download log.  Each read looks each sighting up
    once in the index, whatever the chunk count (see ``_matched``): a
    sighting paired with an entry of its RPI is a match run if some of its
    scan times fall inside the entry's window, widened by the clock
    tolerance.  ``evaluate_exposure`` builds one ``gaen.MatchedSightings``
    per match run so far; scoring, verdicts and the first match of each
    diagnosis, taken from the chunks' poll ticks, all read those.
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
        downloads: DownloadLog,
    ):
        self.name = name
        self.seed = seed
        self.position = position
        self.params = params
        self.downloads = downloads

        self.teks: dict[int, gaen.Tek] = {}
        self._subkeys: dict[int, tuple[gaen.HmacSha256, gaen.HmacSha256]] = {}  # (rpik, aemk)
        self.current_rpi: gaen.Rpi | None = None
        self._outgoing: tuple[bytes, ...] = ()  # (the current pseudonym's packet,)
        self._slot = (0, 0)  # the current pseudonym's [start, end) in seconds

        self._spans: list[list] = []  # inbox spans, in opening order
        self._open: list | None = None  # the span the last scan extends, if any
        self._inbox: Sequence[tuple] | None = None
        self._last_scan = -1
        self._scanned_as: tuple | None = None  # (own RPI, position) at the last new inbox
        self.defended = actguard_enabled

    # --- key schedule ---------------------------------------------------

    def _keys_for_day(self, day: int) -> tuple[gaen.HmacSha256, gaen.HmacSha256]:
        """The day's RPI and AEM subkeys, keyed; derived with its TEK, once."""
        subkeys = self._subkeys.get(day)
        if subkeys is None:
            tek = gaen.generate_tek(self.seed, day)
            rpik, aemk = gaen.derive_subkeys(tek)
            subkeys = (gaen.HmacSha256(rpik), gaen.HmacSha256(aemk))
            self.teks[day] = tek
            self._subkeys[day] = subkeys
            self._purge_teks(day)
        return subkeys

    def _purge_teks(self, today: int) -> None:
        horizon = today - (self.params.tek_retention_days - 1)
        for day in [d for d in self.teks if d < horizon]:
            del self.teks[day]
            del self._subkeys[day]

    def ensure_interval(self, now: int) -> bool:
        """Rotate the advertised pseudonym when the clock crosses a boundary."""
        start, end = self._slot
        if start <= now < end:
            return False
        rotation = self.params.rotation_seconds
        day = now // SECONDS_PER_DAY
        interval = (now % SECONDS_PER_DAY) // rotation
        rpik, aemk = self._keys_for_day(day)
        rpi = gaen.derive_rpi(rpik, interval, self.params)
        aem = gaen.encrypt_aem(aemk, rpi.bytes, self.params.tx_power_dbm)
        self.current_rpi = rpi
        self._outgoing = (radio.encode_advertisement(rpi.bytes, aem),)
        start = now - now % rotation
        self._slot = (start, start + rotation)
        return True

    def outgoing_packets(self, now: int) -> tuple[bytes, ...]:
        """The current packet, as the same tuple object until the next
        rotation."""
        self.ensure_interval(now)
        return self._outgoing

    # --- scanning ---------------------------------------------------------

    def receive(self, deliveries: Sequence[tuple], now: int) -> int:
        """Scan ``deliveries``, plain ``(sender, packet, rssi, frame)``
        tuples; returns how many sightings the open span holds.  The same
        inbox object one tick later, scanned as the same (own RPI, position),
        extends that span; any other inbox closes it and, if it holds a
        sighting, opens a span of its sightings (protocol deliveries, own
        echoes dropped).  Scans must come in time order."""
        if now <= self._last_scan:
            raise ValueError(f"scan at t={now} does not follow the last one at t={self._last_scan}")
        self.ensure_interval(now)
        assert self.current_rpi is not None
        own = self.current_rpi.bytes
        scanned_as = (own, self.position)
        span = self._open
        if (
            deliveries is not self._inbox
            or now - self._last_scan != self.params.tick_seconds
            or scanned_as != self._scanned_as
        ):
            # A tuple, sized exactly: a span lives to the end of the run.
            sightings = tuple([d for d in deliveries if (f := d[3]) is not None and f[0] != own])
            span = None
            if sightings:
                span = [sightings, scanned_as, now, now]
                self._spans.append(span)
            self._open = span
            self._inbox = deliveries
            self._scanned_as = scanned_as
        elif span is not None:
            span[_LAST] = now
        self._last_scan = now
        return 0 if span is None else len(span[0])

    def contact_rows(self) -> list[actguard.ContactSpan]:
        """Every contact row, a range at a time (``actguard.contact_rows``)."""
        return actguard.contact_rows(self._spans, self.params)

    def on_deliveries(self, deliveries: Sequence[tuple], now: int) -> tuple[()]:
        self.receive(deliveries, now)
        return ()

    def quiet_until(self, now: int) -> int:
        """The current pseudonym's end, where the device's packet changes."""
        return self._slot[1]

    def repeat(self, through: int) -> None:
        """Scan the last inbox again on every tick up to ``through``: the
        open span extends, nothing else changes."""
        if self._open is not None:
            self._open[_LAST] = through
        self._last_scan = through

    # --- diagnosis and exposure checking -----------------------------------

    def diagnose_and_upload(
        self, backend: BackendStore, otp_code: str, now: int
    ) -> tuple[int, bytes]:
        """Publish retained keys (and the hash batch, if defended).

        Returns (diagnosis_id, serialized upload payload).  A rejected OTP
        propagates as a BackendError and leaves this device untouched.
        """
        teks = [self.teks[d] for d in sorted(self.teks)]
        hashes = actguard.digests(self.contact_rows()) if self.defended else None
        payload = encode_diagnosis_payload(teks, otp_code, hashes)
        diagnosis_id = backend.ingest_diagnosis(teks, otp_code, hashes, now)
        return diagnosis_id, payload

    def poll_backend(self, backend: BackendStore, now: int) -> list[int]:
        """Pull new chunks into the download log; returns the diagnosis ids
        this poll brought, none if the log holds them already.  A transport
        failure leaves the log as it was (``DownloadLog.poll``).  A world
        polls its devices' shared log itself."""
        return self.downloads.poll(backend, now)

    def _matched(self) -> dict[int, list[tuple]]:
        """Each downloaded chunk's match runs, by diagnosis id, in (sighting,
        entry) order, spans in opening order.  A match run, ``(times, entry,
        tx, sighting)``, pairs a span's sighting (its delivery tuple) with one
        index entry of its RPI: the span's scan times inside the entry's
        window, widened by the clock tolerance, and the transmit power
        decrypted from the sighting's AEM.  One lookup per sighting; the AEM
        is decrypted for a non-empty clip only."""
        index = self.downloads.index
        tolerance = self.params.clock_tolerance_seconds
        tick = self.params.tick_seconds
        matched: dict[int, list[tuple]] = {}
        for sightings, _, first, last in self._spans:
            times = range(first, last + 1, tick)
            for sighting in sightings:
                frame = sighting[3]
                entries = index.get(frame[0])
                if entries is None:
                    continue
                for diagnosis_id, entry in entries:
                    lo = bisect.bisect_left(times, entry.start - tolerance)
                    hi = bisect.bisect_left(times, entry.end + tolerance)
                    if lo < hi:
                        tx = gaen.decrypt_aem(entry.aemk, *frame)
                        matched.setdefault(diagnosis_id, []).append(
                            (times[lo:hi], entry, tx, sighting)
                        )
        return matched

    def evaluate_exposure(self) -> ExposureState:
        """Alert, risk score, verdicts and first matches over every sighting
        so far, from one read of the match runs."""
        matched = self._matched()
        chunks = self.downloads.chunks
        polls = sorted({chunk.at for chunk in chunks.values()})
        contacts = self.contact_rows() if self.defended else []
        # Each row under both pseudonyms of its pair: a matched RPI may be the
        # device's own earlier one, heard replayed.
        rows: dict[bytes, list[actguard.ContactSpan]] = {}
        for row in contacts:
            rows.setdefault(row[0], []).append(row)
            rows.setdefault(row[1], []).append(row)
        scored: list[gaen.MatchedSightings] = []
        verdicts: dict[int, actguard.Verdict] = {}
        firsts: list[tuple[float, int, int]] = []
        for diagnosis_id in sorted(matched):
            runs = [
                gaen.MatchedSightings(diagnosis_id, frame[0], tx - rssi, times)
                for times, _, tx, (_, _, rssi, frame) in matched[diagnosis_id]
            ]
            scored += runs
            if self.defended:
                verdicts[diagnosis_id] = self._verdict_for(diagnosis_id, runs, rows)
            first = min(run.times[0] for run in runs)
            i = bisect.bisect_left(polls, max(chunks[diagnosis_id].at, first))
            t = polls[i] if i < len(polls) else math.inf
            count = sum(bisect.bisect_right(run.times, t) for run in runs)
            firsts.append((t, diagnosis_id, count))
        risk = gaen.risk_score(scored, self.params)
        return ExposureState(
            gaen_alert=risk.alert,
            risk_score=risk.score,
            verdicts=verdicts,
            contact_records=sum(len(buckets) for *_, buckets in contacts),
            first_matches=firsts,
        )

    def _verdict_for(
        self, diagnosis_id: int, matched: list[gaen.MatchedSightings], rows: dict[bytes, list]
    ) -> actguard.Verdict:
        # One verdict per diagnosis: confirmation by any match wins, else the
        # first match's verdict.  A match's verdict depends only on its RPI,
        # so each distinct RPI is verified once, in first-match order: by
        # scan time of each match run's first match, then (sighting, entry),
        # the order of ``matched``.
        first_by_rpi: dict[bytes, gaen.MatchedSightings] = {}
        for _, _, run in sorted((run.times[0], k, run) for k, run in enumerate(matched)):
            first_by_rpi.setdefault(run.rpi, run)
        first: actguard.Verdict | None = None
        for run in first_by_rpi.values():
            verdict = actguard.verify_exposure(
                run,
                rows[run.rpi],
                self.downloads.chunks[diagnosis_id].batch,
                diagnosis_id=diagnosis_id,
                params=self.params,
            )
            if verdict.kind is actguard.VerdictKind.CONFIRMED_CONTACT:
                return verdict
            if first is None:
                first = verdict
        assert first is not None
        return first

    def report(self, end: int) -> tuple[dict, list[dict]]:
        """The report row, and a match event for each matched diagnosis at
        its first match (at ``end`` if no poll followed it), counting the
        matched sightings scanned by then, in (t, diagnosis id) order."""
        exposure = self.evaluate_exposure()
        events = [
            {"t": end if t == math.inf else t, "event": "match", "actor": self.name,
             "diagnosis_id": diagnosis_id, "matches": count}
            for t, diagnosis_id, count in sorted(exposure.first_matches)
        ]
        tick = self.params.tick_seconds
        row = {
            "role": "honest",
            "actguard": self.defended,
            "gaen_alert": exposure.gaen_alert,
            "risk_score": exposure.risk_score,
            "observations": sum(
                len(sightings) * ((last - first) // tick + 1)
                for sightings, _, first, last in self._spans
            ),
            "contact_records": exposure.contact_records,
            "verdicts": [
                {"diagnosis_id": d, "verdict": v.kind.value, "rpi": v.rpi.hex()}
                for d, v in sorted(exposure.verdicts.items())
            ],
        }
        return row, events
