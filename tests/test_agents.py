"""Device and adversary behavior: rotation, scanning, relaying, uploading."""

import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import actguard, gaen, radio
from relaysim.agents import (
    DownloadLog,
    HonestDevice,
    MaliciousDatabase,
    RebroadcastAdversary,
    SnifferAdversary,
)
from relaysim.backend import BackendStore, OtpError
from relaysim.params import AttackSpec, SimParams

import oracles
from oracles import naive_replay_queue

PARAMS = SimParams()
HERE = (44.63, 10.94)


def _device(name="dev", *, actguard=False, position=HERE, downloads=None):
    """A device with a download log of its own, unless given one to share."""
    return HonestDevice(name, seed=name.encode() * 4, position=position, params=PARAMS,
                        actguard_enabled=actguard, downloads=downloads or DownloadLog(PARAMS))


def _delivery(packet, *, sender="peer", rssi=-45.0):
    return oracles.delivery(sender, packet, rssi)


def _peer_packet(seed=b"peerseed", day=0, interval=0, tx=-20):
    tek = gaen.generate_tek(seed, day)
    rpik, aemk = map(gaen.HmacSha256, gaen.derive_subkeys(tek))
    rpi = gaen.derive_rpi(rpik, interval, PARAMS)
    aem = gaen.encrypt_aem(aemk, rpi.bytes, tx)
    return radio.encode_advertisement(rpi.bytes, aem), tek, rpi


class TestHonestDevice:
    def test_rpi_matches_schedule(self):
        dev = _device()
        dev.ensure_interval(0)
        tek = gaen.generate_tek(dev.seed, 0)
        expected = gaen.derive_rpi(gaen.HmacSha256(gaen.derive_subkeys(tek)[0]), 0, PARAMS)
        assert dev.current_rpi == expected

    def test_rotation_at_two_hour_boundary(self):
        dev = _device()
        dev.ensure_interval(7190)
        before = dev.current_rpi
        changed = dev.ensure_interval(7200)
        assert changed
        assert dev.current_rpi != before
        assert dev.current_rpi.interval_index == 1

    def test_no_rotation_inside_window(self):
        dev = _device()
        dev.ensure_interval(100)
        assert not dev.ensure_interval(110)

    def test_own_echo_filtered(self):
        dev = _device()
        dev.ensure_interval(0)
        echo = _delivery(dev.outgoing_packets(0)[0])
        assert dev.receive([echo], 0) == 0
        assert oracles.observations(dev) == []

    def test_observation_stored_per_delivery(self):
        dev = _device()
        dev.ensure_interval(0)
        packet, _, rpi = _peer_packet()
        assert dev.receive([_delivery(packet)], 0) == 1
        (obs,) = oracles.observations(dev)
        assert obs.rpi == rpi.bytes
        assert obs.scan_time == 0

    def test_actguard_one_row_per_bucket(self):
        dev = _device(actguard=True)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):  # three ticks inside one 300 s bucket
            dev.ensure_interval(t)
            dev.receive([_delivery(packet)], t)
        assert len(oracles.records(dev.contact_rows())) == 1
        assert len(oracles.observations(dev)) == 3

    def test_unchanged_inbox_extends_one_run(self):
        dev = _device(actguard=True)
        packet, _, rpi = _peer_packet()
        inbox = (_delivery(packet),)
        for t in range(0, 610, 10):
            assert dev.receive(inbox, t) == 1
        assert len(dev._spans) == 1
        assert [o.scan_time for o in oracles.observations(dev)] == list(range(0, 610, 10))
        assert dev.report(610)[0]["observations"] == 61
        # one contact row per time bucket, not per sighting
        assert [bucket for *_, bucket in oracles.records(dev.contact_rows())] == [0, 1, 2]

    def test_scan_must_follow_the_last(self):
        dev = _device()
        packet, _, _ = _peer_packet()
        dev.receive([_delivery(packet)], 10)
        for t in (10, 5):
            with pytest.raises(ValueError, match="does not follow"):
                dev.receive([_delivery(packet)], t)
        assert len(oracles.observations(dev)) == 1

    def test_tek_retention_purges_old_days(self):
        dev = _device()
        for day in range(20):
            dev.ensure_interval(day * 86400)
        assert sorted(dev.teks) == list(range(6, 20))
        assert len(dev.teks) == 14

    def test_each_day_derives_its_subkeys_once(self, monkeypatch):
        # Every rotation of a day reuses the day's keyed subkeys, which go
        # with the day's key and come from one HKDF extract of it; the
        # packets are those of the independent oracle.
        extracted = []
        extract = gaen._EXTRACT

        class CountingExtract:
            def digest(self, ikm):
                extracted.append(ikm)
                return extract.digest(ikm)

        monkeypatch.setattr(gaen, "_EXTRACT", CountingExtract())
        dev = _device()
        packets = []
        for t in range(0, 20 * 86400, PARAMS.rotation_seconds):
            dev.ensure_interval(t)
            packets.append(dev.outgoing_packets(t)[0])
        assert extracted == [oracles.tek_bytes(dev.seed, day) for day in range(20)]
        assert sorted(dev._subkeys) == sorted(dev.teks) == list(range(6, 20))
        expected = []
        for day in range(20):
            tek = oracles.tek_bytes(dev.seed, day)
            rpik, aemk = oracles.hkdf16(tek, b"SIM-RPIK"), oracles.hkdf16(tek, b"SIM-AEMK")
            for interval in range(PARAMS.intervals_per_day):
                rpi = oracles.rpi_bytes(rpik, interval)
                aem = oracles.aem_bytes(aemk, rpi, PARAMS.tx_power_dbm)
                expected.append(radio.encode_advertisement(rpi, aem))
        assert packets == expected


class TestSniffer:
    def test_capture_appends_per_tick(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        sniffer = SnifferAdversary("adv2", HERE, "Y", db)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):
            sniffer.sniff_tick([_delivery(packet, sender="victim")], t)
        assert len(oracles.capture_entries(db)) == db.captures(sniffer.rank) == 3
        assert [e.capture_time for e in oracles.capture_entries(db)] == [0, 10, 20]
        assert all(e.packet == packet for e in oracles.capture_entries(db))

    def test_non_protocol_packet_not_captured(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        sniffer = SnifferAdversary("adv2", HERE, "Y", db)
        bogus = (0x1809).to_bytes(2, "little") + bytes(20)
        sniffer.sniff_tick([_delivery(bogus, sender="thermometer")], 0)
        assert len(oracles.capture_entries(db)) == db.captures(sniffer.rank) == 0

    def test_never_transmits(self):
        sniffer = SnifferAdversary("adv2", HERE, "Y", MaliciousDatabase(PARAMS.tick_seconds))
        assert sniffer.outgoing_packets(0) == ()


# Each sniffer's inbox on a tick: mostly its last one again (None), else a
# new one of packets 0-4, 5 standing for a non-advertisement and 6 for
# packet 0 heard from a second sender.  Long runs and few openings let the
# front of the replay queue slide for many ticks between recomputes.
INBOX = st.sampled_from(
    [None] * 9 + [(), (0,), (1,), (2,), (0, 1), (1, 0), (3, 3), (2, 5), (6,), (4, 6, 1)]
)


class TestRebroadcaster:
    def test_empty_database_transmits_nothing(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(), db)
        assert adv.rebroadcast_tick(100) == ()

    def test_relay_delay_gates_transmission(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=60, replay_ttl=7200), db)
        packet, _, _ = _peer_packet()
        db.capture(-1, (packet,), 0)
        assert adv.rebroadcast_tick(50) == ()
        assert adv.rebroadcast_tick(60) == (packet,)

    def test_replay_stops_after_ttl(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0, replay_ttl=7200), db)
        packet, _, _ = _peer_packet()
        db.capture(-1, (packet,), 100)
        assert adv.rebroadcast_tick(7200) == (packet,)
        assert adv.rebroadcast_tick(7300) == ()

    def test_replay_is_verbatim(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0), db)
        packet, _, _ = _peer_packet()
        db.capture(-1, (packet,), 0)
        (replayed,) = adv.rebroadcast_tick(10)
        assert replayed == packet
        assert any(e.packet == replayed for e in oracles.capture_entries(db))

    def test_identical_captures_collapse_per_tick(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0), db)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):
            db.capture(-1, (packet,), t)
        assert adv.rebroadcast_tick(30) == (packet,)

    def test_out_of_order_capture_rejected(self):
        db = MaliciousDatabase(PARAMS.tick_seconds)
        db.capture(-1, (b"a",), 10)
        with pytest.raises(ValueError, match="precedes"):
            db.capture(-1, (b"b",), 0)

    # An op is one tick: (ticks since the last op's, whether the sniffers
    # scanned their last inbox again on the ticks in between, the packets
    # captured outside any sniffer, each sniffer's inbox).
    @settings(max_examples=300, deadline=None)
    @example(
        # Sniffer 1 hears packet 0 from t=0 and sniffer 0 packet 1 from t=50,
        # each on one reused inbox.  At t=140 both packets' first capture in
        # the window is at t=50, so the rank orders them; at t=130 the older
        # run's capture at t=40 still put packet 0 first.
        tick=10,
        ops=[(1, False, None, ((), (0,)))] + [(1, False, None, (None, None))] * 4
        + [(1, False, None, ((1,), None))] + [(1, False, None, (None, None))] * 10,
        relay_delay=0,
        replay_ttl=100,
    )
    # The same, with the ticks from t=10 to t=40 repeated as a world
    # repeats quiet ticks: the sniffers catch up before the read at t=50.
    @example(
        tick=10,
        ops=[(1, False, None, ((), (0,))), (5, True, None, ((1,), None))]
        + [(1, False, None, (None, None))] * 10,
        relay_delay=0,
        replay_ttl=100,
    )
    # A run closed by a new inbox at t=10 leaves the window at t=20.
    @example(
        tick=10,
        ops=[(1, False, None, ((0,), ())), (1, False, None, ((1,), None))]
        + [(1, False, None, (None, None))],
        relay_delay=0,
        replay_ttl=20,
    )
    # A run still open, not extended since, leaves the window at t=20.
    @example(
        tick=10,
        ops=[(1, False, None, ((0,), ())), (2, False, None, (None, None))],
        relay_delay=0,
        replay_ttl=20,
    )
    # Under a window no longer than a tick, each capture of an open run has
    # left the window by the next read: nothing is ever replayed.
    @example(
        tick=10,
        ops=[(1, False, None, ((0,), ()))] + [(1, False, None, (None, None))] * 3,
        relay_delay=0,
        replay_ttl=10,
    )
    # The window (t-15, t-10] is narrower than a 7 s tick: each read sees
    # the one capture of the open run made two ticks before it.
    @example(
        tick=7,
        ops=[(1, False, None, ((0,), ()))] + [(1, False, None, (None, None))] * 5,
        relay_delay=10,
        replay_ttl=15,
    )
    @given(
        tick=st.sampled_from([7, 10]),
        ops=st.lists(
            st.tuples(
                st.sampled_from([1] * 6 + [2, 4]),
                st.booleans(),
                # None: no capture; (): the open run outside any sniffer closes
                st.sampled_from([None] * 14 + [(), (0,), (1,), (4,), (2, 2), (3, 0)]),
                st.tuples(INBOX, INBOX),
            ),
            min_size=20,
            max_size=60,
        ),
        relay_delay=st.integers(0, 90),
        replay_ttl=st.integers(1, 150),
    )
    def test_replay_queue_equals_window_scan(self, tick, ops, relay_delay, replay_ttl):
        # Driven as a world's tick loop drives the pair: on each tick the
        # rebroadcaster reads first, then the captures outside any sniffer
        # are made, then each sniffer scans in rank order.
        db = MaliciousDatabase(tick)
        attack = AttackSpec(relay_delay=relay_delay, replay_ttl=replay_ttl)
        adv = RebroadcastAdversary("adv1", HERE, attack, db)
        sniffers = [SnifferAdversary(f"s{i}", HERE, "Y", db) for i in (0, 1)]
        packets = [radio.encode_advertisement(bytes([k]) * 16, bytes(4)) for k in range(5)]
        inboxes: list[tuple] = [(), ()]
        heard: list[list[bytes]] = [[], []]  # the protocol packets of each inbox
        captures = []  # (time, rank, packet) in call order
        queue = None
        now = -tick
        for gap, repeated, outside, fresh in ops:
            if repeated and gap > 1:  # caught up at once, as a world catches up
                through = now + (gap - 1) * tick
                for i, sniffer in enumerate(sniffers):
                    sniffer.repeat(through)
                    captures += [(t, i, p) for t in range(now + tick, through + 1, tick)
                                 for p in heard[i]]
            now += gap * tick
            in_order = [(p, t) for t, _, p in sorted(captures, key=lambda c: c[:2])]
            expected = naive_replay_queue(in_order, now, relay_delay, replay_ttl)
            got = adv.rebroadcast_tick(now)
            assert got == expected
            assert adv.replay_queue is got
            if got == queue:  # the same object while the queue is unchanged
                assert got is queue
            queue = got
            if outside is not None:
                db.capture(-1, tuple(packets[k] for k in outside), now)
                captures += [(now, -1, packets[k]) for k in outside]
            for i, inbox in enumerate(fresh):
                if inbox is not None:
                    inboxes[i] = tuple(
                        _delivery(bytes(22), sender="v") if k == 5
                        else _delivery(packets[0], sender="w") if k == 6
                        else _delivery(packets[k], sender="v")
                        for k in inbox
                    )
                    heard[i] = [packets[0 if k == 6 else k] for k in inbox if k != 5]
                sniffers[i].sniff_tick(inboxes[i], now)
                captures += [(now, i, p) for p in heard[i]]
        in_order = [(p, t) for t, _, p in sorted(captures, key=lambda c: c[:2])]
        assert oracles.capture_entries(db) == in_order
        assert len(oracles.capture_entries(db)) == len(captures)
        assert sum(db.captures(s.rank) for s in sniffers) == sum(1 for c in captures if c[1] >= 0)


class TestDiagnosisUpload:
    def test_chunk_index_increments(self):
        backend = BackendStore(PARAMS)
        a, b = _device("a"), _device("b")
        for dev in (a, b):
            dev.ensure_interval(0)
        otp1 = backend.authorize_otp(3600, now=100)
        otp2 = backend.authorize_otp(3600, now=100)
        id1, _ = a.diagnose_and_upload(backend, otp1.code, now=100)
        id2, _ = b.diagnose_and_upload(backend, otp2.code, now=100)
        assert (id1, id2) == (1, 2)

    def test_reused_otp_rejected_without_state_change(self):
        backend = BackendStore(PARAMS)
        dev = _device()
        dev.ensure_interval(0)
        otp = backend.authorize_otp(3600, now=0)
        dev.diagnose_and_upload(backend, otp.code, now=0)
        before = dict(dev.teks)
        with pytest.raises(OtpError):
            dev.diagnose_and_upload(backend, otp.code, now=10)
        assert backend.chunk_count == 1
        assert dev.teks == before

    def test_no_defense_means_no_hash_batch(self):
        backend = BackendStore(PARAMS)
        dev = _device(actguard=False)
        dev.ensure_interval(0)
        otp = backend.authorize_otp(3600, now=0)
        diagnosis_id, payload = dev.diagnose_and_upload(backend, otp.code, now=0)
        assert backend.fetch_hash_batch(diagnosis_id) is None
        assert b"hashes" not in payload

    def test_defended_device_uploads_its_table(self):
        backend = BackendStore(PARAMS)
        dev = _device(actguard=True)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 310):
            dev.ensure_interval(t)
            dev.receive([_delivery(packet)], t)
        otp = backend.authorize_otp(3600, now=400)
        diagnosis_id, _ = dev.diagnose_and_upload(backend, otp.code, now=400)
        batch = backend.fetch_hash_batch(diagnosis_id)
        assert batch == b"".join(sorted(actguard.digests(dev.contact_rows())))
        assert len(batch) == 2 * actguard.CONTACT_HASH_LENGTH  # two buckets spanned


class TestExposureCheck:
    def _infected_pair(self):
        backend = BackendStore(PARAMS)
        victim = _device("victim")
        positive = _device("positive")
        positive.ensure_interval(0)
        # victim hears the positive device for 15 minutes
        aem_packet = positive.outgoing_packets(0)[0]
        for t in range(0, 900, 10):
            victim.ensure_interval(t)
            victim.receive([_delivery(aem_packet, sender="positive")], t)
        otp = backend.authorize_otp(3600, now=900)
        positive.diagnose_and_upload(backend, otp.code, now=900)
        return backend, victim

    def test_match_and_alert(self):
        backend, victim = self._infected_pair()
        victim.poll_backend(backend, now=900)
        state = victim.evaluate_exposure()
        assert state.gaen_alert
        assert oracles.match_counts(victim) == {1: 90}
        assert state.verdicts == {}  # defense disabled

    def test_poll_reads_the_newest_id_without_scanning_the_rest(self):
        class Unscannable(dict):
            def __iter__(self):
                raise AssertionError("the poll scanned every downloaded id")

        backend, victim = self._infected_pair()
        victim.downloads.chunks = Unscannable()
        assert victim.poll_backend(backend, now=900) == [1]
        other = _device("other")
        other.ensure_interval(0)
        other.diagnose_and_upload(backend, backend.authorize_otp(3600, now=910).code, now=910)
        assert victim.poll_backend(backend, now=910) == [2]
        assert victim.poll_backend(backend, now=920) == []
        assert list(victim.downloads.chunks.keys()) == [1, 2]

    def test_exposure_is_rescored_after_new_contact_rows(self):
        # The positive device hears the victim; the victim hears it only
        # relayed, far away, until a direct sighting after the last poll adds
        # the contact row that confirms the same RPI.
        backend = BackendStore(PARAMS)
        victim = _device("victim", actguard=True)
        positive = _device("positive", actguard=True)
        for t in range(0, 300, 10):
            positive.receive([_delivery(victim.outgoing_packets(t)[0])], t)
        otp = backend.authorize_otp(3600, now=300)
        positive.diagnose_and_upload(backend, otp.code, now=300)
        packet = positive.outgoing_packets(300)[0]
        victim.position = (44.70, 10.94)
        victim.receive([_delivery(packet, sender="relay")], 300)
        victim.poll_backend(backend, now=300)
        assert victim.evaluate_exposure().verdicts[1].kind is actguard.VerdictKind.RELAY_SUSPECTED
        victim.position = HERE
        victim.receive([_delivery(packet, sender="positive")], 310)
        assert victim.evaluate_exposure().verdicts[1].kind is actguard.VerdictKind.CONFIRMED_CONTACT

    def test_devices_sharing_a_log_score_as_with_their_own(self):
        # "me" (defended) and "you" share one download log and poll one
        # backend at the same ticks, as the devices of a world do; each must
        # score as its twin with a log of its own.  Only a round's first
        # poll brings chunks.
        backend = BackendStore(PARAMS)
        positives = _device("p0", actguard=True), _device("p1", actguard=True)
        shared = DownloadLog(PARAMS)
        pairs = [
            (_device(n, actguard=g, downloads=shared), _device(n, actguard=g))
            for n, g in (("me", True), ("you", False))
        ]
        for t in range(0, 900, 10):
            heard = positives if t < 300 else positives[:1]
            for device in [d for pair in pairs for d in pair]:
                packets = [p.outgoing_packets(t)[0] for p in heard]
                device.receive([_delivery(p) for p in packets], t)
            for positive in heard:
                packets = [twin.outgoing_packets(t)[0] for _, twin in pairs]
                positive.receive([_delivery(p) for p in packets], t)

        def publish_and_read(positive, now):
            positive.diagnose_and_upload(backend, backend.authorize_otp(3600, now).code, now)
            polls = [[device.poll_backend(backend, now) for device in pair] for pair in pairs]
            states = []
            for device, twin in pairs:
                state = device.evaluate_exposure()
                assert state == twin.evaluate_exposure()
                assert {d: oracles.chunk_matches(device, d) for d in device.downloads.chunks} == {
                    d: oracles.chunk_matches(twin, d) for d in twin.downloads.chunks
                }
                states.append((oracles.match_counts(device), sorted(state.verdicts)))
            return polls, states

        assert publish_and_read(positives[0], 900) == (
            [[[1], [1]], [[], [1]]], [({1: 90}, [1]), ({1: 90}, [])]
        )
        assert publish_and_read(positives[1], 910) == (
            [[[2], [2]], [[], [2]]], [({1: 90, 2: 30}, [1, 2]), ({1: 90, 2: 30}, [])]
        )
        assert shared.chunks.keys() == pairs[0][1].downloads.chunks.keys() == {1, 2}
