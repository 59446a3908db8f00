"""Device and adversary behavior: rotation, scanning, relaying, uploading."""

import pytest
from hypothesis import given, settings, strategies as st

from relaysim import gaen, radio
from relaysim.agents import (
    HonestDevice,
    MaliciousDatabase,
    RebroadcastAdversary,
    SnifferAdversary,
)
from relaysim.backend import BackendStore, BackendUnavailable, OtpError
from relaysim.params import AttackSpec, SimParams

from oracles import naive_replay_queue

PARAMS = SimParams()
HERE = (44.63, 10.94)


def _device(name="dev", *, actguard=False, position=HERE):
    return HonestDevice(name, seed=name.encode() * 4, position=position,
                        params=PARAMS, actguard_enabled=actguard)


def _delivery(receiver, packet, *, sender="peer", rssi=-45.0):
    return radio.Delivery(sender=sender, receiver=receiver, packet=packet, rssi=rssi)


def _peer_packet(seed=b"peerseed", day=0, interval=0, tx=-20):
    tek = gaen.generate_tek(seed, day)
    rpi = gaen.derive_rpi(gaen.derive_rpik(tek), interval, PARAMS)
    aem = gaen.encrypt_aem(gaen.derive_aemk(tek), rpi.bytes, tx)
    return radio.encode_advertisement(rpi.bytes, aem), tek, rpi


class TestHonestDevice:
    def test_rpi_matches_schedule(self):
        dev = _device()
        dev.ensure_interval(0)
        tek = gaen.generate_tek(dev.seed, 0)
        expected = gaen.derive_rpi(gaen.derive_rpik(tek), 0, PARAMS)
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
        echo = _delivery("dev", dev.current_packet)
        assert dev.receive([echo], 0) == 0
        assert dev.observations == []

    def test_observation_stored_per_delivery(self):
        dev = _device()
        dev.ensure_interval(0)
        packet, _, rpi = _peer_packet()
        assert dev.receive([_delivery("dev", packet)], 0) == 1
        (obs,) = dev.observations
        assert obs.rpi == rpi.bytes
        assert obs.scan_time == 0
        assert obs.location == HERE

    def test_deliveries_for_others_ignored(self):
        dev = _device()
        dev.ensure_interval(0)
        packet, _, _ = _peer_packet()
        assert dev.receive([_delivery("someone-else", packet)], 0) == 0

    def test_actguard_one_row_per_bucket(self):
        dev = _device(actguard=True)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):  # three ticks inside one 300 s bucket
            dev.ensure_interval(t)
            dev.receive([_delivery("dev", packet)], t)
        assert len(dev.contacts) == 1
        assert len(dev.observations) == 3

    def test_tek_retention_purges_old_days(self):
        dev = _device()
        for day in range(20):
            dev.ensure_interval(day * 86400)
        assert sorted(dev.teks) == list(range(6, 20))
        assert len(dev.teks) == 14


class TestSniffer:
    def test_capture_appends_per_tick(self):
        db = MaliciousDatabase()
        sniffer = SnifferAdversary("adv2", HERE, "Y", db)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):
            sniffer.sniff_tick([_delivery("adv2", packet, sender="victim")], t)
        assert len(db) == sniffer.captures == 3
        assert [e.capture_time for e in db.entries] == [0, 10, 20]
        assert all(e.packet == packet for e in db.entries)

    def test_non_protocol_packet_not_captured(self):
        db = MaliciousDatabase()
        sniffer = SnifferAdversary("adv2", HERE, "Y", db)
        bogus = (0x1809).to_bytes(2, "little") + bytes(20)
        sniffer.sniff_tick([_delivery("adv2", bogus, sender="thermometer")], 0)
        assert len(db) == sniffer.captures == 0

    def test_only_own_deliveries_captured(self):
        db = MaliciousDatabase()
        sniffer = SnifferAdversary("adv2", HERE, "Y", db)
        packet, _, _ = _peer_packet()
        sniffer.sniff_tick([_delivery("other", packet, sender="victim")], 0)
        assert len(db) == 0

    def test_never_transmits(self):
        sniffer = SnifferAdversary("adv2", HERE, "Y", MaliciousDatabase())
        assert sniffer.outgoing_packets(0) == ()


class TestRebroadcaster:
    def test_empty_database_transmits_nothing(self):
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(), MaliciousDatabase())
        assert adv.rebroadcast_tick(100) == ()

    def test_relay_delay_gates_transmission(self):
        db = MaliciousDatabase()
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=60, replay_ttl=7200), db)
        packet, _, _ = _peer_packet()
        db.append(packet, capture_time=0)
        assert adv.rebroadcast_tick(50) == ()
        assert adv.rebroadcast_tick(60) == (packet,)

    def test_replay_stops_after_ttl(self):
        db = MaliciousDatabase()
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0, replay_ttl=7200), db)
        packet, _, _ = _peer_packet()
        db.append(packet, capture_time=100)
        assert adv.rebroadcast_tick(7200) == (packet,)
        assert adv.rebroadcast_tick(7300) == ()

    def test_replay_is_verbatim(self):
        db = MaliciousDatabase()
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0), db)
        packet, _, _ = _peer_packet()
        db.append(packet, capture_time=0)
        (replayed,) = adv.rebroadcast_tick(10)
        assert replayed == packet
        assert any(e.packet == replayed for e in db.entries)

    def test_identical_captures_collapse_per_tick(self):
        db = MaliciousDatabase()
        adv = RebroadcastAdversary("adv1", HERE, AttackSpec(relay_delay=0), db)
        packet, _, _ = _peer_packet()
        for t in (0, 10, 20):
            db.append(packet, capture_time=t)
        assert adv.rebroadcast_tick(30) == (packet,)

    def test_out_of_order_capture_rejected(self):
        db = MaliciousDatabase()
        db.append(b"a", capture_time=10)
        with pytest.raises(ValueError, match="precedes"):
            db.append(b"b", capture_time=9)

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                # capture one of a few packets, so copies repeat
                st.tuples(st.just("capture"), st.integers(0, 4), st.integers(0, 30)),
                st.tuples(st.just("tick"), st.integers(0, 30)),
            ),
            max_size=60,
        ),
        relay_delay=st.integers(0, 90),
        replay_ttl=st.integers(1, 150),
    )
    def test_replay_queue_equals_window_scan(self, ops, relay_delay, replay_ttl):
        db = MaliciousDatabase()
        attack = AttackSpec(relay_delay=relay_delay, replay_ttl=replay_ttl)
        adv = RebroadcastAdversary("adv1", HERE, attack, db)
        captures = []
        now = 0
        for op in ops:
            now += op[-1]
            if op[0] == "capture":
                packet = bytes([op[1]]) * 22
                db.append(packet, capture_time=now)
                captures.append((packet, now))
            else:
                expected = naive_replay_queue(captures, now, relay_delay, replay_ttl)
                assert adv.rebroadcast_tick(now) == expected
                assert adv.replay_queue == expected


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
            dev.receive([_delivery("dev", packet)], t)
        otp = backend.authorize_otp(3600, now=400)
        diagnosis_id, _ = dev.diagnose_and_upload(backend, otp.code, now=400)
        batch = backend.fetch_hash_batch(diagnosis_id)
        assert batch == frozenset(dev.contacts.hashes())
        assert len(batch) == 2  # two buckets spanned


class _FlakyBackend:
    def fetch_chunks(self, since_index, now):
        raise BackendUnavailable("network down")


class TestExposureCheck:
    def _infected_pair(self):
        backend = BackendStore(PARAMS)
        victim = _device("victim")
        positive = _device("positive")
        positive.ensure_interval(0)
        # victim hears the positive device for 15 minutes
        aem_packet = positive.current_packet
        for t in range(0, 900, 10):
            victim.ensure_interval(t)
            victim.receive([_delivery("victim", aem_packet, sender="positive")], t)
        otp = backend.authorize_otp(3600, now=900)
        positive.diagnose_and_upload(backend, otp.code, now=900)
        return backend, victim

    def test_match_and_alert(self):
        backend, victim = self._infected_pair()
        state = victim.exposure_check(backend, now=900)
        assert state.gaen_alert
        assert state.matches_by_diagnosis == {1: 90}
        assert state.verdicts == {}  # defense disabled

    def test_unreachable_backend_skips_round(self):
        backend, victim = self._infected_pair()
        state = victim.exposure_check(_FlakyBackend(), now=900)
        assert not state.gaen_alert  # unchanged cached state
        state = victim.exposure_check(backend, now=910)
        assert state.gaen_alert
