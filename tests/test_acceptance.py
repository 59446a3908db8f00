"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance and count is pinned here; nothing is calibrated
after the fact.
"""

import json
import random
import time
from contextlib import contextmanager

from relaysim import actguard, gaen, scenario
from relaysim.actguard import GeoCell, TimeBucket
from relaysim.backend import BackendStore, OtpError
from relaysim.params import SimParams
from relaysim.wire import BackendHTTPServer

from conftest import ManualClock, replay_wire_fixtures
from oracles import brute_force_matches

PARAMS = SimParams()
BUNDLED = ["no_attack", "relay_gaen_only", "replay_expired", "scenario1", "scenario2"]


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    print(f"PASS  criterion {number}: {title}")


def _verdicts(report, actor):
    return {v["diagnosis_id"]: v["verdict"] for v in report.actor(actor)["verdicts"]}


def test_criterion_1_vulnerability_reproduction():
    with criterion(1, "relay victim alerts exactly like a genuine contact"):
        started = time.monotonic()
        report = scenario.run(scenario.load_builtin("relay_gaen_only"))
        elapsed = time.monotonic() - started
        assert report.actor("A")["gaen_alert"] is True
        assert report.actor("C")["gaen_alert"] is True
        assert report.actor("A")["gaen_alert"] == report.actor("C")["gaen_alert"]
        assert elapsed < 5.0, f"run took {elapsed:.2f}s"


def test_criterion_2_defense_scenario1():
    with criterion(2, "defense confirms the genuine contact and flags the relayed one"):
        report = scenario.run(scenario.load_builtin("scenario1"))
        assert _verdicts(report, "C") == {1: "ConfirmedContact"}
        assert _verdicts(report, "A") == {1: "RelaySuspected"}
        assert report.actor("A")["gaen_alert"] is True
        assert report.actor("C")["gaen_alert"] is True


def test_criterion_3_defense_limit_scenario2():
    with criterion(3, "without the uploader's hashes both exposures are unverifiable"):
        report = scenario.run(scenario.load_builtin("scenario2"))
        assert _verdicts(report, "A") == {1: "Unverifiable"}
        assert _verdicts(report, "C") == {1: "Unverifiable"}


def test_criterion_4_two_hour_window():
    with criterion(4, "relay delay sweep 0s/1h/3h flips the alert true/true/false"):
        base = scenario.load_builtin("relay_gaen_only").raw
        alerts = []
        for delay in (0, 3600, 10800):
            data = json.loads(json.dumps(base))
            data["attack"]["relay_delay"] = delay
            report = scenario.run(scenario.load_config(data))
            alerts.append(report.actor("A")["gaen_alert"])
        assert alerts == [True, True, False]


def test_criterion_5_matching_oracle_equivalence():
    with criterion(5, "matcher equals the brute-force oracle on 50 random instances"):
        rng = random.Random(505)
        for instance in range(50):
            n_devices = rng.randint(1, 5)
            n_days = rng.randint(1, 3)
            teks = [
                gaen.generate_tek(rng.randbytes(32), day)
                for _ in range(n_devices)
                for day in range(n_days)
            ]
            observations = []
            for _ in range(rng.randint(5, 40)):
                if rng.random() < 0.7:
                    tek = rng.choice(teks)
                    rpi = rng.choice(gaen.expand_diagnosis_key(tek, PARAMS))
                    start = tek.day_index * 86400 + rpi.interval_index * 7200
                    t = max(0, start + rng.randint(-9000, 16000))
                    rpi_bytes = rpi.bytes
                else:
                    t = rng.randint(0, n_days * 86400)
                    rpi_bytes = rng.randbytes(16)
                observations.append(
                    gaen.Observation(
                        rpi=rpi_bytes,
                        aem=rng.randbytes(4),
                        rssi=-40.0 - rng.random() * 40.0,
                        scan_time=t,
                        location=(0.0, 0.0),
                    )
                )
            diagnosis = rng.sample(teks, k=rng.randint(1, len(teks)))
            tolerance = rng.choice([0, 0, 30, 600])
            got = {
                (m.tek.bytes, m.tek.day_index, m.observation)
                for m in gaen.match_observations(
                    diagnosis, observations, SimParams(clock_tolerance_seconds=tolerance)
                )
            }
            expected = brute_force_matches(diagnosis, observations, tolerance, 7200)
            assert got == expected, f"instance {instance} diverged"


def test_criterion_6_hash_properties():
    with criterion(6, "hash symmetry and single-field sensitivity over 1e5 samples"):
        rng = random.Random(606)
        for _ in range(100_000):
            a, b = rng.randbytes(16), rng.randbytes(16)
            if a == b:
                continue
            cell = GeoCell(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            bucket = TimeBucket(rng.randint(0, 10**7))
            assert actguard.contact_hash(a, b, cell, bucket) == actguard.contact_hash(
                b, a, cell, bucket
            )

        collisions = 0
        for _ in range(100_000):
            a, b = rng.randbytes(16), rng.randbytes(16)
            if a == b:
                continue
            cell = GeoCell(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            bucket = TimeBucket(rng.randint(0, 10**7))
            base = actguard.contact_hash(a, b, cell, bucket)
            field = rng.randrange(5)
            if field == 0:
                mutated = actguard.contact_hash(rng.randbytes(16), b, cell, bucket)
            elif field == 1:
                mutated = actguard.contact_hash(a, rng.randbytes(16), cell, bucket)
            elif field == 2:
                mutated = actguard.contact_hash(
                    a, b, GeoCell(cell.lat_index + rng.choice([-1, 1]), cell.lon_index), bucket
                )
            elif field == 3:
                mutated = actguard.contact_hash(
                    a, b, GeoCell(cell.lat_index, cell.lon_index + rng.choice([-1, 1])), bucket
                )
            else:
                mutated = actguard.contact_hash(a, b, cell, TimeBucket(bucket.index + 1))
            collisions += mutated == base
        assert collisions == 0


def test_criterion_7_genuine_contact_completeness():
    with criterion(7, "100 attack-free co-located runs: zero relay accusations"):
        rng = random.Random(707)
        cell_size = 0.001
        for run_index in range(100):
            lat_cell = rng.randint(-80000, 80000)
            lon_cell = rng.randint(-170000, 170000)
            base = ((lat_cell + 0.5) * cell_size, (lon_cell + 0.5) * cell_size)

            def jitter():
                # +-3e-5 deg (~3 m): same cell, comfortably in radio range
                return (
                    base[0] + rng.uniform(-3e-5, 3e-5),
                    base[1] + rng.uniform(-3e-5, 3e-5),
                )

            data = {
                "name": f"attack-free-{run_index}",
                "seed": run_index,
                "duration": 900,
                "places": [
                    {"name": "P", "lat": base[0], "lon": base[1], "radius_m": 20.0}
                ],
                "actors": [
                    {"name": "u1", "role": "honest", "place": "P", "actguard": True,
                     "position": list(jitter())},
                    {"name": "u2", "role": "honest", "place": "P", "actguard": True,
                     "position": list(jitter())},
                ],
                "diagnosis_events": [{"actor": "u2", "at_time": 750}],
            }
            report = scenario.run(scenario.load_config(data))
            verdicts = _verdicts(report, "u1")
            assert "RelaySuspected" not in verdicts.values(), f"run {run_index}"
            assert verdicts == {1: "ConfirmedContact"}, f"run {run_index}"


def test_criterion_8_privacy_of_uploads():
    with criterion(8, "upload payloads carry only digests and protocol key fields"):
        for name in ("scenario1", "scenario2"):
            config = scenario.load_builtin(name)
            report = scenario.run(config)
            payloads = [e["payload"] for e in report.data["events"] if e["event"] == "diagnosis"]
            assert payloads, "scenario produced no uploads"

            # every pseudonym any honest device broadcast during the run
            rpis = set()
            for spec in config.actors:
                if spec.role != "honest":
                    continue
                seed = scenario._device_seed(config.seed, spec.name)
                tek = gaen.generate_tek(seed, 0)
                rpis.update(r.bytes.hex() for r in gaen.expand_diagnosis_key(tek, PARAMS))
            # plus anything that actually went over the air
            for event in report.data["events"]:
                if event["event"] in ("capture", "relay"):
                    rpis.add(event["packet"][4:36])

            for payload in payloads:
                body = json.loads(payload)
                assert set(body) <= {"otp", "teks", "hashes"}
                for rpi_hex in rpis:
                    assert rpi_hex not in payload
                assert "." not in payload  # no floats: no raw coordinates
                allowed_days = {entry["day"] for entry in body["teks"]}
                for entry in body["teks"]:
                    assert set(entry) == {"tek_hex", "day"}
                    assert entry["tek_hex"] == entry["tek_hex"].lower()
                    assert len(entry["tek_hex"]) == 32
                # the only integers anywhere are the protocol's own day indices
                ints = _collect_ints(body)
                assert ints <= allowed_days
                for digest in body.get("hashes", []):
                    assert len(digest) == 64
                    assert digest == digest.lower()


def _collect_ints(node) -> set:
    if isinstance(node, bool):
        return set()
    if isinstance(node, int):
        return {node}
    if isinstance(node, list):
        return set().union(*(_collect_ints(x) for x in node)) if node else set()
    if isinstance(node, dict):
        return set().union(*(_collect_ints(v) for v in node.values())) if node else set()
    return set()


def test_criterion_9_backend_contracts():
    with criterion(9, "chunk indices, serving cutoff, OTP lifecycle, wire goldens"):
        day = 86400
        store = BackendStore(PARAMS, rng=random.Random(909))
        teks = [gaen.generate_tek(b"c9", 100)]
        for expected in (1, 2, 3):
            otp = store.authorize_otp(3600, now=100 * day)
            assert store.ingest_diagnosis(teks, otp.code, None, now=100 * day) == expected

        from relaysim.backend import encode_chunks

        snapshot = encode_chunks(store.fetch_chunks(0, now=100 * day))
        otp = store.authorize_otp(3600, now=100 * day)
        store.ingest_diagnosis(teks, otp.code, None, now=100 * day)
        assert encode_chunks(store.fetch_chunks(0, now=100 * day)[:3]) == snapshot

        assert store.fetch_chunks(0, now=115 * day) == []  # 15 days later: all cut off
        assert len(store.fetch_chunks(0, now=114 * day)) == 4  # exactly 14 days: served

        reused = store.authorize_otp(3600, now=100 * day)
        store.ingest_diagnosis(teks, reused.code, None, now=100 * day)
        try:
            store.ingest_diagnosis(teks, reused.code, None, now=100 * day)
            assert False, "reused otp accepted"
        except OtpError:
            pass
        expired = store.authorize_otp(ttl=10, now=100 * day)
        try:
            store.ingest_diagnosis(teks, expired.code, None, now=100 * day + 11)
            assert False, "expired otp accepted"
        except OtpError:
            pass

        # exhaustive check over every scenario event log: each accepted
        # ingest used a fresh otp inside its window
        for name in BUNDLED:
            report = scenario.run(scenario.load_builtin(name))
            audit = report.data["backend"]["audit"]
            authorized = {
                e["code"]: e for e in audit if e["op"] == "authorize_otp"
            }
            seen = set()
            for entry in audit:
                if entry["op"] != "ingest" or not entry["accepted"]:
                    continue
                otp_event = authorized[entry["otp"]]
                assert otp_event["t"] <= entry["t"] <= otp_event["t"] + otp_event["ttl"]
                assert entry["otp"] not in seen
                seen.add(entry["otp"])

        clock = ManualClock(100 * day)
        store = BackendStore(PARAMS, rng=random.Random("wire-golden"))
        wire = BackendHTTPServer(store, clock, PARAMS)
        wire.start()
        try:
            assert replay_wire_fixtures(wire, clock) >= 14
        finally:
            wire.stop()


def test_criterion_10_determinism():
    with criterion(10, "every bundled scenario reruns to byte-identical reports"):
        for name in BUNDLED:
            first = scenario.run(scenario.load_builtin(name)).to_json_bytes()
            second = scenario.run(scenario.load_builtin(name)).to_json_bytes()
            assert first == second, name
