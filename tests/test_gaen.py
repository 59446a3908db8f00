"""Key schedule, metadata encryption, matching, and risk scoring."""

import hmac
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import gaen
from relaysim.params import SimParams

from oracles import brute_force_matches, risk_score

# Golden vectors: generated once from the frozen derivation chain
# (HKDF-SHA256 labels SIM-RPIK / SIM-AEMK, HMAC-based TEK/RPI/AEM).
GOLDEN_SEED = bytes.fromhex("00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff")
GOLDEN_TEK_DAY0 = "67cf5d1f70a1e0df39f046e87addbd1b"
GOLDEN_TEK_DAY5 = "d97122d020e21f4ba85e6b1109967be2"
GOLDEN_TEK = gaen.Tek(bytes=bytes(range(16)), day_index=0)
GOLDEN_RPIK = "18fe5dcb69e1e3cb28f6a4e0f551711b"
GOLDEN_AEMK = "8ef19d5a44b515a9e5af6e8833d60ea4"
GOLDEN_RPI_0 = "d176dcfbbdad631dcff8f8b6d3f22b27"
GOLDEN_RPI_3 = "11d70bf4b73383b7961d6eb68494d90e"
GOLDEN_AEM_M20 = "df70ea43"
PARAMS = SimParams()


def _hmac_subkeys(tek):
    """A key's (rpik, aemk), keyed as ``derive_rpi`` and the AEM cipher take them."""
    return [gaen.HmacSha256(k) for k in gaen.derive_subkeys(tek)]


def _obs(rpi, scan_time, *, aem=b"\x00" * 4, rssi=-50.0):
    return gaen.Observation(rpi=rpi, aem=aem, rssi=rssi, scan_time=scan_time)


def _one_sighting_runs(matches):
    """Each match as a match run of one sighting, in list order: the i-th
    is given chunk i, so RPIs keep their order of first appearance."""
    return [
        gaen.MatchedSightings(
            i, m.rpi, m.tx_power_dbm - m.observation.rssi,
            range(m.observation.scan_time, m.observation.scan_time + 1),
        )
        for i, m in enumerate(matches)
    ]


class TestKeySchedule:
    def test_tek_is_16_bytes(self):
        tek = gaen.generate_tek(b"any-seed", 3)
        assert len(tek.bytes) == 16

    def test_tek_deterministic(self):
        assert gaen.generate_tek(GOLDEN_SEED, 0) == gaen.generate_tek(GOLDEN_SEED, 0)

    def test_teks_differ_across_days(self):
        assert gaen.generate_tek(GOLDEN_SEED, 0).bytes != gaen.generate_tek(GOLDEN_SEED, 1).bytes

    def test_golden_vectors(self):
        assert gaen.generate_tek(GOLDEN_SEED, 0).bytes.hex() == GOLDEN_TEK_DAY0
        assert gaen.generate_tek(GOLDEN_SEED, 5).bytes.hex() == GOLDEN_TEK_DAY5
        rpik, aemk = gaen.derive_subkeys(GOLDEN_TEK)
        assert (rpik.hex(), aemk.hex()) == (GOLDEN_RPIK, GOLDEN_AEMK)
        rpik, aemk = gaen.HmacSha256(rpik), gaen.HmacSha256(aemk)
        assert gaen.derive_rpi(rpik, 0, PARAMS).bytes.hex() == GOLDEN_RPI_0
        assert gaen.derive_rpi(rpik, 3, PARAMS).bytes.hex() == GOLDEN_RPI_3
        assert gaen.encrypt_aem(aemk, bytes.fromhex(GOLDEN_RPI_0), -20).hex() == GOLDEN_AEM_M20

    def test_independent_oracle_reproduces_goldens(self):
        # the from-primitives re-derivation in oracles.py must land on the
        # same frozen vectors as the package's own derivation chain
        import oracles

        assert oracles.tek_bytes(GOLDEN_SEED, 0).hex() == GOLDEN_TEK_DAY0
        assert oracles.hkdf16(GOLDEN_TEK.bytes, b"SIM-RPIK").hex() == GOLDEN_RPIK
        assert oracles.hkdf16(GOLDEN_TEK.bytes, b"SIM-AEMK").hex() == GOLDEN_AEMK
        rpik = bytes.fromhex(GOLDEN_RPIK)
        assert oracles.rpi_bytes(rpik, 0).hex() == GOLDEN_RPI_0
        assert oracles.rpi_bytes(rpik, 3).hex() == GOLDEN_RPI_3
        aemk = bytes.fromhex(GOLDEN_AEMK)
        assert oracles.aem_bytes(aemk, bytes.fromhex(GOLDEN_RPI_0), -20).hex() == GOLDEN_AEM_M20

    def test_hkdf_matches_rfc5869_test_case_3(self):
        # RFC 5869 Appendix A.3: SHA-256, IKM 0x0b * 22, empty salt and info.
        # A published vector keeps the check independent of both copies.
        # ``derive_subkeys`` runs the same extract-then-expand under its two
        # labels; a label asked for twice expands the same block from the
        # one extract.
        import oracles

        ikm = b"\x0b" * 22
        okm16 = "8da4e775a563c18f715f802a063c5a31"
        assert [k.hex() for k in gaen._hkdf16(ikm, b"", b"")] == [okm16, okm16]
        assert oracles.hkdf16(ikm, b"").hex() == okm16

    def test_rpik_and_aemk_differ(self):
        rpik, aemk = gaen.derive_subkeys(GOLDEN_TEK)
        assert rpik != aemk

    def test_rpik_unique_over_many_teks(self):
        rng = random.Random(41)
        seen = set()
        for day in range(1000):
            tek = gaen.Tek(bytes=rng.randbytes(16), day_index=0)
            seen.add(gaen.derive_subkeys(tek)[0])
        assert len(seen) == 1000

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            gaen.generate_tek(b"s", -1)

    def test_tek_checks_its_fields_and_is_a_frozen_value(self):
        with pytest.raises(ValueError, match="^tek must be 16 bytes, got 15$"):
            gaen.Tek(bytes(15), 0)
        with pytest.raises(ValueError, match="^day_index must be >= 0$"):
            gaen.Tek(bytes(16), -1)
        tek = gaen.Tek(bytes=bytes(16), day_index=2)
        assert tek == gaen.Tek(bytes(16), 2) != gaen.Tek(bytes(16), 3)
        assert hash(tek) == hash(gaen.Tek(bytes(16), 2))
        assert repr(tek) == f"Tek(bytes={bytes(16)!r}, day_index=2)"
        with pytest.raises(AttributeError):
            tek.day_index = 3

    @pytest.mark.parametrize("day", [True, 1.0, 2.5, "1", None])
    def test_tek_day_must_be_an_int(self, day):
        # A published chunk's days are written as ints by the /chunks encoder.
        with pytest.raises(ValueError, match="^day_index must be an integer, got "):
            gaen.Tek(bytes(16), day)


class TestRpi:
    def test_deterministic(self):
        rpik = _hmac_subkeys(GOLDEN_TEK)[0]
        assert gaen.derive_rpi(rpik, 4, PARAMS) == gaen.derive_rpi(rpik, 4, PARAMS)

    def test_twelve_distinct_per_day(self):
        # 24 h / 2 h rotation = 12 windows
        rpis = gaen.expand_diagnosis_key(GOLDEN_TEK, SimParams(rotation_seconds=7200))
        assert len(rpis) == 12
        assert len({r.bytes for r in rpis}) == 12

    def test_interval_out_of_range(self):
        rpik = _hmac_subkeys(GOLDEN_TEK)[0]
        with pytest.raises(ValueError):
            gaen.derive_rpi(rpik, 12, PARAMS)
        with pytest.raises(ValueError):
            gaen.derive_rpi(rpik, -1, PARAMS)

    def test_expand_matches_direct_derivation(self):
        rpik = _hmac_subkeys(GOLDEN_TEK)[0]
        expanded = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)
        for i, rpi in enumerate(expanded):
            assert rpi.interval_index == i
            assert rpi == gaen.derive_rpi(rpik, i, PARAMS)
        assert expanded[3] == gaen.derive_rpi(rpik, 3, PARAMS)

    def test_two_teks_expand_to_disjoint_sets(self):
        other = gaen.Tek(bytes=bytes(range(16, 32)), day_index=0)
        a = {r.bytes for r in gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)}
        b = {r.bytes for r in gaen.expand_diagnosis_key(other, PARAMS)}
        assert not a & b


DAY1_TEK = gaen.Tek(bytes=bytes(range(16)), day_index=1)


def _widened_start(tek, rpi, params):
    start, _ = gaen.rpi_window(tek.day_index, rpi.interval_index, params.rotation_seconds)
    return start - params.clock_tolerance_seconds


class TestExpansionBound:
    """A key expanded through ``until`` is the prefix of its full expansion
    whose windows, widened by the tolerance, start at or before ``until``."""

    @pytest.mark.parametrize("tolerance", [0, 30])
    def test_the_prefix_that_starts_by_until(self, tolerance):
        params = SimParams(clock_tolerance_seconds=tolerance)
        full = gaen.expand_diagnosis_key(DAY1_TEK, params)
        assert [r.interval_index for r in full] == list(range(12))
        day = 86400 - tolerance  # the widened start of the key's first window
        counts = {
            0: 0,
            day - 1: 0,  # before the key's day
            day: 1,
            day + 3 * 7200 - 1: 3,  # one second before a boundary
            day + 3 * 7200: 4,  # exactly at it
            day + 11 * 7200 - 1: 11,
            day + 11 * 7200: 12,
            3 * 86400: 12,  # past the key's day
            math.inf: 12,
        }
        for until, count in counts.items():
            bounded = gaen.expand_diagnosis_key(DAY1_TEK, params, until)
            assert bounded == full[:count], until
            assert bounded == [r for r in full if _widened_start(DAY1_TEK, r, params) <= until]

    @settings(max_examples=200)
    @given(
        rotation=st.sampled_from([600, 7200, 86400]),
        tolerance=st.sampled_from([0, 30, 9000]),
        until=st.integers(-1, 3 * 86400),
    )
    def test_bounded_index_holds_the_entries_that_start_by_until(self, rotation, tolerance, until):
        params = SimParams(rotation_seconds=rotation, clock_tolerance_seconds=tolerance)
        teks = [GOLDEN_TEK, DAY1_TEK]
        bounded = gaen.build_rpi_index(teks, params, until)
        full = {
            rpi: kept
            for rpi, entries in gaen.build_rpi_index(teks, params).items()
            if (kept := [e for e in entries if e.start - tolerance <= until])
        }
        assert bounded.keys() == full.keys()
        for rpi, entries in full.items():
            got = bounded[rpi]
            assert [(e.tek, e.interval_index, e.start, e.end) for e in got] == [
                (e.tek, e.interval_index, e.start, e.end) for e in entries
            ]

    def test_a_key_with_no_pseudonym_left_derives_no_subkey(self, monkeypatch):
        derived = []
        derive = gaen.derive_subkeys
        monkeypatch.setattr(gaen, "derive_subkeys", lambda tek: derived.append(tek) or derive(tek))
        assert gaen.build_rpi_index([DAY1_TEK], PARAMS, 86399) == {}
        assert derived == []
        assert len(gaen.build_rpi_index([DAY1_TEK], PARAMS, 86400)) == 1
        assert set(derived) == {DAY1_TEK}


class TestAem:
    def test_round_trip(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = bytes.fromhex(GOLDEN_RPI_0)
        assert gaen.decrypt_aem(aemk, rpi, gaen.encrypt_aem(aemk, rpi, -20)) == -20

    def test_length_is_4(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        assert len(gaen.encrypt_aem(aemk, bytes.fromhex(GOLDEN_RPI_0), 7)) == 4

    def test_round_trip_entire_power_range(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = bytes.fromhex(GOLDEN_RPI_3)
        for tx in range(-127, 128):
            assert gaen.decrypt_aem(aemk, rpi, gaen.encrypt_aem(aemk, rpi, tx)) == tx

    def test_out_of_range_power_rejected(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        with pytest.raises(ValueError):
            gaen.encrypt_aem(aemk, bytes.fromhex(GOLDEN_RPI_0), 128)

    def test_wrong_rpi_garbles_without_error(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = bytes.fromhex(GOLDEN_RPI_0)
        aem = gaen.encrypt_aem(aemk, rpi, -20)
        rng = random.Random(99)
        accidental = sum(
            gaen.decrypt_aem(aemk, rng.randbytes(16), aem) == -20 for _ in range(100)
        )
        assert accidental == 0


class TestMatching:
    def test_observation_inside_window_matches(self):
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[2]
        obs = _obs(rpi.bytes, scan_time=2 * 7200 + 100)
        matches = gaen.match_observations([GOLDEN_TEK], [obs], PARAMS)
        assert len(matches) == 1
        assert matches[0].interval_index == 2

    def test_rebroadcast_after_window_not_matched(self):
        # stale replay: same bytes, three hours past the window end
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        obs = _obs(rpi.bytes, scan_time=7200 + 3 * 3600)
        no_tolerance = SimParams(clock_tolerance_seconds=0)
        assert gaen.match_observations([GOLDEN_TEK], [obs], no_tolerance) == []

    def test_expiry_boundary_is_half_open(self):
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        tol = 30
        at_boundary = _obs(rpi.bytes, scan_time=7200 + tol)
        just_inside = _obs(rpi.bytes, scan_time=7200 + tol - 1)
        params = SimParams(clock_tolerance_seconds=tol)
        assert gaen.match_observations([GOLDEN_TEK], [at_boundary], params) == []
        assert len(gaen.match_observations([GOLDEN_TEK], [just_inside], params)) == 1

    def test_decrypted_power_rides_along(self):
        # Each sighting's own AEM is decrypted, also when its RPI repeats.
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[1]
        powers = [-7, -30, -7]
        observations = [
            _obs(rpi.bytes, scan_time=7200 + 50 + i, aem=gaen.encrypt_aem(aemk, rpi.bytes, p))
            for i, p in enumerate(powers)
        ]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        assert [m.tx_power_dbm for m in matches] == powers

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(2024)
        for _ in range(5):
            teks = [
                gaen.generate_tek(rng.randbytes(32), day)
                for day in range(rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            observations = []
            for _ in range(30):
                if rng.random() < 0.7:
                    tek = rng.choice(teks)
                    rpi = rng.choice(gaen.expand_diagnosis_key(tek, PARAMS))
                    start = tek.day_index * 86400 + rpi.interval_index * 7200
                    t = max(0, start + rng.randint(-9000, 16000))
                    observations.append(_obs(rpi.bytes, t, rssi=-40.0 - rng.random()))
                else:
                    observations.append(_obs(rng.randbytes(16), rng.randint(0, 3 * 86400)))
            tolerance = rng.choice([0, 30, 600])
            got = {
                (m.tek.bytes, m.tek.day_index, m.observation)
                for m in gaen.match_observations(
                    teks, observations, SimParams(clock_tolerance_seconds=tolerance)
                )
            }
            expected = brute_force_matches(teks, observations, tolerance, 7200)
            assert got == expected

    def test_matching_in_slices_equals_matching_whole(self):
        rpis = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)
        observations = [_obs(rpis[t // 7200].bytes, t) for t in range(0, 30000, 1700)]
        observations.insert(3, _obs(bytes(16), 100))
        index = gaen.build_rpi_index([GOLDEN_TEK], PARAMS)
        whole = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        cuts = [0, 5, 11, len(observations)]
        sliced = [
            m
            for lo, hi in zip(cuts, cuts[1:])
            for m in gaen.match_indexed(index, observations[lo:hi], PARAMS)
        ]
        assert len(whole) == len(observations) - 1
        assert sliced == whole


class TestRiskScore:
    def test_empty_matches(self):
        result = gaen.risk_score(_one_sighting_runs([]), PARAMS)
        assert result.score == 0.0
        assert not result.alert

    def test_fifteen_minute_close_contact_alerts(self):
        # 90 beacons at 10 s spacing, 1 m away: 900 s = 15 min, attenuation 40 dB
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-60.0) for t in range(0, 900, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(_one_sighting_runs(matches), SimParams(tick_seconds=10))
        assert result.score == pytest.approx(15.0)
        assert result.alert

    def test_permutation_invariant(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-55.0) for t in range(0, 600, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        shuffled = list(matches)
        random.Random(7).shuffle(shuffled)
        assert gaen.risk_score(_one_sighting_runs(matches), PARAMS) == gaen.risk_score(
            _one_sighting_runs(shuffled), PARAMS
        )

    def test_gap_longer_than_two_beacons_splits_contact(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        times = list(range(0, 300, 10)) + list(range(1000, 1300, 10))
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-55.0) for t in times]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(_one_sighting_runs(matches), SimParams(tick_seconds=10))
        # two 5-minute episodes, not one 21-minute span
        assert result.score == pytest.approx(10.0)

    def test_weak_signal_contributes_nothing(self):
        aemk = _hmac_subkeys(GOLDEN_TEK)[1]
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        # attenuation 75 dB > 60 dB threshold
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-95.0) for t in range(0, 1200, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(_one_sighting_runs(matches), PARAMS)
        assert result.score == 0.0
        assert not result.alert


A, B = b"A" * 16, b"B" * 16
TICK = PARAMS.tick_seconds
# The mean attenuation of three sightings at -59.9 dBm and three at -20.1 dBm,
# with a -20 dBm transmit power, is 19.999999999999996 when they are added
# run after run, and 20.0 when added interleaved, in sorted order, or as
# three times each attenuation.
ORDER_SENSITIVE_DB = 19.999999999999996


@settings(max_examples=200, deadline=None)
@example(
    # Direct and relayed: two runs of one RPI at two rssi values on the same
    # ticks, whose attenuations must be added interleaved.
    runs=[(A, -59.9, 0, 3), (A, -20.1, 0, 3)],
    chunks=[((-20,), ())],
    threshold=ORDER_SENSITIVE_DB,
)
@example(
    # The same two runs at -20.1 and -79.7 dBm on the same two ticks: their
    # mean attenuation is 29.900000000000002 when each tick adds the earlier
    # run's first, and 29.9 the other way round.
    runs=[(A, -20.1, 0, 2), (A, -79.7, 0, 2)],
    chunks=[((-20,), ())],
    threshold=29.9,
)
@example(
    # Two runs of one RPI one tick apart, one episode: the attenuations add
    # up run after run.
    runs=[(A, -59.9, 0, 3), (A, -20.1, 3, 3)],
    chunks=[((-20,), ())],
    threshold=ORDER_SENSITIVE_DB,
)
@example(
    # Runs 1, 2 and 3 ticks apart: a gap of two ticks keeps the episode, a
    # gap of three ends it.
    runs=[(A, -50.0, 0, 2), (A, -50.0, 3, 2), (A, -50.0, 7, 2), (A, -50.0, 12, 2)],
    chunks=[((-20,), ())],
    threshold=60.0,
)
@example(
    # B is matched in chunk 0, A only in chunk 1 though sighted first: B's
    # 4 tick episode must be added before A's two 1 tick episodes, since
    # 4/6 + 1/6 + 1/6 is 0.9999999999999999 and 1/6 + 1/6 + 4/6 is 1.0.
    runs=[(A, -50.0, 0, 1), (A, -50.0, 4, 1), (B, -50.0, 6, 4)],
    chunks=[((), (-20,)), ((-20,), ())],
    threshold=60.0,
)
@example(
    # Attenuations whose sum depends on the order, in two chunks that share
    # the RPIs, one of them under two keys (entries).
    runs=[(A, -59.9, 0, 3), (B, -79.7, 4, 2), (A, -20.1, 1, 3), (B, -60.1, 4, 5)],
    chunks=[((), (0,)), ((-20, 0), (-20,))],
    threshold=ORDER_SENSITIVE_DB,
)
@given(
    runs=st.lists(
        st.tuples(
            st.sampled_from([A, B]),
            st.sampled_from([-20.1, -50.0, -59.9, -60.1, -79.7]),
            st.integers(0, 12),  # first tick
            st.integers(1, 6),  # ticks
        ),
        min_size=1,
        max_size=6,
    ),
    # per chunk, the transmit power of each of A's and B's entries
    chunks=st.lists(
        st.tuples(*[st.lists(st.sampled_from([-20, 0]), max_size=2).map(tuple)] * 2),
        min_size=1,
        max_size=3,
    ),
    threshold=st.sampled_from([60.0, 40.0, ORDER_SENSITIVE_DB]),
)
def test_risk_score_over_match_runs_equals_per_sighting_score(runs, chunks, threshold):
    params = SimParams(attenuation_threshold_db=threshold)
    tek = gaen.Tek(bytes(16), 0)
    scored, per_sighting = [], []
    for chunk, entries in enumerate(chunks):
        matched = [
            (i, j, rpi, rssi, tx, range(first * TICK, (first + ticks) * TICK, TICK))
            for i, (rpi, rssi, first, ticks) in enumerate(runs)
            for j, tx in enumerate(entries[rpi == B])
        ]
        scored += [
            gaen.MatchedSightings(chunk, rpi, tx - rssi, times)
            for *_, rpi, rssi, tx, times in matched
        ]
        per_sighting += [
            gaen.ExposureMatch(tek, rpi, 0, tx, _obs(rpi, t, rssi=rssi))
            for t, _, _, rpi, rssi, tx in sorted(
                (t, i, j, rpi, rssi, tx) for i, j, rpi, rssi, tx, times in matched for t in times
            )
        ]
    got, expected = gaen.risk_score(scored, params), risk_score(per_sighting, params)
    assert (got.score.hex(), got.alert) == (expected.score.hex(), expected.alert)


@given(tx=st.integers(min_value=-127, max_value=127), key=st.binary(min_size=16, max_size=16))
def test_aem_round_trip_property(tx, key):
    rpi = bytes.fromhex(GOLDEN_RPI_0)
    aemk = gaen.HmacSha256(key)
    assert gaen.decrypt_aem(aemk, rpi, gaen.encrypt_aem(aemk, rpi, tx)) == tx


@given(tek_bytes=st.binary(min_size=16, max_size=16))
def test_key_schedule_fan_out_property(tek_bytes):
    # subkeys differ and the day's pseudonyms are pairwise distinct
    tek = gaen.Tek(bytes=tek_bytes, day_index=0)
    rpik, aemk = gaen.derive_subkeys(tek)
    assert rpik != aemk
    rpis = gaen.expand_diagnosis_key(tek, PARAMS)
    assert len({r.bytes for r in rpis}) == len(rpis) == 12


@settings(max_examples=300)
@given(key=st.binary(max_size=130), message=st.binary(max_size=200))
@example(key=bytes(range(64)), message=b"a block-long key is padded, not hashed")
@example(key=bytes(range(65)), message=b"a longer key is hashed first")
def test_hmac_equals_the_standard_library(key, message):
    keyed = gaen.HmacSha256(key)
    expected = hmac.digest(key, message, "sha256")
    assert keyed.digest(message) == expected
    assert keyed.digest(message) == expected  # the keyed states are copied, not consumed
