"""Key schedule, metadata encryption, matching, and risk scoring."""

import random

import pytest
from hypothesis import given, strategies as st

from relaysim import gaen
from relaysim.params import SimParams

from oracles import brute_force_matches

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


def _obs(rpi, scan_time, *, aem=b"\x00" * 4, rssi=-50.0, location=(0.0, 0.0)):
    return gaen.Observation(rpi=rpi, aem=aem, rssi=rssi, scan_time=scan_time, location=location)


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
        assert gaen.derive_rpik(GOLDEN_TEK).hex() == GOLDEN_RPIK
        assert gaen.derive_aemk(GOLDEN_TEK).hex() == GOLDEN_AEMK
        rpik = gaen.derive_rpik(GOLDEN_TEK)
        assert gaen.derive_rpi(rpik, 0, PARAMS).bytes.hex() == GOLDEN_RPI_0
        assert gaen.derive_rpi(rpik, 3, PARAMS).bytes.hex() == GOLDEN_RPI_3
        aemk = gaen.derive_aemk(GOLDEN_TEK)
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

    def test_rpik_and_aemk_differ(self):
        assert gaen.derive_rpik(GOLDEN_TEK) != gaen.derive_aemk(GOLDEN_TEK)

    def test_rpik_unique_over_many_teks(self):
        rng = random.Random(41)
        seen = set()
        for day in range(1000):
            tek = gaen.Tek(bytes=rng.randbytes(16), day_index=0)
            seen.add(gaen.derive_rpik(tek))
        assert len(seen) == 1000

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            gaen.generate_tek(b"s", -1)


class TestRpi:
    def test_deterministic(self):
        rpik = gaen.derive_rpik(GOLDEN_TEK)
        assert gaen.derive_rpi(rpik, 4, PARAMS) == gaen.derive_rpi(rpik, 4, PARAMS)

    def test_twelve_distinct_per_day(self):
        # 24 h / 2 h rotation = 12 windows
        rpis = gaen.expand_diagnosis_key(GOLDEN_TEK, SimParams(rotation_seconds=7200))
        assert len(rpis) == 12
        assert len({r.bytes for r in rpis}) == 12

    def test_interval_out_of_range(self):
        rpik = gaen.derive_rpik(GOLDEN_TEK)
        with pytest.raises(ValueError):
            gaen.derive_rpi(rpik, 12, PARAMS)
        with pytest.raises(ValueError):
            gaen.derive_rpi(rpik, -1, PARAMS)

    def test_expand_matches_direct_derivation(self):
        rpik = gaen.derive_rpik(GOLDEN_TEK)
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


class TestAem:
    def test_round_trip(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = bytes.fromhex(GOLDEN_RPI_0)
        assert gaen.decrypt_aem(aemk, rpi, gaen.encrypt_aem(aemk, rpi, -20)) == -20

    def test_length_is_4(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        assert len(gaen.encrypt_aem(aemk, bytes.fromhex(GOLDEN_RPI_0), 7)) == 4

    def test_round_trip_entire_power_range(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = bytes.fromhex(GOLDEN_RPI_3)
        for tx in range(-127, 128):
            assert gaen.decrypt_aem(aemk, rpi, gaen.encrypt_aem(aemk, rpi, tx)) == tx

    def test_out_of_range_power_rejected(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        with pytest.raises(ValueError):
            gaen.encrypt_aem(aemk, bytes.fromhex(GOLDEN_RPI_0), 128)

    def test_wrong_rpi_garbles_without_error(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
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
        aemk = gaen.derive_aemk(GOLDEN_TEK)
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
        result = gaen.risk_score([], PARAMS)
        assert result.score == 0.0
        assert not result.alert

    def test_fifteen_minute_close_contact_alerts(self):
        # 90 beacons at 10 s spacing, 1 m away: 900 s = 15 min, attenuation 40 dB
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-60.0) for t in range(0, 900, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(matches, SimParams(tick_seconds=10))
        assert result.score == pytest.approx(15.0)
        assert result.alert

    def test_permutation_invariant(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-55.0) for t in range(0, 600, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        shuffled = list(matches)
        random.Random(7).shuffle(shuffled)
        assert gaen.risk_score(matches, PARAMS) == gaen.risk_score(shuffled, PARAMS)

    def test_gap_longer_than_two_beacons_splits_contact(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        times = list(range(0, 300, 10)) + list(range(1000, 1300, 10))
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-55.0) for t in times]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(matches, SimParams(tick_seconds=10))
        # two 5-minute episodes, not one 21-minute span
        assert result.score == pytest.approx(10.0)

    def test_weak_signal_contributes_nothing(self):
        aemk = gaen.derive_aemk(GOLDEN_TEK)
        rpi = gaen.expand_diagnosis_key(GOLDEN_TEK, PARAMS)[0]
        aem = gaen.encrypt_aem(aemk, rpi.bytes, -20)
        # attenuation 75 dB > 60 dB threshold
        observations = [_obs(rpi.bytes, t, aem=aem, rssi=-95.0) for t in range(0, 1200, 10)]
        matches = gaen.match_observations([GOLDEN_TEK], observations, PARAMS)
        result = gaen.risk_score(matches, PARAMS)
        assert result.score == 0.0
        assert not result.alert


@given(tx=st.integers(min_value=-127, max_value=127), key=st.binary(min_size=16, max_size=16))
def test_aem_round_trip_property(tx, key):
    rpi = bytes.fromhex(GOLDEN_RPI_0)
    assert gaen.decrypt_aem(key, rpi, gaen.encrypt_aem(key, rpi, tx)) == tx


@given(tek_bytes=st.binary(min_size=16, max_size=16))
def test_key_schedule_fan_out_property(tek_bytes):
    # subkeys differ and the day's pseudonyms are pairwise distinct
    tek = gaen.Tek(bytes=tek_bytes, day_index=0)
    assert gaen.derive_rpik(tek) != gaen.derive_aemk(tek)
    rpis = gaen.expand_diagnosis_key(tek, PARAMS)
    assert len({r.bytes for r in rpis}) == len(rpis) == 12
