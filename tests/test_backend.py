"""Backend store contracts: OTPs, chunk publication, serving cutoff."""

import random

import pytest

from relaysim import gaen
from relaysim.backend import (
    BackendStore,
    OtpError,
    StaleTekError,
    decode_diagnosis_payload,
    encode_chunks,
    encode_diagnosis_payload,
)
from relaysim.params import SimParams

DAY = 86400
PARAMS = SimParams()


def _teks(day=100, count=2):
    seed = b"backend-test-seed"
    days = [d for d in range(day, day - count, -1) if d >= 0]
    return [gaen.generate_tek(seed, d) for d in days]


class TestOtp:
    def test_fresh_token_validates_once(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=0)
        assert store.ingest_diagnosis(_teks(day=0), otp.code, None, now=0) == 1
        with pytest.raises(OtpError):
            store.ingest_diagnosis(_teks(day=0), otp.code, None, now=0)

    def test_expires_after_ttl(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(ttl=3600, now=0)
        with pytest.raises(OtpError):
            store.ingest_diagnosis(_teks(day=0), otp.code, None, now=3601)
        # boundary: exactly at authorized_at + ttl still valid
        fresh = store.authorize_otp(ttl=3600, now=0)
        assert store.ingest_diagnosis(_teks(day=0), fresh.code, None, now=3600) == 1

    def test_unknown_code_rejected(self):
        store = BackendStore(PARAMS)
        with pytest.raises(OtpError):
            store.ingest_diagnosis(_teks(day=0), "deadbeef", None, now=0)

    def test_thousand_authorizations_unique(self):
        store = BackendStore(PARAMS, rng=random.Random(77))
        codes = {store.authorize_otp(3600, now=0).code for _ in range(1000)}
        assert len(codes) == 1000


class TestIngest:
    def test_incremental_indices(self):
        store = BackendStore(PARAMS)
        for expected in (1, 2, 3):
            otp = store.authorize_otp(3600, now=0)
            assert store.ingest_diagnosis(_teks(day=0), otp.code, None, now=0) == expected

    def test_rejection_leaves_no_trace(self):
        store = BackendStore(PARAMS)
        with pytest.raises(OtpError):
            store.ingest_diagnosis(_teks(day=0), "nope", None, now=0)
        assert store.chunk_count == 0
        assert store.fetch_chunks(0, now=0) == []

    def test_stale_tek_rejected(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=100 * DAY)
        old = [gaen.generate_tek(b"s", 85)]  # 15 days before day 100
        with pytest.raises(StaleTekError):
            store.ingest_diagnosis(old, otp.code, None, now=100 * DAY)
        assert store.chunk_count == 0
        # the failed attempt must not consume the otp
        assert store.ingest_diagnosis(_teks(day=100), otp.code, None, now=100 * DAY) == 1

    def test_fourteen_day_old_tek_accepted(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=100 * DAY)
        edge = [gaen.generate_tek(b"s", 86)]
        assert store.ingest_diagnosis(edge, otp.code, None, now=100 * DAY) == 1

    def test_hash_batch_linked_to_diagnosis(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=0)
        batch = {b"\x01" * 32, b"\x02" * 32}
        diagnosis_id = store.ingest_diagnosis(_teks(day=0), otp.code, batch, now=0)
        assert store.fetch_hash_batch(diagnosis_id) == frozenset(batch)

    def test_missing_or_empty_batch_absent(self):
        store = BackendStore(PARAMS)
        otp1 = store.authorize_otp(3600, now=0)
        otp2 = store.authorize_otp(3600, now=0)
        id1 = store.ingest_diagnosis(_teks(day=0), otp1.code, None, now=0)
        id2 = store.ingest_diagnosis(_teks(day=0), otp2.code, set(), now=0)
        assert store.fetch_hash_batch(id1) is None
        assert store.fetch_hash_batch(id2) is None
        assert store.fetch_hash_batch(999) is None


class TestFetchChunks:
    def _store_with_uploads(self, count=2, now=0):
        store = BackendStore(PARAMS)
        for _ in range(count):
            otp = store.authorize_otp(3600, now=now)
            store.ingest_diagnosis(_teks(day=now // DAY), otp.code, None, now=now)
        return store

    def test_since_zero_returns_all(self):
        store = self._store_with_uploads(2)
        assert [c.index for c in store.fetch_chunks(0, now=0)] == [1, 2]

    def test_since_latest_returns_empty(self):
        store = self._store_with_uploads(2)
        assert store.fetch_chunks(2, now=0) == []

    def test_fifteen_day_old_chunk_omitted(self):
        store = self._store_with_uploads(1, now=0)
        assert store.fetch_chunks(0, now=15 * DAY) == []
        # at exactly 14 days it is still served
        assert [c.index for c in store.fetch_chunks(0, now=14 * DAY)] == [1]

    def test_chunks_immutable_across_refetches(self):
        store = self._store_with_uploads(2)
        first = encode_chunks(store.fetch_chunks(0, now=0))
        otp = store.authorize_otp(3600, now=0)
        store.ingest_diagnosis(_teks(day=0), otp.code, None, now=0)
        second = encode_chunks(store.fetch_chunks(0, now=0)[:2])
        assert first == second


class TestPayloadCodec:
    def test_round_trip_with_hashes(self):
        teks = _teks(day=3)
        batch = {b"\xaa" * 32, b"\xbb" * 32}
        raw = encode_diagnosis_payload(teks, "c0de", batch)
        got_teks, otp, got_hashes = decode_diagnosis_payload(raw)
        assert got_teks == teks
        assert otp == "c0de"
        assert got_hashes == batch

    def test_round_trip_without_hashes(self):
        raw = encode_diagnosis_payload(_teks(day=3), "c0de", None)
        _, _, got_hashes = decode_diagnosis_payload(raw)
        assert got_hashes is None

    def test_payload_is_lowercase_hex_only(self):
        raw = encode_diagnosis_payload(_teks(day=3), "c0de", {b"\xab" * 32})
        text = raw.decode()
        assert text == text.lower()
        assert "." not in text  # no floats, no raw coordinates
