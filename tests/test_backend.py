"""Backend store contracts: OTPs, chunk publication, serving cutoff."""

import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from relaysim import gaen
from relaysim.actguard import CONTACT_HASH_LENGTH
from relaysim.backend import (
    DEPLOYMENT_AUDIT_ENTRIES,
    BackendStore,
    FutureTekError,
    HashLengthError,
    NoTeksError,
    OtpError,
    StaleTekError,
    TekChunk,
    canonical_json,
    decode_diagnosis_payload,
    encode_chunks,
    encode_diagnosis_payload,
    encode_hash_batch,
)
from relaysim.params import SimParams

from conftest import JSON_VALUES, json_paths, replaced

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

    @pytest.mark.parametrize(
        "teks, batch, error",
        [
            ([], None, NoTeksError),
            ([gaen.generate_tek(b"s", 101)], None, FutureTekError),
            ([gaen.generate_tek(b"s", 100), gaen.generate_tek(b"s", 10**6)], None, FutureTekError),
            ([gaen.generate_tek(b"s", 100)], {b"\x01"}, HashLengthError),
            ([gaen.generate_tek(b"s", 100)], {b"\x01" * 32, b"\x02" * 33}, HashLengthError),
        ],
        ids=["no-keys", "tomorrow", "day-1e6", "1-byte-digest", "33-byte-digest"],
    )
    def test_malformed_upload_rejected_and_store_untouched(self, teks, batch, error):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=100 * DAY)
        with pytest.raises(error):
            store.ingest_diagnosis(teks, otp.code, batch, now=100 * DAY)
        assert store.chunk_count == 0
        assert store.fetch_hash_batch(1) is None
        # the failed attempt must not consume the otp
        assert store.ingest_diagnosis(_teks(day=100), otp.code, None, now=100 * DAY) == 1

    def test_key_of_the_diagnosis_day_accepted(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=101 * DAY - 1)
        edge = [gaen.generate_tek(b"s", 100)]
        assert store.ingest_diagnosis(edge, otp.code, {b"\x01" * 32}, now=101 * DAY - 1) == 1

    def test_hash_batch_linked_to_diagnosis(self):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=0)
        batch = {b"\x01" * 32, b"\x02" * 32}
        diagnosis_id = store.ingest_diagnosis(_teks(day=0), otp.code, batch, now=0)
        stored = store.fetch_hash_batch(diagnosis_id)
        assert stored == b"".join(sorted(batch))
        assert len(stored) == 2 * CONTACT_HASH_LENGTH

    @pytest.mark.parametrize("now", [True, 0.0, 100.5 * DAY, "0", None])
    def test_now_must_be_an_int_and_a_refused_one_changes_nothing(self, now):
        # A chunk's published_at is the upload's now, which the /chunks
        # encoder writes as an int: json would write True as true.
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=0)
        with pytest.raises(ValueError, match="^now must be an integer, got "):
            store.ingest_diagnosis(_teks(day=0), otp.code, None, now=now)
        assert store.chunk_count == 0
        assert store.ingest_diagnosis(_teks(day=0), otp.code, None, now=0) == 1

    def test_missing_or_empty_batch_absent(self):
        store = BackendStore(PARAMS)
        otp1 = store.authorize_otp(3600, now=0)
        otp2 = store.authorize_otp(3600, now=0)
        id1 = store.ingest_diagnosis(_teks(day=0), otp1.code, None, now=0)
        id2 = store.ingest_diagnosis(_teks(day=0), otp2.code, set(), now=0)
        assert store.fetch_hash_batch(id1) is None
        assert store.fetch_hash_batch(id2) is None
        assert store.fetch_hash_batch(999) is None


class TestHashBatchLayout:
    """A stored batch is one byte string of sorted digests, and the
    ``/hashes`` reply made from it is the one a sort per request made."""

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.binary(min_size=CONTACT_HASH_LENGTH, max_size=CONTACT_HASH_LENGTH),
                   max_size=500))
    def test_stored_batch_and_reply_match_the_sorted_digests(self, batch):
        store = BackendStore(PARAMS)
        otp = store.authorize_otp(3600, now=0)
        diagnosis_id = store.ingest_diagnosis(_teks(day=0), otp.code, batch, now=0)
        stored = store.fetch_hash_batch(diagnosis_id)
        assert stored == (b"".join(sorted(batch)) or None)  # an empty batch is none
        assert encode_hash_batch(stored or b"") == canonical_json(
            {"hashes": sorted(h.hex() for h in batch)}
        )

    def test_a_stored_digest_costs_under_40_bytes(self):
        # 50 batches of 300 fresh digests, the inputs dropped: a frozenset of
        # bytes per batch retained 123.6 bytes a digest, one byte string 35.3.
        batches, size = 50, 300
        rng = random.Random("hash-batch-layout")
        store = BackendStore(PARAMS)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(batches):
                otp = store.authorize_otp(3600, now=0)
                digests = {rng.randbytes(CONTACT_HASH_LENGTH) for _ in range(size)}
                store.ingest_diagnosis(_teks(day=0), otp.code, digests, now=0)
            del digests, otp
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.chunk_count == batches
        assert retained / (batches * size) < 40


def _json_chunks(chunks: list[TekChunk]) -> bytes:
    """The ``/chunks`` reply as ``json`` wrote it before it was formatted
    directly."""
    return canonical_json(
        [
            {
                "index": c.index,
                "published_at": c.published_at,
                "teks": [{"tek_hex": b.hex(), "day": d} for b, d in c.teks],
            }
            for c in chunks
        ]
    )


CHUNKS = st.lists(
    st.builds(
        TekChunk,
        st.integers(1, 2**40),
        st.lists(
            st.tuples(st.binary(min_size=16, max_size=16), st.integers(0, 2**40)),
            min_size=1,
            max_size=14,
        ).map(tuple),
        st.integers(0, 2**40),
    ),
    max_size=4,
)


class TestReplyEncoders:
    """The ``/chunks`` and ``/hashes`` replies, formatted directly, are the
    bytes ``canonical_json`` writes for the same lists and objects."""

    @settings(max_examples=200, deadline=None)
    @given(CHUNKS)
    def test_chunks_reply_is_the_json_of_the_chunks(self, chunks):
        assert encode_chunks(chunks) == _json_chunks(chunks)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(min_size=CONTACT_HASH_LENGTH, max_size=CONTACT_HASH_LENGTH),
                    max_size=500))
    def test_hashes_reply_is_the_json_of_the_hex_digests(self, digests):
        assert encode_hash_batch(b"".join(digests)) == canonical_json(
            {"hashes": [d.hex() for d in digests]}
        )


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

    def test_negative_since_returns_all(self):
        store = self._store_with_uploads(2)
        assert [c.index for c in store.fetch_chunks(-1, now=0)] == [1, 2]

    def test_since_past_latest_returns_empty(self):
        store = self._store_with_uploads(2)
        assert store.fetch_chunks(5, now=0) == []

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


def _audited_traffic(store: BackendStore, otps: int) -> None:
    """``otps`` authorizations, then one accepted and one rejected upload."""
    for t in range(otps):
        otp = store.authorize_otp(3600, now=t)
    store.ingest_diagnosis(_teks(day=0), otp.code, None, now=otps)
    with pytest.raises(OtpError):
        store.ingest_diagnosis(_teks(day=0), otp.code, None, now=otps)


class TestAudit:
    def test_simulation_store_keeps_every_entry_with_its_codes(self):
        store = BackendStore(PARAMS, rng=random.Random(5))
        _audited_traffic(store, DEPLOYMENT_AUDIT_ENTRIES + 10)
        assert isinstance(store.audit, list)
        assert len(store.audit) == DEPLOYMENT_AUDIT_ENTRIES + 12
        assert store.audit[0] == {"op": "authorize_otp", "t": 0, "code": store.audit[0]["code"],
                                  "ttl": 3600}
        assert all(len(e["code"]) == 2 * 16 for e in store.audit[:-2])
        assert store.audit[-2]["otp"] == store.audit[-1]["otp"] == store.audit[-3]["code"]

    def test_deployment_store_keeps_the_newest_entries_without_codes(self):
        store = BackendStore(PARAMS)
        _audited_traffic(store, DEPLOYMENT_AUDIT_ENTRIES + 10)
        assert len(store.audit) == DEPLOYMENT_AUDIT_ENTRIES
        assert store.audit[0] == {"op": "authorize_otp", "t": 12, "ttl": 3600}
        assert store.audit[-2] == {
            "op": "ingest", "t": DEPLOYMENT_AUDIT_ENTRIES + 10, "accepted": True,
            "diagnosis_id": 1, "teks": 1, "hashes": 0,
        }
        assert store.audit[-1] == {
            "op": "ingest", "t": DEPLOYMENT_AUDIT_ENTRIES + 10, "accepted": False,
            "reason": "otp already used",
        }


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

    def test_empty_hash_list_is_no_batch(self):
        document = json.loads(encode_diagnosis_payload(_teks(day=3), "c0de", None))
        document["hashes"] = []
        assert decode_diagnosis_payload(json.dumps(document).encode())[2] is None

    @pytest.mark.parametrize(
        "hashes", [{"ab" * 32: None}, {}, 0, 1, 0.5, False, True, "", "ab" * 32, None, [7]]
    )
    def test_hashes_must_be_a_list_of_strings(self, hashes):
        document = json.loads(encode_diagnosis_payload(_teks(day=3), "c0de", None))
        document["hashes"] = hashes
        with pytest.raises((TypeError, ValueError)):
            decode_diagnosis_payload(json.dumps(document).encode())

    def test_payload_is_lowercase_hex_only(self):
        raw = encode_diagnosis_payload(_teks(day=3), "c0de", {b"\xab" * 32})
        text = raw.decode()
        assert text == text.lower()
        assert "." not in text  # no floats, no raw coordinates

    @settings(max_examples=300, deadline=None)
    @given(st.data(), JSON_VALUES)
    def test_any_json_value_anywhere_decodes_or_is_rejected(self, data, value):
        # Replace one value of a valid upload, or the whole of it, with any
        # JSON value: the keys carry exactly the JSON integers given as days
        # and the OTP is the string given, or decoding raises an error the
        # wire handler answers with a 400.  Before, "7", 7.9 and true were
        # day 7, 7 and 1, an OTP of 123 was "123", and 1e400 overflowed.
        document = json.loads(encode_diagnosis_payload(_teks(day=3), "c0de", {b"\xab" * 32}))
        document = replaced(document, data.draw(st.sampled_from(json_paths(document))), value)
        try:
            teks, otp, _ = decode_diagnosis_payload(json.dumps(document).encode())
        except (ValueError, TypeError, KeyError):
            return
        days = [t["day"] for t in document["teks"]]
        assert all(type(day) is int for day in days)
        assert [tek.day_index for tek in teks] == days
        assert type(otp) is str and otp == document["otp"]
        assert type(document.get("hashes", [])) is list
