"""Quantization, contact hashing, table semantics, and verdict logic."""

import random

import pytest
from hypothesis import given, strategies as st

from relaysim import actguard, gaen
from relaysim.actguard import VerdictKind
from relaysim.params import SimParams

from oracles import IndexedContactsTable, spans

PARAMS = SimParams()
GOLDEN_RPI_A = bytes(range(16))
GOLDEN_RPI_B = bytes(range(16, 32))
# sha256(rpi_low || rpi_high || cell_lat:int64be || cell_lon:int64be || bucket:int64be)
GOLDEN_HASH = "a441ce22088b6deb1219e8f00934bf698f956f8d2cb828722bfc4dffb9e364b3"


def _match(rpi: bytes) -> gaen.ExposureMatch:
    tek = gaen.Tek(bytes=b"\x42" * 16, day_index=0)
    obs = gaen.Observation(rpi=rpi, aem=b"\x00" * 4, rssi=-50.0, scan_time=100)
    return gaen.ExposureMatch(tek=tek, rpi=rpi, interval_index=0, tx_power_dbm=-20, observation=obs)


class TestQuantize:
    def test_origin(self):
        cell, bucket = actguard.quantize((0.0, 0.0), 0, PARAMS)
        assert cell == (0, 0)
        assert bucket == 0

    def test_floor_on_latitude(self):
        cell, _ = actguard.quantize((0.0019, 0.0), 0, SimParams(cell_size_deg=0.001))
        assert cell[0] == 1

    def test_bucket_boundary(self):
        _, before = actguard.quantize((0.0, 0.0), 299, SimParams(bucket_seconds=300))
        _, after = actguard.quantize((0.0, 0.0), 301, SimParams(bucket_seconds=300))
        assert before == 0
        assert after == 1

    def test_negative_coordinates_floor_down(self):
        cell, _ = actguard.quantize((-0.0001, -0.0001), 0, SimParams(cell_size_deg=0.001))
        assert cell == (-1, -1)


class TestContactHash:
    def test_golden_vector(self):
        digest = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, (10, -3), 7)
        assert digest.hex() == GOLDEN_HASH

    def test_symmetric_under_swap(self):
        cell, bucket = (4, 5), 6
        assert actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, bucket) == \
            actguard.contact_hash(GOLDEN_RPI_B, GOLDEN_RPI_A, cell, bucket)

    def test_self_contact_rejected(self):
        with pytest.raises(ValueError):
            actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_A, (0, 0), 0)

    def test_cell_change_changes_digest(self):
        bucket = 7
        base = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, (10, -3), bucket)
        moved = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, (11, -3), bucket)
        assert base != moved

    def test_bucket_change_changes_digest(self):
        cell = (10, -3)
        base = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, 7)
        later = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, 8)
        assert base != later

    def test_digest_is_32_bytes(self):
        digest = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, (0, 0), 0)
        assert len(digest) == actguard.CONTACT_HASH_LENGTH

    @given(
        a=st.binary(min_size=16, max_size=16),
        b=st.binary(min_size=16, max_size=16),
        lat=st.integers(min_value=-180000, max_value=180000),
        lon=st.integers(min_value=-180000, max_value=180000),
        bucket=st.integers(min_value=0, max_value=10**7),
    )
    def test_symmetry_property(self, a, b, lat, lon, bucket):
        if a == b:
            return
        cell = (lat, lon)
        assert actguard.contact_hash(a, b, cell, bucket) == \
            actguard.contact_hash(b, a, cell, bucket)


class TestRecordContact:
    def test_same_bucket_deduplicates(self):
        table = IndexedContactsTable()
        for t in (0, 10, 20):
            actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), t, PARAMS)
        assert len(table) == 1

    def test_repeat_sightings_hash_once_per_bucket(self, monkeypatch):
        # Recording hashes nothing; the upload hashes each row once.
        hashed = []
        real = actguard.contact_hash
        monkeypatch.setattr(
            actguard, "contact_hash", lambda *args: hashed.append(args) or real(*args)
        )
        table = IndexedContactsTable()
        for t in (0, 10, 20, 290):
            actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), t, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_B, GOLDEN_RPI_A, (0.0, 0.0), 150, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 300, PARAMS)
        assert hashed == []
        assert len(actguard.digests(spans(table.records))) == 2
        assert hashed == list(table.records)

    def test_consecutive_buckets_grow_table(self):
        table = IndexedContactsTable()
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 299, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 301, PARAMS)
        assert len(table) == 2

    def test_both_endpoints_derive_equal_hashes(self):
        # co-located devices hashing from either side agree byte for byte
        here = (44.6312, 10.9421)
        mine = IndexedContactsTable()
        theirs = IndexedContactsTable()
        actguard.record_contact(mine, GOLDEN_RPI_A, GOLDEN_RPI_B, here, 450, PARAMS)
        actguard.record_contact(theirs, GOLDEN_RPI_B, GOLDEN_RPI_A, here, 450, PARAMS)
        assert actguard.digests(spans(mine.records)) == actguard.digests(spans(theirs.records))

    def test_record_retains_inputs_for_reverification(self):
        table = IndexedContactsTable()
        record = actguard.record_contact(
            table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0015, 0.0), 310, PARAMS
        )
        lo, hi, cell, bucket = record
        assert lo < hi
        assert cell == (1, 0)
        assert bucket == 1
        assert actguard.contact_hash(*record) == actguard.contact_hash(lo, hi, cell, bucket)

    def test_records_for_finds_either_endpoint_in_insertion_order(self):
        table = IndexedContactsTable()
        other = bytes(16)
        first = actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 0, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, other, (0.0, 0.0), 0, PARAMS)
        last = actguard.record_contact(table, GOLDEN_RPI_B, GOLDEN_RPI_A, (0.0, 0.0), 300, PARAMS)
        # duplicate
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 10, PARAMS)
        assert list(table.records_for(GOLDEN_RPI_B)) == [first, last]
        assert len(table.records_for(GOLDEN_RPI_A)) == 3
        assert list(table.records_for(b"\x01" * 16)) == []


class TestVerifyExposure:
    def _table_with_contact(self, position=(0.0, 0.0), t=100):
        table = IndexedContactsTable()
        record = actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, position, t, PARAMS)
        return spans(table.records), record

    def test_absent_batch_unverifiable(self):
        table, _ = self._table_with_contact()
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, None, diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.UNVERIFIABLE
        assert verdict.diagnosis_id == 1

    def test_empty_batch_unverifiable(self):
        table, _ = self._table_with_contact()
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, frozenset(), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.UNVERIFIABLE

    def test_exact_hash_confirms(self):
        table, record = self._table_with_contact()
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, frozenset({actguard.contact_hash(*record)}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.CONFIRMED_CONTACT
        assert verdict.rpi == GOLDEN_RPI_B

    def test_adjacent_cell_hash_still_confirms(self):
        # the uploader quantized one cell over; neighborhood search absorbs it
        table, (lo, hi, (lat, lon), bucket) = self._table_with_contact()
        neighbor = actguard.contact_hash(lo, hi, (lat + 1, lon), bucket)
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, frozenset({neighbor}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.CONFIRMED_CONTACT

    def test_distant_cell_suspected_as_relay(self):
        # relayed pseudonym: the real contact happened ten cells away
        table, (lo, hi, (lat, lon), bucket) = self._table_with_contact()
        far = actguard.contact_hash(lo, hi, (lat + 10, lon), bucket)
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, frozenset({far}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.RELAY_SUSPECTED

    def test_unrelated_batch_suspected_as_relay(self):
        table, _ = self._table_with_contact()
        rng = random.Random(5)
        batch = frozenset(rng.randbytes(32) for _ in range(20))
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, batch, diagnosis_id=2, params=PARAMS
        )
        assert verdict.kind is VerdictKind.RELAY_SUSPECTED

    def test_each_distinct_candidate_is_hashed_once(self, monkeypatch):
        # Rows of one pair two buckets apart at one cell and at the next
        # cell: their neighbourhoods overlap.  A row of another pair is not
        # the matched pseudonym's and is skipped.
        hashed = []
        real = actguard.contact_hash
        monkeypatch.setattr(
            actguard, "contact_hash", lambda *args: hashed.append(args) or real(*args)
        )
        a, b = GOLDEN_RPI_A, GOLDEN_RPI_B
        rows = [
            (a, b, (0, 0), range(1, 2)), (a, b, (0, 0), range(3, 5)), (a, b, (0, 1), range(1, 2))
        ]
        other = (bytes(16), a, (0, 0), range(0, 9))
        verdict = actguard.verify_exposure(
            _match(b), rows + [other], frozenset({bytes(32)}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.RELAY_SUSPECTED
        candidates = {
            (lo, hi, (lat + dlat, lon + dlon), bucket + db)
            for lo, hi, (lat, lon), buckets in rows
            for dlat in (-1, 0, 1)
            for dlon in (-1, 0, 1)
            for bucket in buckets
            for db in (-1, 0, 1)
        }
        assert sorted(hashed) == sorted(candidates)


class TestTables:
    def test_my_contacts_keyed_by_hash(self):
        table = IndexedContactsTable()
        r1 = actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 10, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 20, PARAMS)
        assert actguard.digests(spans(table.records)) == {actguard.contact_hash(*r1)}
