"""Quantization, contact hashing, table semantics, and verdict logic."""

import random

import pytest
from hypothesis import given, strategies as st

from relaysim import actguard, gaen
from relaysim.actguard import GeoCell, TimeBucket, VerdictKind
from relaysim.params import SimParams

PARAMS = SimParams()
GOLDEN_RPI_A = bytes(range(16))
GOLDEN_RPI_B = bytes(range(16, 32))
# sha256(rpi_low || rpi_high || cell_lat:int64be || cell_lon:int64be || bucket:int64be)
GOLDEN_HASH = "a441ce22088b6deb1219e8f00934bf698f956f8d2cb828722bfc4dffb9e364b3"


def _match(rpi: bytes) -> gaen.ExposureMatch:
    tek = gaen.Tek(bytes=b"\x42" * 16, day_index=0)
    obs = gaen.Observation(rpi=rpi, aem=b"\x00" * 4, rssi=-50.0, scan_time=100, location=(0.0, 0.0))
    return gaen.ExposureMatch(tek=tek, rpi=rpi, interval_index=0, tx_power_dbm=-20, observation=obs)


class TestQuantize:
    def test_origin(self):
        cell, bucket = actguard.quantize((0.0, 0.0), 0, PARAMS)
        assert cell == GeoCell(0, 0)
        assert bucket == TimeBucket(0)

    def test_floor_on_latitude(self):
        cell, _ = actguard.quantize((0.0019, 0.0), 0, SimParams(cell_size_deg=0.001))
        assert cell.lat_index == 1

    def test_bucket_boundary(self):
        _, before = actguard.quantize((0.0, 0.0), 299, SimParams(bucket_seconds=300))
        _, after = actguard.quantize((0.0, 0.0), 301, SimParams(bucket_seconds=300))
        assert before == TimeBucket(0)
        assert after == TimeBucket(1)

    def test_negative_coordinates_floor_down(self):
        cell, _ = actguard.quantize((-0.0001, -0.0001), 0, SimParams(cell_size_deg=0.001))
        assert cell == GeoCell(-1, -1)


class TestContactHash:
    def test_golden_vector(self):
        digest = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, GeoCell(10, -3), TimeBucket(7))
        assert digest.hex() == GOLDEN_HASH

    def test_symmetric_under_swap(self):
        cell, bucket = GeoCell(4, 5), TimeBucket(6)
        assert actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, bucket) == \
            actguard.contact_hash(GOLDEN_RPI_B, GOLDEN_RPI_A, cell, bucket)

    def test_self_contact_rejected(self):
        with pytest.raises(ValueError):
            actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_A, GeoCell(0, 0), TimeBucket(0))

    def test_cell_change_changes_digest(self):
        bucket = TimeBucket(7)
        base = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, GeoCell(10, -3), bucket)
        moved = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, GeoCell(11, -3), bucket)
        assert base != moved

    def test_bucket_change_changes_digest(self):
        cell = GeoCell(10, -3)
        base = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, TimeBucket(7))
        later = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, cell, TimeBucket(8))
        assert base != later

    def test_digest_is_32_bytes(self):
        digest = actguard.contact_hash(GOLDEN_RPI_A, GOLDEN_RPI_B, GeoCell(0, 0), TimeBucket(0))
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
        cell, tb = GeoCell(lat, lon), TimeBucket(bucket)
        assert actguard.contact_hash(a, b, cell, tb) == actguard.contact_hash(b, a, cell, tb)


class TestRecordContact:
    def test_same_bucket_deduplicates(self):
        table = actguard.MyContactsTable()
        for t in (0, 10, 20):
            actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), t, PARAMS)
        assert len(table) == 1

    def test_repeat_sightings_hash_once_per_bucket(self, monkeypatch):
        hashed = []
        real = actguard.contact_hash
        monkeypatch.setattr(
            actguard, "contact_hash", lambda *args: hashed.append(args) or real(*args)
        )
        table = actguard.MyContactsTable()
        for t in (0, 10, 20, 290):
            actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), t, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_B, GOLDEN_RPI_A, (0.0, 0.0), 150, PARAMS)
        assert len(hashed) == 1
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 300, PARAMS)
        assert len(hashed) == 2

    def test_consecutive_buckets_grow_table(self):
        table = actguard.MyContactsTable()
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 299, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 301, PARAMS)
        assert len(table) == 2

    def test_both_endpoints_derive_equal_hashes(self):
        # co-located devices hashing from either side agree byte for byte
        here = (44.6312, 10.9421)
        mine = actguard.MyContactsTable()
        theirs = actguard.MyContactsTable()
        actguard.record_contact(mine, GOLDEN_RPI_A, GOLDEN_RPI_B, here, 450, PARAMS)
        actguard.record_contact(theirs, GOLDEN_RPI_B, GOLDEN_RPI_A, here, 450, PARAMS)
        assert mine.hashes() == theirs.hashes()

    def test_record_retains_inputs_for_reverification(self):
        table = actguard.MyContactsTable()
        record = actguard.record_contact(
            table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0015, 0.0), 310, PARAMS
        )
        assert record.rpi_low < record.rpi_high
        assert record.cell == GeoCell(1, 0)
        assert record.bucket == TimeBucket(1)
        assert record.hash == actguard.contact_hash(
            record.rpi_low, record.rpi_high, record.cell, record.bucket
        )

    def test_records_for_finds_either_endpoint_in_insertion_order(self):
        table = actguard.MyContactsTable()
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
        table = actguard.MyContactsTable()
        record = actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, position, t, PARAMS)
        return table, record

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
            _match(GOLDEN_RPI_B), table, frozenset({record.hash}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.CONFIRMED_CONTACT
        assert verdict.rpi == GOLDEN_RPI_B

    def test_adjacent_cell_hash_still_confirms(self):
        # the uploader quantized one cell over; neighborhood search absorbs it
        table, record = self._table_with_contact()
        neighbor = actguard.contact_hash(
            record.rpi_low,
            record.rpi_high,
            GeoCell(record.cell.lat_index + 1, record.cell.lon_index),
            record.bucket,
        )
        verdict = actguard.verify_exposure(
            _match(GOLDEN_RPI_B), table, frozenset({neighbor}), diagnosis_id=1, params=PARAMS
        )
        assert verdict.kind is VerdictKind.CONFIRMED_CONTACT

    def test_distant_cell_suspected_as_relay(self):
        # relayed pseudonym: the real contact happened ten cells away
        table, record = self._table_with_contact()
        far = actguard.contact_hash(
            record.rpi_low,
            record.rpi_high,
            GeoCell(record.cell.lat_index + 10, record.cell.lon_index),
            record.bucket,
        )
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


class TestTables:
    def test_my_contacts_keyed_by_hash(self):
        table = actguard.MyContactsTable()
        r1 = actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 10, PARAMS)
        actguard.record_contact(table, GOLDEN_RPI_A, GOLDEN_RPI_B, (0.0, 0.0), 20, PARAMS)
        assert table.hashes() == {r1.hash}

    def test_positive_table_absent_vs_present(self):
        table = actguard.PositiveTable()
        table.add(1, frozenset({b"\x00" * 32}))
        assert table.get(1) == frozenset({b"\x00" * 32})
        assert table.get(2) is None
