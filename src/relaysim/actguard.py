"""Location-bound contact hashing and relay-attack verdicts.

Each contact is reduced to a single SHA-256 digest over the two pseudonyms
(sorted bytewise so both endpoints agree), the scanner's quantized grid
cell, and the quantized time bucket.  Only digests ever leave the device;
a diagnosed user's uploaded batch lets contacts re-derive and compare
digests locally.

Frozen digest input layout (covered by golden-vector tests):

    sha256( rpi_low(16) || rpi_high(16)
            || cell_lat:int64_be || cell_lon:int64_be || bucket:int64_be )

A relayed pseudonym is observed far from where its owner actually was, so
the victim's digests land in distant grid cells and can never intersect
the owner's uploaded batch: that mismatch is the detection signal.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .gaen import ExposureMatch
from .params import SimParams

CONTACT_HASH_LENGTH = 32


@dataclass(frozen=True)
class GeoCell:
    """Floor-quantized latitude/longitude grid indices."""

    lat_index: int
    lon_index: int


@dataclass(frozen=True)
class TimeBucket:
    """Floor-quantized timestamp index."""

    index: int


def quantize(
    position: tuple[float, float], timestamp: int, params: SimParams
) -> tuple[GeoCell, TimeBucket]:
    lat, lon = position
    cell = GeoCell(
        lat_index=math.floor(lat / params.cell_size_deg),
        lon_index=math.floor(lon / params.cell_size_deg),
    )
    return cell, TimeBucket(index=timestamp // params.bucket_seconds)


def contact_hash(rpi_a: bytes, rpi_b: bytes, cell: GeoCell, bucket: TimeBucket) -> bytes:
    """Digest of one contact; symmetric in the two pseudonyms."""
    if rpi_a == rpi_b:
        raise ValueError("a contact needs two distinct pseudonyms")
    lo, hi = sorted((rpi_a, rpi_b))
    payload = lo + hi + struct.pack(">qqq", cell.lat_index, cell.lon_index, bucket.index)
    return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class ContactRecord:
    rpi_low: bytes
    rpi_high: bytes
    cell: GeoCell
    bucket: TimeBucket
    hash: bytes


@dataclass
class MyContactsTable:
    """Per-device contact evidence: one row per (rpi_low, rpi_high, cell,
    bucket), hence per digest, also indexed by pseudonym; both in insertion
    order."""

    records: dict[tuple, ContactRecord] = field(default_factory=dict, init=False)
    _by_rpi: dict[bytes, list[ContactRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add(self, lo: bytes, hi: bytes, cell: GeoCell, bucket: TimeBucket) -> ContactRecord:
        """The contact's row; only a row not yet in the table is hashed."""
        key = (lo, hi, cell, bucket)
        record = self.records.get(key)
        if record is None:
            record = ContactRecord(lo, hi, cell, bucket, contact_hash(lo, hi, cell, bucket))
            self.records[key] = record
            self._by_rpi.setdefault(lo, []).append(record)
            self._by_rpi.setdefault(hi, []).append(record)
        return record

    def hashes(self) -> set[bytes]:
        return {record.hash for record in self.records.values()}

    def records_for(self, rpi: bytes) -> Sequence[ContactRecord]:
        return self._by_rpi.get(rpi, ())

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class PositiveTable:
    """Mirror of the hash server's published batches at last sync."""

    batches: dict[int, frozenset[bytes]] = field(default_factory=dict)

    def add(self, diagnosis_id: int, hashes: frozenset[bytes]) -> None:
        self.batches[diagnosis_id] = hashes

    def get(self, diagnosis_id: int) -> frozenset[bytes] | None:
        return self.batches.get(diagnosis_id)


class VerdictKind(Enum):
    CONFIRMED_CONTACT = "ConfirmedContact"
    RELAY_SUSPECTED = "RelaySuspected"
    UNVERIFIABLE = "Unverifiable"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    diagnosis_id: int
    rpi: bytes


def record_contact(
    table: MyContactsTable,
    own_rpi: bytes,
    peer_rpi: bytes,
    own_position: tuple[float, float],
    timestamp: int,
    params: SimParams,
) -> ContactRecord:
    """Insert the contact's record for the current cell and bucket.

    Idempotent: repeat sightings of the same peer inside one bucket collapse
    onto one row, hashed once.  The scanner hashes with its *own* position;
    the verifier's neighborhood search absorbs the small disagreement between
    genuinely co-located endpoints.
    """
    cell, bucket = quantize(own_position, timestamp, params)
    lo, hi = sorted((own_rpi, peer_rpi))
    return table.add(lo, hi, cell, bucket)


def verify_exposure(
    match: ExposureMatch,
    my_table: MyContactsTable,
    positive_batch: frozenset[bytes] | None,
    *,
    diagnosis_id: int,
    params: SimParams,
) -> Verdict:
    """Judge one matched exposure against a diagnosed user's hash batch.

    No batch (or an empty one) means nothing can be checked: Unverifiable.
    Otherwise, candidate digests are rebuilt from the verifier's own records
    of the matched pseudonym over a small cell/bucket neighborhood; any
    intersection with the batch confirms the contact, none suggests a relay.
    """
    if not positive_batch:
        return Verdict(kind=VerdictKind.UNVERIFIABLE, diagnosis_id=diagnosis_id, rpi=match.rpi)

    neighborhood_cells = params.neighborhood_cells
    neighborhood_buckets = params.neighborhood_buckets
    for record in my_table.records_for(match.rpi):
        for dlat in range(-neighborhood_cells, neighborhood_cells + 1):
            for dlon in range(-neighborhood_cells, neighborhood_cells + 1):
                cell = GeoCell(record.cell.lat_index + dlat, record.cell.lon_index + dlon)
                for db in range(-neighborhood_buckets, neighborhood_buckets + 1):
                    bucket = TimeBucket(record.bucket.index + db)
                    candidate = contact_hash(record.rpi_low, record.rpi_high, cell, bucket)
                    if candidate in positive_batch:
                        return Verdict(
                            kind=VerdictKind.CONFIRMED_CONTACT,
                            diagnosis_id=diagnosis_id,
                            rpi=match.rpi,
                        )
    return Verdict(kind=VerdictKind.RELAY_SUSPECTED, diagnosis_id=diagnosis_id, rpi=match.rpi)
