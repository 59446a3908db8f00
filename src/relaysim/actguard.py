"""Location-bound contact hashing and relay-attack verdicts.

Each contact is reduced to a single SHA-256 digest over the two pseudonyms
(sorted bytewise so both endpoints agree), the scanner's quantized grid
cell, and the quantized time bucket.  A device derives its contact rows
(those inputs, no digest) from its observation runs: every row to upload
it, and, to verify a matched pseudonym, only that pseudonym's rows, a range
of buckets at a time.  It hashes them only then.  Only digests leave the
device; a diagnosed user's uploaded batch lets contacts re-derive and
compare them.

Frozen digest input layout (covered by golden-vector tests):

    sha256( rpi_low(16) || rpi_high(16)
            || cell_lat:int64_be || cell_lon:int64_be || bucket:int64_be )

A relayed pseudonym is observed far from where its owner actually was, so
the victim's digests land in distant grid cells and can never intersect
the owner's uploaded batch: that mismatch is the detection signal.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from enum import Enum
from hashlib import sha256
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Protocol

from .params import SimParams

CONTACT_HASH_LENGTH = 32
_pack_cell_bucket = struct.Struct(">qqq").pack


def quantize(
    position: tuple[float, float], timestamp: int, params: SimParams
) -> tuple[tuple[int, int], int]:
    """The floor-quantized grid cell ``(lat_index, lon_index)`` and time bucket."""
    lat, lon = position
    cell = (math.floor(lat / params.cell_size_deg), math.floor(lon / params.cell_size_deg))
    return cell, timestamp // params.bucket_seconds


def contact_hash(rpi_a: bytes, rpi_b: bytes, cell: tuple[int, int], bucket: int) -> bytes:
    """Digest of one contact; symmetric in the two pseudonyms."""
    if rpi_a < rpi_b:
        pair = rpi_a + rpi_b
    elif rpi_b < rpi_a:
        pair = rpi_b + rpi_a
    else:
        raise ValueError("a contact needs two distinct pseudonyms")
    return sha256(pair + _pack_cell_bucket(*cell, bucket)).digest()


class ContactRecord(NamedTuple):
    rpi_low: bytes
    rpi_high: bytes
    cell: tuple[int, int]
    bucket: int


ContactSpan = tuple[bytes, bytes, tuple[int, int], range]  # a row per bucket of the range


class MyContactsTable:
    """Every contact row of a device, derived from its observation runs for
    its upload: one row per (rpi_low, rpi_high, cell, bucket), hence per
    digest, in insertion order.  Rows hold no digest: ``hashes`` computes
    them."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: dict[ContactRecord, None] = {}

    def add(self, lo: bytes, hi: bytes, cell: tuple[int, int], bucket: int) -> ContactRecord:
        """The contact's row, added unless the table holds it already."""
        record = ContactRecord(lo, hi, cell, bucket)
        self.records[record] = None
        return record

    def hashes(self) -> set[bytes]:
        return {contact_hash(*record) for record in self.records}

    def __len__(self) -> int:
        return len(self.records)


def union(ranges: Iterable[range]) -> list[range]:
    """The integers of step-1 ranges, as disjoint ranges in ascending order."""
    merged: list[range] = []
    for r in sorted(ranges, key=attrgetter("start")):
        if merged and r.start <= merged[-1].stop:
            if r.stop > merged[-1].stop:
                merged[-1] = range(merged[-1].start, r.stop)
        elif r:
            merged.append(r)
    return merged


class Matched(Protocol):
    """What verification reads of a match: the matched pseudonym."""

    rpi: bytes


class VerdictKind(Enum):
    CONFIRMED_CONTACT = "ConfirmedContact"
    RELAY_SUSPECTED = "RelaySuspected"
    UNVERIFIABLE = "Unverifiable"


class Verdict(NamedTuple):
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
    onto one row; nothing is hashed.  The row holds the scanner's *own* cell;
    the verifier's neighborhood search absorbs the small disagreement between
    genuinely co-located endpoints.
    """
    cell, bucket = quantize(own_position, timestamp, params)
    lo, hi = sorted((own_rpi, peer_rpi))
    return table.add(lo, hi, cell, bucket)


def verify_exposure(
    match: Matched,
    rows: Iterable[ContactSpan],
    positive_batch: frozenset[bytes] | None,
    *,
    diagnosis_id: int,
    params: SimParams,
) -> Verdict:
    """Judge one matched exposure against a diagnosed user's hash batch.

    No batch (or an empty one) means nothing can be checked: Unverifiable.
    Otherwise, candidate digests are rebuilt from the verifier's rows of the
    matched pseudonym (rows of other pseudonyms are skipped) over a small
    cell/bucket neighborhood; any intersection with the batch confirms the
    contact, none suggests a relay.  Each distinct candidate is hashed at
    most once: the widened bucket ranges of each (pair, candidate cell) are
    merged first.
    """
    if not positive_batch:
        return Verdict(kind=VerdictKind.UNVERIFIABLE, diagnosis_id=diagnosis_id, rpi=match.rpi)

    # the rows' own cells first: a genuine contact is most often confirmed there
    cells = sorted(range(-params.neighborhood_cells, params.neighborhood_cells + 1), key=abs)
    reach = params.neighborhood_buckets
    widened: dict[tuple[bytes, bytes, tuple[int, int]], list[range]] = {}
    for lo, hi, (lat, lon), buckets in rows:
        if match.rpi in (lo, hi):
            span = range(buckets.start - reach, buckets.stop + reach)
            for dlat in cells:
                for dlon in cells:
                    widened.setdefault((lo, hi, (lat + dlat, lon + dlon)), []).append(span)
    for (lo, hi, cell), spans in widened.items():
        for bucket in chain.from_iterable(union(spans)):
            if contact_hash(lo, hi, cell, bucket) in positive_batch:
                return Verdict(
                    kind=VerdictKind.CONFIRMED_CONTACT, diagnosis_id=diagnosis_id, rpi=match.rpi
                )
    return Verdict(kind=VerdictKind.RELAY_SUSPECTED, diagnosis_id=diagnosis_id, rpi=match.rpi)
