"""Location-bound contact hashing and relay-attack verdicts.

Each contact is reduced to a single SHA-256 digest over the two pseudonyms
(sorted bytewise so both endpoints agree), the scanner's quantized grid
cell, and the quantized time bucket.  ``contact_rows`` derives a device's
contact rows (those inputs, no digest) from its inbox spans, a range of
buckets at a time (``ContactSpan``).  They are hashed only when read: every
row's buckets for the upload (``digests``), and, to verify a matched
pseudonym, only that pseudonym's rows.  Only digests leave the device; a
diagnosed user's uploaded batch lets contacts re-derive and compare them.

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


ContactSpan = tuple[bytes, bytes, tuple[int, int], range]  # a row per bucket of the range


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
    table,
    own_rpi: bytes,
    peer_rpi: bytes,
    own_position: tuple[float, float],
    timestamp: int,
    params: SimParams,
) -> tuple[bytes, bytes, tuple[int, int], int]:
    """Add one sighting's contact row ``(lo, hi, cell, bucket)`` to ``table``
    (anything with ``add``) and return it: the per-sighting reference for
    ``contact_rows``.

    Repeat sightings of the same peer inside one bucket give equal rows;
    nothing is hashed.  The row holds the scanner's *own* cell; the
    verifier's neighborhood search absorbs the small disagreement between
    genuinely co-located endpoints.
    """
    row = (*sorted((own_rpi, peer_rpi)), *quantize(own_position, timestamp, params))
    table.add(row)
    return row


def contact_rows(spans: Iterable[list], params: SimParams) -> list[ContactSpan]:
    """Every contact row of a device's inbox spans, ``[sightings,
    (own RPI, position), first, last]`` (see ``agents.HonestDevice``), a
    range at a time: for each (pair, cell) in order of first scan, the union
    of its sightings' scan buckets.  A span's sightings share its cell and
    scan buckets, each worked out once per span."""
    tick, bucket = params.tick_seconds, params.bucket_seconds
    rows: dict[tuple, list[range]] = {}
    for sightings, (own, position), first, last in spans:
        cell, start = quantize(position, first, params)
        if tick <= bucket:  # consecutive scans skip no bucket
            buckets = [range(start, last // bucket + 1)]
        else:  # each scan is in a bucket of its own
            buckets = [range(t // bucket, t // bucket + 1) for t in range(first, last + 1, tick)]
        for _, _, _, frame in sightings:
            rows.setdefault((*sorted((own, frame[0])), cell), []).extend(buckets)
    return [(*key, r) for key, ranges in rows.items() for r in union(ranges)]


def digests(rows: Iterable[ContactSpan]) -> set[bytes]:
    """The upload's hash batch: a digest per bucket of each row."""
    return {contact_hash(lo, hi, cell, b) for lo, hi, cell, buckets in rows for b in buckets}


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
