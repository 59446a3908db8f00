"""Health-authority and hash-server state: OTPs, TEK chunks, hash batches.

One ``BackendStore`` serves both roles.  Every mutating or time-sensitive
call takes the current time explicitly, so the same logic runs under the
simulation clock in-process and under a wall clock behind the HTTP wire
(see :mod:`relaysim.wire`).

Diagnosis uploads are published as immutable chunks with strictly
incremental indices; a hash batch uploaded alongside is stored under the
same index, which is what lets verifiers tell "no batch" (unverifiable)
from "batch without a match" (relay suspected).  A stored batch is one
byte string, its digests in ascending order.
"""

from __future__ import annotations

import json
import random
import secrets
from collections import deque

from .actguard import CONTACT_HASH_LENGTH
from .gaen import Tek
from .params import SECONDS_PER_DAY, FrozenRecord, SimParams, as_number

OTP_BYTES = 16

# A deployment store keeps only this many of its newest audit entries.
DEPLOYMENT_AUDIT_ENTRIES = 1000


class BackendError(Exception):
    """Base for rejected backend operations."""


class OtpError(BackendError):
    """Unknown, reused, or expired one-time password."""


class StaleTekError(BackendError):
    """An uploaded key is older than the retention horizon."""


class FutureTekError(BackendError):
    """An uploaded key is for a day after the diagnosis day."""


class NoTeksError(BackendError):
    """A diagnosis upload carries no keys."""


class HashLengthError(BackendError):
    """An uploaded contact digest is not ``CONTACT_HASH_LENGTH`` bytes."""


class Otp:
    __slots__ = ("code", "authorized_at", "ttl", "used")

    def __init__(self, code: str, authorized_at: int, ttl: int, used: bool = False) -> None:
        self.code = code
        self.authorized_at = authorized_at
        self.ttl = ttl
        self.used = used

    def expired(self, now: int) -> bool:
        return now > self.authorized_at + self.ttl


class TekChunk(FrozenRecord):
    """A published diagnosis; ``teks`` holds (tek bytes, day_index) pairs,
    device-anonymous.  A chunk read slices the stored chunks from the
    reader's newest one (``fetch_chunks``) and reads each chunk it returns."""

    __slots__ = ("index", "teks", "published_at")

    def __init__(self, index: int, teks: tuple[tuple[bytes, int], ...], published_at: int) -> None:
        self._set(index, teks, published_at)


class BackendStore:
    """In-memory single-writer store; reads are snapshot-consistent.

    Keys and chunks are kept for ``params.tek_retention_days``.  ``rng``
    seeds OTP generation for reproducible simulation runs; leave it None for
    real deployments to fall back to ``secrets``.  A simulation run's
    ``audit`` keeps every entry, OTP codes included, for its report; a
    deployment's keeps the newest ``DEPLOYMENT_AUDIT_ENTRIES`` and no code.

    Each non-empty hash batch is kept as one immutable ``bytes``: its
    distinct digests, ``CONTACT_HASH_LENGTH`` bytes each, sorted ascending
    and concatenated (about 35 bytes a digest, against about 124 as a
    ``frozenset`` of ``bytes``).  Readers that test membership split it
    into a set themselves (``agents.DownloadLog``).
    """

    def __init__(self, params: SimParams, *, rng: random.Random | None = None):
        self._rng = rng
        self._retention_days = params.tek_retention_days
        self._otps: dict[str, Otp] = {}
        self._chunks: list[TekChunk] = []
        self._batches: dict[int, bytes] = {}
        self.audit: list[dict] | deque[dict] = (
            [] if rng is not None else deque(maxlen=DEPLOYMENT_AUDIT_ENTRIES)
        )

    def _audit(self, entry: dict) -> None:
        if self._rng is None:
            entry = {k: v for k, v in entry.items() if k not in ("code", "otp")}
        self.audit.append(entry)

    def _new_code(self) -> str:
        if self._rng is not None:
            return self._rng.randbytes(OTP_BYTES).hex()
        return secrets.token_hex(OTP_BYTES)

    def authorize_otp(self, ttl: int, now: int) -> Otp:
        otp = Otp(code=self._new_code(), authorized_at=now, ttl=ttl)
        self._otps[otp.code] = otp
        self._audit({"op": "authorize_otp", "t": now, "code": otp.code, "ttl": ttl})
        return otp

    def _check_otp(self, code: str, now: int) -> Otp:
        otp = self._otps.get(code)
        if otp is None:
            raise OtpError("unknown otp")
        if otp.used:
            raise OtpError("otp already used")
        if otp.expired(now):
            raise OtpError("otp expired")
        return otp

    def ingest_diagnosis(
        self,
        teks: list[Tek],
        otp_code: str,
        hash_batch: set[bytes] | frozenset[bytes] | None,
        now: int,
    ) -> int:
        """Validate the OTP, keys and digests, then publish a new chunk.

        There must be at least one key, none from after the diagnosis day
        or older than the retention window, and every digest must be
        ``CONTACT_HASH_LENGTH`` bytes.  Rejections leave the store untouched
        (the OTP stays unused).  An empty hash batch is treated as absent:
        only users of the defense upload one at all.  ``now`` must be an
        ``int``: a ``bool`` or ``float`` raises ValueError, as ``Tek``'s
        ``day_index`` does, so a published chunk holds ints alone.
        """
        diagnosis_day = as_number(int, now, "now") // SECONDS_PER_DAY
        try:
            otp = self._check_otp(otp_code, now)
            if not teks:
                raise NoTeksError("a diagnosis needs at least one tek")
            for tek in teks:
                if tek.day_index < diagnosis_day - self._retention_days:
                    raise StaleTekError(
                        f"tek for day {tek.day_index} is older than "
                        f"{self._retention_days} days at day {diagnosis_day}"
                    )
                if tek.day_index > diagnosis_day:
                    raise FutureTekError(
                        f"tek for day {tek.day_index} is after the diagnosis day {diagnosis_day}"
                    )
            for digest in hash_batch or ():
                if len(digest) != CONTACT_HASH_LENGTH:
                    raise HashLengthError(
                        f"hash digests must be {CONTACT_HASH_LENGTH} bytes, got {len(digest)}"
                    )
        except BackendError as exc:
            self._audit(
                {"op": "ingest", "t": now, "accepted": False, "otp": otp_code, "reason": str(exc)}
            )
            raise

        otp.used = True
        index = len(self._chunks) + 1
        chunk = TekChunk(
            index=index,
            teks=tuple((tek.bytes, tek.day_index) for tek in teks),
            published_at=now,
        )
        self._chunks.append(chunk)
        if hash_batch:
            self._batches[index] = b"".join(sorted(hash_batch))
        self._audit(
            {
                "op": "ingest",
                "t": now,
                "accepted": True,
                "otp": otp_code,
                "diagnosis_id": index,
                "teks": len(teks),
                "hashes": len(hash_batch) if hash_batch else 0,
            }
        )
        return index

    def fetch_chunks(self, since_index: int, now: int) -> list[TekChunk]:
        """Chunks newer than ``since_index`` still inside the serving window."""
        horizon = self._retention_days * SECONDS_PER_DAY
        return [
            c
            for c in self._chunks[since_index if since_index > 0 else 0 :]  # chunk i at i - 1
            if now - c.published_at <= horizon
        ]

    def fetch_hash_batch(self, diagnosis_id: int) -> bytes | None:
        """The diagnosis's hash batch as stored: its digests sorted ascending
        and concatenated, ``CONTACT_HASH_LENGTH`` bytes each; None if it has
        none.  ``digest in batch`` on it is a substring search: split it
        into digests to test membership."""
        return self._batches.get(diagnosis_id)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)


# --- canonical wire encoding -------------------------------------------------
#
# The JSON shapes below are frozen (golden request/response fixtures in the
# test suite).  Hex is always lowercase; objects are serialized with sorted
# keys and compact separators.


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def encode_diagnosis_payload(
    teks: list[Tek], otp_code: str, hashes: set[bytes] | frozenset[bytes] | None
) -> bytes:
    body: dict = {
        "otp": otp_code,
        "teks": [{"tek_hex": t.bytes.hex(), "day": t.day_index} for t in teks],
    }
    if hashes:
        body["hashes"] = sorted(h.hex() for h in hashes)
    return canonical_json(body)


def parse_json(raw: bytes) -> object:
    """``json.loads``, but JSON nested too deeply to parse raises the
    ValueError that other malformed JSON raises, not a RecursionError."""
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("json nested too deeply") from None


def decode_diagnosis_payload(raw: bytes) -> tuple[list[Tek], str, set[bytes] | None]:
    """An upload's keys, OTP and digests.  A ``day`` must be an integer, the
    OTP a string and ``hashes``, if present, a list of hex strings (an empty
    list is no batch); otherwise ValueError, TypeError or KeyError."""
    body = parse_json(raw)
    teks = [
        Tek(bytes=bytes.fromhex(t["tek_hex"]), day_index=as_number(int, t["day"], "day"))
        for t in body["teks"]
    ]
    hashes_hex = body.get("hashes", [])
    if type(hashes_hex) is not list:
        raise TypeError(f"hashes must be a list, got {hashes_hex!r}")
    hashes = {bytes.fromhex(h) for h in hashes_hex} or None
    if type(body["otp"]) is not str:
        raise TypeError(f"otp must be a string, got {body['otp']!r}")
    return teks, body["otp"], hashes


def encode_chunks(chunks: list[TekChunk]) -> bytes:
    """The ``/chunks`` reply: ``canonical_json`` of a list of
    ``{"index", "published_at", "teks": [{"day", "tek_hex"}]}`` objects,
    written directly.  Every number in a chunk is an ``int`` (``Tek`` and
    ``ingest_diagnosis`` refuse any other type), which formats as ``json``
    writes it."""
    return (
        "["
        + ",".join(
            f'{{"index":{c.index},"published_at":{c.published_at},"teks":['
            + ",".join(f'{{"day":{d},"tek_hex":"{b.hex()}"}}' for b, d in c.teks)
            + "]}"
            for c in chunks
        )
        + "]"
    ).encode()


def encode_hash_batch(batch: bytes) -> bytes:
    """The ``/hashes`` reply for a stored batch: ``canonical_json`` of
    ``{"hashes": [...]}`` with its digests in lowercase hex, in the stored
    (ascending) order, written directly with no sort per request."""
    if not batch:
        return b'{"hashes":[]}'
    hexed = batch.hex(",", CONTACT_HASH_LENGTH).encode()
    return b'{"hashes":["' + hexed.replace(b",", b'","') + b'"]}'
