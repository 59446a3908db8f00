"""Health-authority and hash-server state: OTPs, TEK chunks, hash batches.

One ``BackendStore`` serves both roles.  Every mutating or time-sensitive
call takes the current time explicitly, so the same logic runs under the
simulation clock in-process and under a wall clock behind the HTTP wire
(see :mod:`relaysim.wire`).

Diagnosis uploads are published as immutable chunks with strictly
incremental indices; a hash batch uploaded alongside is stored under the
same index, which is what lets verifiers tell "no batch" (unverifiable)
from "batch without a match" (relay suspected).
"""

from __future__ import annotations

import json
import random
import secrets
from dataclasses import dataclass

from .gaen import Tek
from .params import SECONDS_PER_DAY, SimParams

OTP_BYTES = 16


class BackendError(Exception):
    """Base for rejected backend operations."""


class OtpError(BackendError):
    """Unknown, reused, or expired one-time password."""


class StaleTekError(BackendError):
    """An uploaded key is older than the retention horizon."""


class BackendUnavailable(BackendError):
    """Transient transport failure; the caller should retry later."""


@dataclass
class Otp:
    code: str
    authorized_at: int
    ttl: int
    used: bool = False

    def expired(self, now: int) -> bool:
        return now > self.authorized_at + self.ttl


@dataclass(frozen=True)
class TekChunk:
    index: int
    teks: tuple[tuple[bytes, int], ...]  # (tek bytes, day_index), device-anonymous
    published_at: int


class BackendStore:
    """In-memory single-writer store; reads are snapshot-consistent.

    Keys and chunks are kept for ``params.tek_retention_days``.  ``rng``
    seeds OTP generation for reproducible simulation runs; leave it None for
    real deployments to fall back to ``secrets``.
    """

    def __init__(self, params: SimParams, *, rng: random.Random | None = None):
        self._rng = rng
        self._retention_days = params.tek_retention_days
        self._otps: dict[str, Otp] = {}
        self._chunks: list[TekChunk] = []
        self._batches: dict[int, frozenset[bytes]] = {}
        self.audit: list[dict] = []

    def _new_code(self) -> str:
        if self._rng is not None:
            return self._rng.randbytes(OTP_BYTES).hex()
        return secrets.token_hex(OTP_BYTES)

    def authorize_otp(self, ttl: int, now: int) -> Otp:
        otp = Otp(code=self._new_code(), authorized_at=now, ttl=ttl)
        self._otps[otp.code] = otp
        self.audit.append({"op": "authorize_otp", "t": now, "code": otp.code, "ttl": ttl})
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
        """Validate the OTP and keys, then publish a new chunk.

        Rejections leave the store untouched (the OTP stays unused).  An
        empty hash batch is treated as absent: only users of the defense
        upload one at all.
        """
        diagnosis_day = now // SECONDS_PER_DAY
        try:
            otp = self._check_otp(otp_code, now)
            for tek in teks:
                if tek.day_index < diagnosis_day - self._retention_days:
                    raise StaleTekError(
                        f"tek for day {tek.day_index} is older than "
                        f"{self._retention_days} days at day {diagnosis_day}"
                    )
        except BackendError as exc:
            self.audit.append(
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
            self._batches[index] = frozenset(hash_batch)
        self.audit.append(
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
            for c in self._chunks
            if c.index > since_index and now - c.published_at <= horizon
        ]

    def fetch_hash_batch(self, diagnosis_id: int) -> frozenset[bytes] | None:
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


def decode_diagnosis_payload(raw: bytes) -> tuple[list[Tek], str, set[bytes] | None]:
    body = json.loads(raw)
    teks = [Tek(bytes=bytes.fromhex(t["tek_hex"]), day_index=int(t["day"])) for t in body["teks"]]
    hashes_hex = body.get("hashes")
    hashes = {bytes.fromhex(h) for h in hashes_hex} if hashes_hex else None
    return teks, str(body["otp"]), hashes


def encode_chunks(chunks: list[TekChunk]) -> bytes:
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


def encode_hash_batch(hashes: frozenset[bytes]) -> bytes:
    return canonical_json({"hashes": sorted(h.hex() for h in hashes)})
