"""Key schedule, pseudonym rotation, metadata encryption, and exposure matching.

One temporary exposure key (TEK) is generated per device per day.  From it
two 16-byte subkeys are derived with HKDF-SHA256 under fixed labels, one for
the rolling proximity identifiers (RPIs) broadcast over the air and one for
the associated encrypted metadata (AEM) that carries the transmit power.

The concrete derivations below are frozen constants of this simulator,
covered by golden-vector tests.  They mirror how the deployed protocol
chains its keys but are not bit-compatible with it; bit-compatibility is
a non-goal here.

    tek            = HMAC-SHA256(seed, "SIM-TEK" || day_index_be8)[:16]
    rpik           = HKDF-SHA256(ikm=tek, salt=None, info="SIM-RPIK", L=16)
    aemk           = HKDF-SHA256(ikm=tek, salt=None, info="SIM-AEMK", L=16)
    rpi[i]         = HMAC-SHA256(rpik, "SIM-RPI" || interval_be4)[:16]
    aem            = int32_be(tx_power) XOR HMAC-SHA256(aemk, "SIM-AEM" || rpi)[:4]

Decrypting an AEM with the wrong key yields an arbitrary value rather than
an error; the protocol carries no authenticity for metadata.
"""

from __future__ import annotations

import hmac
import hashlib
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .params import SECONDS_PER_DAY, TX_POWER_MAX, TX_POWER_MIN, SimParams

TEK_LENGTH = 16
KEY_LENGTH = 16
RPI_LENGTH = 16
AEM_LENGTH = 4

RPIK_LABEL = b"SIM-RPIK"
AEMK_LABEL = b"SIM-AEMK"
TEK_LABEL = b"SIM-TEK"
RPI_LABEL = b"SIM-RPI"
AEM_LABEL = b"SIM-AEM"


@dataclass(frozen=True)
class Tek:
    """Daily 16-byte temporary exposure key."""

    bytes: bytes
    day_index: int

    def __post_init__(self) -> None:
        if len(self.bytes) != TEK_LENGTH:
            raise ValueError(f"tek must be {TEK_LENGTH} bytes, got {len(self.bytes)}")
        if self.day_index < 0:
            raise ValueError("day_index must be >= 0")


@dataclass(frozen=True)
class Rpi:
    """Rolling proximity identifier for one rotation window of a day."""

    bytes: bytes
    interval_index: int


class Observation(NamedTuple):
    """One advertisement as stored by the scanning device.

    ``location`` is the scanner's own position at scan time; the packet
    itself never carries coordinates.
    """

    rpi: bytes
    aem: bytes
    rssi: float
    scan_time: int
    location: tuple[float, float]


class ExposureMatch(NamedTuple):
    """An observation that matched a diagnosed device's expanded RPI."""

    tek: Tek
    rpi: bytes
    interval_index: int
    tx_power_dbm: int
    observation: Observation


@dataclass(frozen=True)
class RiskResult:
    score: float
    alert: bool


def generate_tek(seed: bytes, day_index: int) -> Tek:
    """Derive the day's key from a device seed; same inputs, same key."""
    if day_index < 0:
        raise ValueError("day_index must be >= 0")
    mac = hmac.new(seed, TEK_LABEL + struct.pack(">Q", day_index), hashlib.sha256)
    return Tek(bytes=mac.digest()[:TEK_LENGTH], day_index=day_index)


def _hkdf16(ikm: bytes, label: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=KEY_LENGTH, salt=None, info=label
    ).derive(ikm)


def derive_rpik(tek: Tek) -> bytes:
    return _hkdf16(tek.bytes, RPIK_LABEL)


def derive_aemk(tek: Tek) -> bytes:
    return _hkdf16(tek.bytes, AEMK_LABEL)


def derive_rpi(rpik: bytes, interval_index: int, params: SimParams) -> Rpi:
    """Pseudonym for one rotation window; the index must fall within the day."""
    n = params.intervals_per_day
    if not 0 <= interval_index < n:
        raise ValueError(f"interval_index {interval_index} outside [0, {n})")
    mac = hmac.new(rpik, RPI_LABEL + struct.pack(">I", interval_index), hashlib.sha256)
    return Rpi(bytes=mac.digest()[:RPI_LENGTH], interval_index=interval_index)


def _aem_keystream(aemk: bytes, rpi: bytes) -> bytes:
    return hmac.new(aemk, AEM_LABEL + rpi, hashlib.sha256).digest()[:AEM_LENGTH]


def encrypt_aem(aemk: bytes, rpi: bytes, tx_power_dbm: int) -> bytes:
    if not TX_POWER_MIN <= tx_power_dbm <= TX_POWER_MAX:
        raise ValueError(f"tx_power {tx_power_dbm} outside [{TX_POWER_MIN}, {TX_POWER_MAX}]")
    plain = struct.pack(">i", tx_power_dbm)
    ks = _aem_keystream(aemk, rpi)
    return bytes(p ^ k for p, k in zip(plain, ks))


def decrypt_aem(aemk: bytes, rpi: bytes, aem: bytes) -> int:
    if len(aem) != AEM_LENGTH:
        raise ValueError(f"aem must be {AEM_LENGTH} bytes, got {len(aem)}")
    ks = _aem_keystream(aemk, rpi)
    plain = bytes(c ^ k for c, k in zip(aem, ks))
    return struct.unpack(">i", plain)[0]


def expand_diagnosis_key(tek: Tek, params: SimParams) -> list[Rpi]:
    """All pseudonyms a published daily key resolves to, in interval order."""
    rpik = derive_rpik(tek)
    return [derive_rpi(rpik, i, params) for i in range(params.intervals_per_day)]


def rpi_window(day_index: int, interval_index: int, rotation_seconds: int) -> tuple[int, int]:
    """Half-open [start, end) validity of one pseudonym, in sim seconds."""
    start = day_index * SECONDS_PER_DAY + interval_index * rotation_seconds
    return start, start + rotation_seconds


class IndexedRpi(NamedTuple):
    """One expanded pseudonym of a diagnosed key, ready to match."""

    tek: Tek
    aemk: bytes
    interval_index: int
    start: int  # validity window [start, end) in sim seconds
    end: int


RpiIndex = dict[bytes, list[IndexedRpi]]


def build_rpi_index(diagnosis_teks: list[Tek], params: SimParams) -> RpiIndex:
    """Expand a chunk's keys once into an index from RPI bytes to pseudonyms.

    The index depends only on the keys and the rotation period, so one
    index can serve every device that downloads the chunk.
    """
    index: RpiIndex = {}
    for tek in diagnosis_teks:
        aemk = derive_aemk(tek)
        for rpi in expand_diagnosis_key(tek, params):
            start, end = rpi_window(tek.day_index, rpi.interval_index, params.rotation_seconds)
            index.setdefault(rpi.bytes, []).append(
                IndexedRpi(tek, aemk, rpi.interval_index, start, end)
            )
    return index


def match_indexed(
    index: RpiIndex, observations: Iterable[Observation], params: SimParams
) -> list[ExposureMatch]:
    """Match observations, in order, against one chunk's RPI index.

    A match requires byte equality with an expanded RPI *and* a scan time
    inside that RPI's validity window widened by ``clock_tolerance_seconds``
    on both sides (half-open, so a scan at exactly window_end + tolerance
    misses).
    The decrypted transmit power rides along for risk scoring; a packet
    heard many times is decrypted once per call.  Matching a list in slices
    yields the same matches as matching it whole.
    """
    clock_tolerance = params.clock_tolerance_seconds
    matches: list[ExposureMatch] = []
    tx_powers: dict[tuple[bytes, bytes, bytes], int] = {}
    for obs in observations:
        for entry in index.get(obs.rpi, ()):
            if entry.start - clock_tolerance <= obs.scan_time < entry.end + clock_tolerance:
                key = (entry.aemk, obs.rpi, obs.aem)
                tx = tx_powers.get(key)
                if tx is None:
                    tx = tx_powers[key] = decrypt_aem(entry.aemk, obs.rpi, obs.aem)
                matches.append(ExposureMatch(entry.tek, obs.rpi, entry.interval_index, tx, obs))
    return matches


def match_observations(
    diagnosis_teks: list[Tek], store: list[Observation], params: SimParams
) -> list[ExposureMatch]:
    """Find stored observations that belong to diagnosed keys.

    Builds the keys' RPI index and matches the whole store against it; see
    :func:`match_indexed` for what counts as a match.
    """
    return match_indexed(build_rpi_index(diagnosis_teks, params), store, params)


def risk_score(matches: list[ExposureMatch], params: SimParams) -> RiskResult:
    """Aggregate matched observations into a duration-weighted score.

    Matches of the same RPI are grouped into contact episodes; a gap longer
    than two beacon intervals (ticks) ends an episode.  Each episode
    contributes its duration in minutes if its mean attenuation
    (tx_power - rssi) stays at or below the threshold, else nothing.  The
    alert flag compares the total against the configured threshold.
    """
    beacon_interval_seconds = params.tick_seconds
    by_rpi: dict[bytes, list[ExposureMatch]] = {}
    for m in matches:
        by_rpi.setdefault(m.rpi, []).append(m)

    score = 0.0
    for group in by_rpi.values():
        ordered = sorted(group, key=lambda m: m.observation.scan_time)
        episodes: list[list[ExposureMatch]] = [[ordered[0]]]
        for m in ordered[1:]:
            gap = m.observation.scan_time - episodes[-1][-1].observation.scan_time
            if gap > 2 * beacon_interval_seconds:
                episodes.append([m])
            else:
                episodes[-1].append(m)
        for ep in episodes:
            first = ep[0].observation.scan_time
            last = ep[-1].observation.scan_time
            minutes = (last - first + beacon_interval_seconds) / 60.0
            attenuation = sum(m.tx_power_dbm - m.observation.rssi for m in ep) / len(ep)
            if attenuation <= params.attenuation_threshold_db:
                score += minutes
    return RiskResult(score=score, alert=score >= params.alert_threshold_minutes)
