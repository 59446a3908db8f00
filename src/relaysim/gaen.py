"""Key schedule, pseudonym rotation, metadata encryption, and exposure matching.

One temporary exposure key (TEK) is generated per device per day.  From it
two 16-byte subkeys are derived with HKDF-SHA256 under fixed labels, one for
the rolling proximity identifiers (RPIs) broadcast over the air and one for
the associated encrypted metadata (AEM) that carries the transmit power.
HKDF is RFC 5869 extract-then-expand; both subkeys expand from one extract.
HMAC-SHA256 is RFC 2104 computed from ``hashlib.sha256`` states (see
``HmacSha256``): a key's inner and outer pad states are hashed once and
copied for each message, so the fixed extract key, a device's daily subkeys
and a published key's subkeys are keyed once however many messages they take.
A run's download log expands a published key only through the run's last tick.

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

import math
import struct
from collections.abc import Iterable
from hashlib import sha256
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .params import SECONDS_PER_DAY, TX_POWER_MAX, TX_POWER_MIN, FrozenRecord, SimParams, as_number

TEK_LENGTH = 16
KEY_LENGTH = 16
RPI_LENGTH = 16
AEM_LENGTH = 4

RPIK_LABEL = b"SIM-RPIK"
AEMK_LABEL = b"SIM-AEMK"
TEK_LABEL = b"SIM-TEK"
RPI_LABEL = b"SIM-RPI"
AEM_LABEL = b"SIM-AEM"


_BLOCK = 64  # SHA-256's block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translation tables: key byte -> padded byte
_OPAD = bytes(b ^ 0x5C for b in range(256))


class HmacSha256:
    """HMAC-SHA256 (RFC 2104) under one key.  The key's inner and outer pad
    states are hashed once; each message continues copies of them."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = sha256(key.translate(_IPAD))
        self._outer = sha256(key.translate(_OPAD))

    def digest(self, msg: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(msg)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


_EXTRACT = HmacSha256(bytes(32))  # HKDF-extract with no salt: HashLen zero bytes


class Tek(FrozenRecord):
    """Daily 16-byte temporary exposure key; ``day_index`` is an ``int``
    of 0 or more (a ``bool`` or ``float`` raises ValueError)."""

    __slots__ = ("bytes", "day_index")

    def __init__(self, bytes: bytes, day_index: int) -> None:
        if len(bytes) != TEK_LENGTH:
            raise ValueError(f"tek must be {TEK_LENGTH} bytes, got {len(bytes)}")
        if as_number(int, day_index, "day_index") < 0:
            raise ValueError("day_index must be >= 0")
        self._set(bytes, day_index)


class Rpi(NamedTuple):
    """Rolling proximity identifier for one rotation window of a day."""

    bytes: bytes
    interval_index: int


class Observation(NamedTuple):
    """One advertisement as stored by the scanning device."""

    rpi: bytes
    aem: bytes
    rssi: float
    scan_time: int


class ExposureMatch(NamedTuple):
    """An observation that matched a diagnosed device's expanded RPI."""

    tek: Tek
    rpi: bytes
    interval_index: int
    tx_power_dbm: int
    observation: Observation


class RiskResult(NamedTuple):
    score: float
    alert: bool


def generate_tek(seed: bytes, day_index: int) -> Tek:
    """Derive the day's key from a device seed; same inputs, same key."""
    if day_index < 0:
        raise ValueError("day_index must be >= 0")
    mac = HmacSha256(seed).digest(TEK_LABEL + struct.pack(">Q", day_index))
    return Tek(bytes=mac[:TEK_LENGTH], day_index=day_index)


def _hkdf16(ikm: bytes, *labels: bytes) -> tuple[bytes, ...]:
    """RFC 5869 with no salt (HashLen zero bytes): one extract, one expand block per label."""
    prk = HmacSha256(_EXTRACT.digest(ikm))
    return tuple(prk.digest(label + b"\x01")[:KEY_LENGTH] for label in labels)


def derive_subkeys(tek: Tek) -> tuple[bytes, ...]:
    """The key's (rpik, aemk), from one HKDF extract."""
    return _hkdf16(tek.bytes, RPIK_LABEL, AEMK_LABEL)


def derive_rpi(rpik: HmacSha256, interval_index: int, params: SimParams) -> Rpi:
    """Pseudonym for one rotation window; the index must fall within the day."""
    n = params.intervals_per_day
    if not 0 <= interval_index < n:
        raise ValueError(f"interval_index {interval_index} outside [0, {n})")
    mac = rpik.digest(RPI_LABEL + struct.pack(">I", interval_index))
    return Rpi(bytes=mac[:RPI_LENGTH], interval_index=interval_index)


def _aem_keystream(aemk: HmacSha256, rpi: bytes) -> bytes:
    return aemk.digest(AEM_LABEL + rpi)[:AEM_LENGTH]


def encrypt_aem(aemk: HmacSha256, rpi: bytes, tx_power_dbm: int) -> bytes:
    if not TX_POWER_MIN <= tx_power_dbm <= TX_POWER_MAX:
        raise ValueError(f"tx_power {tx_power_dbm} outside [{TX_POWER_MIN}, {TX_POWER_MAX}]")
    ks = int.from_bytes(_aem_keystream(aemk, rpi), "big")
    return ((tx_power_dbm & 0xFFFFFFFF) ^ ks).to_bytes(AEM_LENGTH, "big")  # int32_be XOR keystream


def decrypt_aem(aemk: HmacSha256, rpi: bytes, aem: bytes) -> int:
    if len(aem) != AEM_LENGTH:
        raise ValueError(f"aem must be {AEM_LENGTH} bytes, got {len(aem)}")
    plain = int.from_bytes(aem, "big") ^ int.from_bytes(_aem_keystream(aemk, rpi), "big")
    return plain - (plain >> 31 << 32)  # the int32 it encodes


def expand_diagnosis_key(tek: Tek, params: SimParams, until: float = math.inf) -> list[Rpi]:
    """The pseudonyms of a published daily key, in interval order, whose
    windows widened by the clock tolerance start at or before ``until``: all
    of the day's by default.  No scan by ``until`` can match another."""
    n = params.intervals_per_day
    late = until - (tek.day_index * SECONDS_PER_DAY - params.clock_tolerance_seconds)
    if late < 0:  # ``until`` comes before the first widened window
        return []
    if late < (n - 1) * params.rotation_seconds:  # finite, so it floor-divides
        n = int(late // params.rotation_seconds) + 1
    rpik = HmacSha256(derive_subkeys(tek)[0])
    return [derive_rpi(rpik, i, params) for i in range(n)]


def rpi_window(day_index: int, interval_index: int, rotation_seconds: int) -> tuple[int, int]:
    """Half-open [start, end) validity of one pseudonym, in sim seconds."""
    start = day_index * SECONDS_PER_DAY + interval_index * rotation_seconds
    return start, start + rotation_seconds


class IndexedRpi(NamedTuple):
    """One expanded pseudonym of a diagnosed key, ready to match."""

    tek: Tek
    aemk: HmacSha256
    interval_index: int
    start: int  # validity window [start, end) in sim seconds
    end: int


RpiIndex = dict[bytes, list[IndexedRpi]]
DiagnosisEntry = tuple[int, IndexedRpi]  # (diagnosis id, entry): see agents.DownloadLog


class MatchedSightings(NamedTuple):
    """One match run, as risk scoring, verification (``rpi``) and a
    device's first-match events read it."""

    chunk: int  # the chunk's diagnosis id
    rpi: bytes
    attenuation: float  # tx_power_dbm - rssi
    times: range  # the matched scan times, ascending, not empty


def build_rpi_index(
    diagnosis_teks: list[Tek], params: SimParams, until: float = math.inf
) -> RpiIndex:
    """Expand a chunk's keys once into an index from RPI bytes to pseudonyms.

    Each key is expanded through ``until`` (see ``expand_diagnosis_key``),
    so the index matches each scan by ``until`` as the full one does; a key
    with no pseudonym left derives no AEM key.  The index depends only on
    the keys, ``until`` and ``params``, so one index can serve every device
    that downloads the chunk.
    """
    index: RpiIndex = {}
    for tek in diagnosis_teks:
        rpis = expand_diagnosis_key(tek, params, until)
        if not rpis:
            continue
        aemk = HmacSha256(derive_subkeys(tek)[1])
        for rpi in rpis:
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
    misses).  The decrypted transmit power rides along.  Matching a list in
    slices yields the same matches as matching it whole.

    This is the one-sighting-at-a-time matcher, kept as the reference for
    tests; devices match observation runs (see ``agents.HonestDevice``).
    """
    clock_tolerance = params.clock_tolerance_seconds
    matches: list[ExposureMatch] = []
    for obs in observations:
        for entry in index.get(obs.rpi, ()):
            if entry.start - clock_tolerance <= obs.scan_time < entry.end + clock_tolerance:
                tx = decrypt_aem(entry.aemk, obs.rpi, obs.aem)
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


def risk_score(matches: list[MatchedSightings], params: SimParams) -> RiskResult:
    """Aggregate match runs into a duration-weighted score.

    ``matches`` holds the match runs of every chunk in (chunk, run, entry)
    order.  The runs of one RPI are grouped into contact episodes: clusters
    of runs whose spans lie at most two beacon intervals (ticks) apart.
    Each episode contributes its duration in minutes if its mean
    attenuation stays at or below the threshold, else nothing.  The alert
    flag compares the total against the configured threshold.

    The float sums are those of scoring one sighting at a time: RPIs in the
    order of their first match in (chunk, scan time, run, entry) order, and
    an episode's attenuations in (scan time, chunk, run, entry) order.  An
    episode of one run adds its one attenuation once per scan time; one of
    several runs sorts its sightings in that order first.
    """
    tick = params.tick_seconds
    groups: dict[bytes, list[int]] = {}
    for i, m in enumerate(matches):
        groups.setdefault(m.rpi, []).append(i)

    def first_match(group: list[int]) -> tuple[int, int, int]:
        return min((matches[i].chunk, matches[i].times[0], i) for i in group)

    score = 0.0
    for group in sorted(groups.values(), key=first_match):
        episodes: list[list] = []  # [first, last, run indexes]
        for i in sorted(group, key=lambda i: matches[i].times[0]):  # ties in run order
            times = matches[i].times
            if not episodes or times[0] - episodes[-1][1] > 2 * tick:
                episodes.append([times[0], times[-1], [i]])
            else:
                episodes[-1][1] = max(episodes[-1][1], times[-1])
                episodes[-1][2].append(i)
        for first, last, runs in episodes:
            count = sum(len(matches[i].times) for i in runs)
            if len(runs) == 1:
                attenuations = repeat(matches[runs[0]].attenuation, count)
            else:
                attenuations = map(itemgetter(2), sorted(chain.from_iterable(
                    zip(matches[i].times, repeat(i), repeat(matches[i].attenuation)) for i in runs
                )))
            if sum(attenuations) / count <= params.attenuation_threshold_db:
                score += (last - first + tick) / 60.0
    return RiskResult(score=score, alert=score >= params.alert_threshold_minutes)
