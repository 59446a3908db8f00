"""Incremental exposure evaluation against a from-scratch reference.

Hypothesis drives two observing devices, which share one RPI-index table,
through any interleaving of meetings with three peers (observations plus,
for defended devices, contact records), peer clocks running ahead (so an
observation can fall before its RPI's validity window), diagnoses of those
peers, backend polls and evaluations.  After every evaluation each observer's
``ExposureState`` and its per-chunk matches, in scan order, must equal what
brute-force matching and the per-match naive verifier compute from
everything it has stored and downloaded.
"""

import random

from hypothesis import example, given, settings, strategies as st

from relaysim import gaen, radio
from relaysim.agents import HonestDevice
from relaysim.backend import BackendStore
from relaysim.params import SECONDS_PER_DAY, SimParams

from oracles import aem_tx_power, brute_force_matches, hkdf16, naive_verdict, rpi_bytes

HERE = (44.63, 10.94)
FAR = (44.70, 10.94)  # where relayed packets are heard: another grid cell
PEERS = (("p0", True), ("p1", True), ("p2", False))  # (name, defended)
OBSERVERS = (("me", True), ("you", False))

meet = st.tuples(
    st.just("meet"),
    st.integers(0, len(OBSERVERS) - 1),
    st.integers(0, len(PEERS) - 1),
    st.booleans(),  # relayed: heard far away, and the peer never hears back
    st.sampled_from([-45.0, -90.0]),  # rssi: attenuation under / over threshold
    st.one_of(st.integers(1, 25), st.integers(25, 9000)),  # seconds since last op
)
# from now on the peer advertises the RPI of this many seconds ahead
lead = st.tuples(st.just("lead"), st.integers(0, len(PEERS) - 1), st.sampled_from([0, 30, 700]))
diagnose = st.tuples(st.just("diagnose"), st.integers(0, len(PEERS) - 1))
ops = st.lists(
    st.one_of(meet, lead, diagnose, st.just(("poll",)), st.just(("evaluate",))), max_size=30
)


def _reference_match(tek: gaen.Tek, obs: gaen.Observation, rotation: int) -> gaen.ExposureMatch:
    rpik = hkdf16(tek.bytes, b"SIM-RPIK")
    interval = next(
        i for i in range(SECONDS_PER_DAY // rotation) if rpi_bytes(rpik, i) == obs.rpi
    )
    tx = aem_tx_power(hkdf16(tek.bytes, b"SIM-AEMK"), obs.rpi, obs.aem)
    return gaen.ExposureMatch(
        tek=tek, rpi=obs.rpi, interval_index=interval, tx_power_dbm=tx, observation=obs
    )


def _reference_state(device: HonestDevice, backend: BackendStore, now: int):
    """(alert, score, matches per diagnosis in scan order, verdicts) from scratch."""
    params = device.params
    position = {obs: i for i, obs in enumerate(device.observations)}
    table = device.contacts.records.values() if device.contacts is not None else ()
    records = [
        (r.rpi_low, r.rpi_high, r.cell.lat_index, r.cell.lon_index, r.bucket.index)
        for r in table
    ]
    all_matches, per_diagnosis, verdicts = [], {}, {}
    for chunk in backend.fetch_chunks(0, now):
        if chunk.index > device.last_chunk_index:
            continue
        teks = [gaen.Tek(bytes=b, day_index=d) for b, d in chunk.teks]
        found = brute_force_matches(
            teks, device.observations, params.clock_tolerance_seconds, params.rotation_seconds
        )
        if not found:
            continue
        by_bytes = {(t.bytes, t.day_index): t for t in teks}
        matches = [
            _reference_match(by_bytes[(b, d)], obs, params.rotation_seconds)
            for b, d, obs in sorted(found, key=lambda m: position[m[2]])
        ]
        all_matches += matches
        per_diagnosis[chunk.index] = matches
        if device.actguard_enabled:
            verdicts[chunk.index] = naive_verdict(
                [m.rpi for m in matches],
                records,
                backend.fetch_hash_batch(chunk.index),
                params.neighborhood_cells,
                params.neighborhood_buckets,
            )
    risk = gaen.risk_score(all_matches, params)
    return risk.alert, risk.score, per_diagnosis, verdicts


def _check(device: HonestDevice, backend: BackendStore, now: int) -> None:
    state = device.evaluate_exposure()
    matches = {d: chunk.matches for d, chunk in device.downloaded.items() if chunk.matches}
    assert state.matches_by_diagnosis == {d: len(m) for d, m in matches.items()}
    got = (
        state.gaen_alert,
        state.risk_score,
        matches,
        {d: (v.kind.value, v.rpi) for d, v in state.verdicts.items()},
    )
    assert got == _reference_state(device, backend, now)


@settings(max_examples=50, deadline=None)
@example(
    # The peer's clock runs 10 s ahead at 7190, so the first sighting of its
    # second-interval RPI falls before that RPI's window; the next sighting,
    # at 7200, falls inside.  Only that one may match.
    ops=[("lead", 0, 10), ("meet", 0, 0, False, -45.0, 7190), ("lead", 0, 0),
         ("meet", 0, 0, False, -45.0, 10), ("diagnose", 0), ("poll",), ("evaluate",)],
    tolerance=0,
    cells=1,
    buckets=1,
)
@example(
    # A sighting after the chunk was matched: the second evaluation must match
    # only that new sighting, not the first one again.
    ops=[("meet", 0, 0, False, -45.0, 10), ("diagnose", 0), ("poll",), ("evaluate",),
         ("meet", 0, 0, False, -45.0, 10), ("evaluate",)],
    tolerance=0,
    cells=1,
    buckets=1,
)
@example(
    # Relayed sightings in five rotation intervals and no confirmation: the
    # verdict names the first-sighted RPI, so matching must keep scan order.
    ops=[("meet", 0, 0, True, -45.0, 10)] + [("meet", 0, 0, True, -45.0, 7200)] * 4
    + [("diagnose", 0), ("poll",), ("evaluate",)],
    tolerance=0,
    cells=1,
    buckets=1,
)
@example(
    # Relayed in the first rotation interval, met in person in the second:
    # the second RPI's confirmation must win over the first match's verdict.
    ops=[("meet", 0, 0, True, -45.0, 10), ("meet", 0, 0, False, -45.0, 7200),
         ("diagnose", 0), ("poll",), ("evaluate",)],
    tolerance=0,
    cells=1,
    buckets=1,
)
@given(
    ops=ops,
    tolerance=st.sampled_from([0, 30, 600]),
    cells=st.integers(0, 1),
    buckets=st.integers(0, 1),
)
def test_incremental_exposure_equals_from_scratch(ops, tolerance, cells, buckets):
    params = SimParams(
        clock_tolerance_seconds=tolerance, neighborhood_cells=cells, neighborhood_buckets=buckets
    )
    backend = BackendStore(params, rng=random.Random("exposure-oracle"))
    shared: dict = {}
    observers = [
        HonestDevice(
            n, n.encode() * 4, HERE, params=params, actguard_enabled=g, rpi_indexes=shared
        )
        for n, g in OBSERVERS
    ]
    peers = [
        HonestDevice(n, n.encode() * 4, HERE, params=params, actguard_enabled=g)
        for n, g in PEERS
    ]
    now = 0
    leads = [0] * len(peers)
    for op in ops:
        if op[0] == "meet":
            _, o, p, relayed, rssi, dt = op
            now += dt
            observer, peer = observers[o], peers[p]
            observer.ensure_interval(now)
            peer.ensure_interval(now + leads[p])
            observer.position = FAR if relayed else HERE
            observer.receive(
                [radio.Delivery(peer.name, observer.name, peer.current_packet, rssi)], now
            )
            if not relayed:
                peer.receive(
                    [radio.Delivery(observer.name, peer.name, observer.current_packet, rssi)], now
                )
        elif op[0] == "lead":
            leads[op[1]] = op[2]
        elif op[0] == "diagnose":
            peer = peers[op[1]]
            peer.ensure_interval(now)
            otp = backend.authorize_otp(params.otp_ttl_seconds, now)
            peer.diagnose_and_upload(backend, otp.code, now)
        elif op[0] == "poll":
            for observer in observers:
                observer.poll_backend(backend, now)
        else:
            for observer in observers:
                _check(observer, backend, now)
    for observer in observers:
        observer.poll_backend(backend, now)
        _check(observer, backend, now)
