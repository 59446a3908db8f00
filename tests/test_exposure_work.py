"""During a run the world only polls; matching and scoring wait for its
end, or for a result to be read.

The counting test pins how often a run polls, reads its matches and scores:
the world polls its devices' one ``DownloadLog`` once per round that
published a chunk, which fetches each chunk and its hash batch once, and
each device reads and scores once in all, for its report.  The tick test
pins that no tick looks a run up or scores: all of it happens after the last
tick.  The lookup test pins how matching works: on the sightings of inbox
spans, each looked up at most once per read in the log's one index over
every downloaded chunk, whatever the chunk count, with no per-sighting
``Observation`` or ``ExposureMatch`` built.  The run-record test pins that
no tick builds a match record, a ``gaen.MatchedSightings``, and that the end
of a run builds one per match run: per sighting and index entry of its RPI
with a scan time in the entry's window.  The expansion test pins that the
devices of a run share that index, which grows chunk by chunk: each
published key is expanded once, however often exposure is read mid-run,
and only through the run's last tick, so a run that ends early in the keys'
day derives few of its pseudonyms.  The twin test runs every golden config again with a log that
expands each key in full and checks that the report bytes do not change.
The purity test evaluates every device's exposure after every tick and
checks that the report bytes do not change.
"""

from collections import Counter
from unittest import mock

import pytest

from relaysim import gaen
from relaysim.agents import DownloadLog, HonestDevice
from relaysim.backend import BackendStore
from relaysim.scenario import World

from golden.gen_reports import REPORTS, golden_config, golden_names
from oracles import sightings


def _counting(owner, attr: str, calls: Counter):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    return mock.patch.object(owner, attr, counted)


class CountingIndex(dict):
    """An RPI index that counts the lookups of each RPI."""

    def __init__(self, index):
        super().__init__(index)
        self.lookups: Counter = Counter()

    def get(self, rpi, default=None):
        self.lookups[rpi] += 1
        return super().get(rpi, default)

    def __getitem__(self, rpi):
        self.lookups[rpi] += 1
        return super().__getitem__(rpi)

    def __contains__(self, rpi):
        self.lookups[rpi] += 1
        return super().__contains__(rpi)


class ReadingWorld(World):
    """Evaluates every device's exposure after every tick."""

    def step(self):
        super().step()
        for device in self.devices.values():
            device.evaluate_exposure()


@pytest.mark.parametrize("name", golden_names())
def test_polls_once_per_chunk_and_scores_once(name):
    # crowd_guarded_small is the benchmark's crowd_guarded shape, scaled down.
    world = World(golden_config(name))
    calls: Counter = Counter()
    poll, fetch_chunks = DownloadLog.poll, BackendStore.fetch_chunks

    def polling(log, backend, now):
        calls["poll"] += 1
        with _counting(BackendStore, "fetch_hash_batch", calls):
            return poll(log, backend, now)

    def fetching(backend, since_index, now):
        chunks = fetch_chunks(backend, since_index, now)
        calls["fetched chunks"] += len(chunks)
        return chunks

    with (
        mock.patch.object(DownloadLog, "poll", polling),
        mock.patch.object(BackendStore, "fetch_chunks", fetching),
        _counting(HonestDevice, "_matched", calls),
        _counting(HonestDevice, "evaluate_exposure", calls),
        _counting(gaen, "risk_score", calls),
    ):
        report = world.run().data
    chunks = world.backend.chunk_count
    publishing_ticks = {e["t"] for e in report["events"] if e["event"] == "diagnosis"}
    assert chunks == len(publishing_ticks) > 0
    assert calls["poll"] == chunks  # once per publishing round
    assert calls["fetched chunks"] == calls["fetch_hash_batch"] == chunks  # once per world
    for once_per_device in ("_matched", "evaluate_exposure", "risk_score"):
        assert calls[once_per_device] == len(world.devices), once_per_device


@pytest.mark.parametrize("name", golden_names())
def test_no_tick_matches_or_scores(name):
    world = World(golden_config(name))
    calls: Counter = Counter()
    ticking: list = []
    step = World.step

    def flagging(owner, attr: str):
        original = getattr(owner, attr)

        def flagged(*args, **kwargs):
            calls[attr, bool(ticking)] += 1
            return original(*args, **kwargs)

        return mock.patch.object(owner, attr, flagged)

    def flagged_step(world):
        ticking.append(world.now)
        try:
            step(world)
        finally:
            ticking.pop()

    with (
        mock.patch.object(World, "step", flagged_step),
        flagging(HonestDevice, "_matched"),
        flagging(gaen, "risk_score"),
    ):
        world.run()
    assert not [key for key in calls if key[1]]  # nothing called inside a tick
    assert calls["_matched", False]
    assert calls["risk_score", False] == len(world.devices)


@pytest.mark.parametrize("name", golden_names())
def test_each_run_is_looked_up_once_per_chunk_and_no_sighting_is_built(name):
    # Once per read in the index over every chunk, so at most once per chunk.
    world = World(golden_config(name))
    calls: Counter = Counter()
    reads: list = []  # (device's sightings by RPI, the index it read), per _matched call
    matched = HonestDevice._matched

    def reading(device):
        downloads, index = device.downloads, device.downloads.index
        table = downloads.index = CountingIndex(index)
        reads.append((Counter(rpi for rpi, *_ in sightings(device)), table))
        try:
            return matched(device)
        finally:
            downloads.index = index

    with (
        _counting(gaen, "ExposureMatch", calls),
        _counting(gaen, "Observation", calls),
        mock.patch.object(HonestDevice, "_matched", reading),
    ):
        world.run()
    assert calls == Counter()
    assert reads
    for runs, table in reads:
        assert table.lookups <= runs  # one lookup per sighting at most
    assert sum(table.lookups.total() for _, table in reads) > 0


def _match_runs(device: HonestDevice) -> int:
    """How many pairs of one of the device's sightings and an index entry
    of its RPI have a scan time inside the entry's clock-widened window."""
    tolerance, tick = device.params.clock_tolerance_seconds, device.params.tick_seconds
    return sum(
        any(
            entry.start - tolerance <= t < entry.end + tolerance
            for t in range(first, last + 1, tick)
        )
        for rpi, _, _, first, last in sightings(device)
        for _, entry in device.downloads.index.get(rpi, ())
    )


@pytest.mark.parametrize("name", golden_names())
def test_only_the_end_of_a_run_builds_observation_runs_one_per_match(name):
    world = World(golden_config(name))
    built: list = []  # the tick each match record was built in, None outside a tick
    ticking: list = []
    record, step = gaen.MatchedSightings, World.step

    def counted(*args):
        built.append(ticking[-1] if ticking else None)
        return record(*args)

    def flagged_step(world):
        ticking.append(world.now)
        try:
            step(world)
        finally:
            ticking.pop()

    with (
        mock.patch.object(gaen, "MatchedSightings", counted),
        mock.patch.object(World, "step", flagged_step),
    ):
        for _ in range(world.config.duration // world.params.tick_seconds):
            world.step()
        assert built == []
        report = world.finish().to_json_bytes()
    assert report == (REPORTS / f"{name}.json").read_bytes()
    assert built == [None] * sum(map(_match_runs, world.devices.values()))


class FullExpansionWorld(World):
    """A world whose devices share a download log that expands every
    published key in full."""

    def __init__(self, config):
        super().__init__(config)
        self.downloads = DownloadLog(self.params)
        for device in self.devices.values():
            device.downloads = self.downloads


def _expanding(derived: list):
    """Record (pseudonyms derived, pseudonyms in the day) per expansion."""
    expand = gaen.expand_diagnosis_key

    def expanding(tek, params, *until):
        rpis = expand(tek, params, *until)
        derived.append((len(rpis), params.intervals_per_day))
        return rpis

    return mock.patch.object(gaen, "expand_diagnosis_key", expanding)


# Pseudonyms derived of each published key's day: every golden run ends
# within the keys' first one to three rotation windows, widened by the
# tolerance.
DERIVED_PER_KEY = {"replay_expired": (3, 12), "packed_small": (5, 144)}


@pytest.mark.parametrize("name", golden_names())
def test_each_published_key_is_expanded_once(name):
    for world_class in (World, ReadingWorld):  # the latter reads exposure after every tick
        world = world_class(golden_config(name))
        derived: list = []
        with _expanding(derived):
            world.run()
        chunks = world.backend.fetch_chunks(0, world.now)
        assert len(derived) == sum(len(c.teks) for c in chunks) > 0, world_class
        assert set(derived) == {DERIVED_PER_KEY.get(name, (1, 12))}, world_class


@pytest.mark.parametrize("name", golden_names())
def test_expanding_keys_in_full_leaves_the_report_alone(name):
    derived: list = []
    with _expanding(derived):
        full = FullExpansionWorld(golden_config(name)).run().to_json_bytes()
    assert derived and all(n == per_day for n, per_day in derived)  # every key in full
    assert full == World(golden_config(name)).run().to_json_bytes()


@pytest.mark.parametrize("name", ["scenario1", "packed_small"])
def test_reading_exposure_mid_run_leaves_the_report_alone(name):
    calls: Counter = Counter()
    with _counting(gaen, "risk_score", calls):
        reading = ReadingWorld(golden_config(name)).run().to_json_bytes()
    assert calls["risk_score"] > len(World(golden_config(name)).devices)  # scored mid-run
    assert reading == World(golden_config(name)).run().to_json_bytes()
    assert reading == (REPORTS / f"{name}.json").read_bytes()
