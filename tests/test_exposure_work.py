"""Exposure work happens when a chunk arrives or a result is read, and only then.

The counting test pins how often a run polls and scores: once per device per
published chunk, and once per device in all, at the final evaluation.  The
purity test reads every device's exposure after every tick and checks that
the report bytes do not change.
"""

from collections import Counter
from unittest import mock

import pytest

from relaysim import gaen
from relaysim.agents import HonestDevice
from relaysim.scenario import World

from golden.gen_reports import REPORTS, golden_config, golden_names


def _counting(owner, attr: str, calls: Counter):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    return mock.patch.object(owner, attr, counted)


class ReadingWorld(World):
    """Reads every device's exposure after every tick."""

    def step(self):
        super().step()
        for device in self.devices.values():
            device.exposure


@pytest.mark.parametrize("name", golden_names())
def test_polls_once_per_chunk_and_scores_once(name):
    # crowd_guarded_small is the benchmark's crowd_guarded shape, scaled down.
    world = World(golden_config(name))
    calls: Counter = Counter()
    with _counting(HonestDevice, "poll_backend", calls), _counting(gaen, "risk_score", calls):
        report = world.run().to_dict()
    chunks = world.backend.chunk_count
    publishing_ticks = {e["t"] for e in report["events"] if e["event"] == "diagnosis"}
    assert chunks == len(publishing_ticks) > 0
    assert calls["poll_backend"] == len(world.devices) * chunks
    assert calls["risk_score"] == len(world.devices)


@pytest.mark.parametrize("name", ["scenario1", "packed_small"])
def test_reading_exposure_mid_run_leaves_the_report_alone(name):
    calls: Counter = Counter()
    with _counting(gaen, "risk_score", calls):
        reading = ReadingWorld(golden_config(name)).run().to_json_bytes()
    assert calls["risk_score"] > len(World(golden_config(name)).devices)  # scored mid-run
    assert reading == World(golden_config(name)).run().to_json_bytes()
    assert reading == (REPORTS / f"{name}.json").read_bytes()
