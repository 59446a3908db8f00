"""The bench tracer's hold on the package's names.

``bench/sim_trace.py`` wraps package functions and methods through
``owner.__dict__[attr]``, so renaming or removing one of them, or moving a
method to a base class, breaks the benchmark's traced passes.  This test
installs the tracer in both of its modes, runs a bundled scenario under it
and checks that the report bytes are the golden ones and that ``close``
puts back every name of the package as it was.  It also checks that each
honest device's one end-of-run read goes through the traced
``evaluate_exposure`` inside ``World.run``: the benchmark's exposure
metrics read 0 if a run routes around it.

The counting pass counts ``contact_hash`` calls under ``verify_exposure``
as the benchmark's candidate digests, so verification must hash through
the module's ``contact_hash``, and each distinct candidate at most once.

``bench/run.py`` also times each ``World.step`` call of a simulation pass as
one request, so ``World.run`` must call it once per tick: a run that skipped
ticks would change what the benchmark's request rate and latency measure.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from relaysim.scenario import World

from golden.gen_reports import REPORTS, golden_config, golden_names

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _namespaces() -> dict[str, dict]:
    """A copy of the namespace of every package module and of every class
    defined in one."""
    spaces = {}
    for name, module in list(sys.modules.items()):
        if name == "relaysim" or name.startswith("relaysim."):
            spaces[name] = dict(vars(module))
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == name:
                    spaces[f"{name}.{cls_name}"] = dict(vars(cls))
    return spaces


@pytest.mark.parametrize("counting", [False, True])
def test_tracer_wraps_and_restores_the_package(counting, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    sim_trace = importlib.import_module("sim_trace")
    tracer_module = importlib.import_module("tracer")
    before = _namespaces()
    tracer = tracer_module.Tracer()
    try:
        sim_trace.install(tracer, counting=counting)
        report = World(golden_config("scenario1")).run().to_json_bytes()
    finally:
        tracer.close()
    assert report == (REPORTS / "scenario1.json").read_bytes()
    assert tracer.spans
    assert _namespaces() == before
    (run,) = [s.id for s in tracer.spans if s.name == "scenario.World.run"]
    evaluations = [s.parent for s in tracer.spans if s.name == "agents.evaluate_exposure"]
    honest = [a for a in golden_config("scenario1").actors if a.role == "honest"]
    assert evaluations == [run] * len(honest)


@pytest.mark.parametrize("name", golden_names())
def test_run_steps_once_per_tick(name, monkeypatch):
    # Patched as bench/run.py patches it, on the class.
    calls = []
    step = World.step

    def counted_step(self):
        calls.append(self.now)
        step(self)

    monkeypatch.setattr(World, "step", counted_step)
    world = World(golden_config(name))
    world.run()
    tick = world.params.tick_seconds
    assert calls == [i * tick for i in range(world.config.duration // tick)]


def test_verification_hashes_through_contact_hash_once_per_candidate(monkeypatch):
    # The benchmark's actguard.candidate_digests counts contact_hash calls
    # under verify_exposure: it reads 0 if verification hashes some other
    # way, and more than the distinct candidates if it hashes one twice.
    monkeypatch.syspath_prepend(str(BENCH))
    sim_trace = importlib.import_module("sim_trace")
    tracer_module = importlib.import_module("tracer")
    from relaysim import actguard

    verify = actguard.verify_exposure
    candidates = 0

    def with_candidates(match, rows, batch, *, diagnosis_id, params):
        nonlocal candidates
        if batch:
            cells = range(-params.neighborhood_cells, params.neighborhood_cells + 1)
            reach = params.neighborhood_buckets
            candidates += len({
                (lo, hi, lat + dlat, lon + dlon, bucket)
                for lo, hi, (lat, lon), buckets in rows
                if match.rpi in (lo, hi)
                for dlat in cells
                for dlon in cells
                for bucket in range(buckets.start - reach, buckets.stop + reach)
            })
        return verify(match, rows, batch, diagnosis_id=diagnosis_id, params=params)

    monkeypatch.setattr(actguard, "verify_exposure", with_candidates)
    tracer = tracer_module.Tracer()
    try:
        sim_trace.install(tracer, counting=True)
        report = World(golden_config("scenario1")).run().to_json_bytes()
    finally:
        tracer.close()
    assert report == (REPORTS / "scenario1.json").read_bytes()
    assert 0 < tracer.counts["actguard.candidate_digests"] <= candidates
