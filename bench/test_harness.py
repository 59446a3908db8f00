"""Self-tests of the benchmark harness: generator determinism, the tracer's
self-time arithmetic and the host-speed factor."""

import time
from types import SimpleNamespace

import hostspeed
import pytest
from crowd import CrowdShape, config_sha256, crowd_config
from tracer import Span, Tracer, span_stats

SHAPE = CrowdShape(
    honest=8, places=2, spacing_m=1100.0, duration=1200,
    diagnoses=3, diagnosis_start=600, diagnosis_spacing=120,
    undefended_share=0.34, defended=True, relay_pair=True, victims=2,
    move_interval=300,
)


def test_same_seed_same_config_bytes():
    a, b = crowd_config("c", 7, SHAPE), crowd_config("c", 7, SHAPE)
    assert a == b
    assert config_sha256(a) == config_sha256(b)


def test_other_seed_other_config_bytes():
    assert config_sha256(crowd_config("c", 7, SHAPE)) != config_sha256(crowd_config("c", 8, SHAPE))


def test_generated_config_loads_and_keeps_its_shape():
    import relaysim

    config = relaysim.load_config(crowd_config("c", 7, SHAPE))
    honest = [a for a in config.actors if a.role == "honest" and a.name.startswith("d")]
    assert len(honest) == SHAPE.honest
    assert {a.place for a in honest} == {"P0", "P1"}
    assert sum(not a.actguard for a in honest) == 1
    assert len(config.diagnosis_events) == SHAPE.diagnoses


def test_self_time_subtracts_charged_child_intervals():
    spans = [
        Span(1, "inner", start=1.0, end=2.0, charged_end=2.5, parent=0),
        Span(2, "inner", start=3.0, end=3.5, charged_end=3.5, parent=0),
        Span(0, "outer", start=0.0, end=4.0, charged_end=4.0, parent=None),
    ]
    stats = span_stats(spans)
    assert stats["outer"].calls == 1
    assert stats["outer"].total_s == 4.0
    assert stats["outer"].self_s == 4.0 - 1.5 - 0.5
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == stats["inner"].total_s == 1.5


def test_nested_wrappers_link_parents_and_charge_hooks_to_the_child():
    toy = SimpleNamespace()
    toy.inner = lambda: time.sleep(0.02)

    def outer():
        toy.inner()
        return "done"

    toy.outer = outer
    original_inner = toy.inner
    tracer = Tracer()
    tracer.wrap(toy, "outer", "outer")
    tracer.wrap(toy, "inner", "inner", lambda t, args, kwargs, result: time.sleep(0.05))
    try:
        assert toy.outer() == "done"
    finally:
        tracer.close()
    assert toy.inner is original_inner
    inner, outer_span = tracer.spans
    assert inner.parent == outer_span.id and outer_span.parent is None
    stats = span_stats(tracer.spans)
    assert stats["inner"].self_s >= 0.02
    # The hook's 50 ms happened inside outer but is charged to inner.
    assert stats["outer"].total_s >= 0.07
    assert stats["outer"].self_s < 0.05


def test_host_speed_scales_a_segment_by_its_flanking_probes():
    probes = iter([0.5, 1.0, 2.0, 1.0])
    speed = hostspeed.HostSpeed(lambda: next(probes), reference_s=1.0)  # warm-up, then 1.0
    # A segment between probes of 1x and 2x the reference ran at 2/3 speed.
    assert speed.factor() == pytest.approx(2 / 3)
    assert speed.factor() == pytest.approx(2 / 3)
    assert speed.probes == [1.0, 2.0, 1.0]
