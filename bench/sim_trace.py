"""Per-layer trace of a simulation pass, taken from outside the package.

``install`` wraps the public functions of every simulation layer.
``timing_metrics`` turns one timing pass's spans into self and phase times,
``count_metrics`` turns one counting pass into work counts and ratios; each
ratio's base is a metric of its own.
"""

from __future__ import annotations

from tracer import Span, Tracer, child_total, span_stats

VERIFY = "actguard.verify_exposure"


def _verify(t: Tracer, args, kwargs, result) -> None:
    match, table = args[0], args[1]
    t.sets["verify.distinct"].add((id(table), kwargs["diagnosis_id"], match.rpi))


def _match(t: Tracer, args, kwargs, result) -> None:
    store = args[1]
    t.counts["gaen.match.obs_scanned"] += len(store)
    t.counts["gaen.match.matches"] += len(result)
    distinct = t.sets["match.distinct"]
    for m in result:
        distinct.add((id(store), m.tek, m.observation))


def _radio(t: Tracer, args, kwargs, result) -> None:
    stations = args[0]
    senders = sum(1 for s in stations if s.packets)
    t.counts["radio.pairs_examined"] += senders * (len(stations) - 1)
    t.counts["radio.in_range_pairs"] += len({(d.sender, d.receiver) for d in result})
    t.counts["radio.deliveries"] += len(result)


def _receive(t: Tracer, args, kwargs, result) -> None:
    t.counts["agents.receive.scanned"] += len(args[1])
    t.counts["agents.receive.stored"] += result


def _replay(t: Tracer, args, kwargs, result) -> None:
    t.counts["agents.replay_set_size"] += len(result)


def _poll(t: Tracer, args, kwargs, result) -> None:
    t.counts["agents.poll.useful"] += bool(result)


def install(tracer: Tracer, *, counting: bool) -> None:
    """Wrap every simulation layer.  A counting pass also runs the count
    hooks and counts ``contact_hash`` calls under verification, which is too
    frequent to time without distorting verification's self time; a timing
    pass records spans only."""
    from relaysim import actguard, agents, backend, gaen, radio, scenario

    def hook(h):
        return h if counting else None

    device = agents.HonestDevice
    tracer.wrap(actguard, "verify_exposure", VERIFY, hook(_verify))
    tracer.wrap(actguard, "record_contact", "actguard.record_contact")
    tracer.wrap(gaen, "match_observations", "gaen.match_observations", hook(_match))
    tracer.wrap(gaen, "risk_score", "gaen.risk_score")
    tracer.wrap(radio, "broadcast_step", "radio.broadcast_step", hook(_radio))
    tracer.wrap(device, "receive", "agents.receive", hook(_receive))
    tracer.wrap(device, "ensure_interval", "agents.ensure_interval")
    tracer.wrap(device, "poll_backend", "agents.poll_backend", hook(_poll))
    tracer.wrap(device, "evaluate_exposure", "agents.evaluate_exposure")
    tracer.wrap(agents.RebroadcastAdversary, "rebroadcast_tick", "agents.rebroadcast_tick", hook(_replay))
    tracer.wrap(agents.SnifferAdversary, "sniff_tick", "agents.sniff_tick")
    tracer.wrap(backend.BackendStore, "fetch_chunks", "backend.fetch_chunks")
    tracer.wrap(scenario.World, "step", "scenario.World.step")
    tracer.wrap(scenario.World, "run", "scenario.World.run")
    tracer.wrap(scenario.ScenarioReport, "to_json_bytes", "scenario.to_json_bytes")
    if counting:
        tracer.count_calls(gaen, "expand_diagnosis_key", "gaen.tek_expansions")
        tracer.count_calls(actguard, "contact_hash", "actguard.candidate_digests", under=VERIFY)


SELF_TIMES = {
    "actguard.verify_exposure.self_s": VERIFY,
    "actguard.record_contact.self_s": "actguard.record_contact",
    "gaen.match_observations.self_s": "gaen.match_observations",
    "gaen.risk_score.self_s": "gaen.risk_score",
    "radio.broadcast_step.self_s": "radio.broadcast_step",
    "agents.receive.self_s": "agents.receive",
    "agents.rebroadcast_tick.self_s": "agents.rebroadcast_tick",
    "agents.sniff_tick.self_s": "agents.sniff_tick",
    "agents.poll_backend.self_s": "agents.poll_backend",
    "backend.fetch_chunks.self_s": "backend.fetch_chunks",
    "agents.ensure_interval.self_s": "agents.ensure_interval",
    "scenario.World.step.self_s": "scenario.World.step",
}

CALLS = {
    "actguard.verify_exposure.calls": VERIFY,
    "actguard.record_contact.calls": "actguard.record_contact",
    "gaen.match_observations.calls": "gaen.match_observations",
    "agents.evaluate_exposure.calls": "agents.evaluate_exposure",
    "agents.poll_backend.calls": "agents.poll_backend",
}

COUNTS = (
    "actguard.candidate_digests",
    "gaen.match.obs_scanned",
    "gaen.match.matches",
    "gaen.tek_expansions",
    "radio.pairs_examined",
    "radio.deliveries",
    "agents.receive.scanned",
    "agents.receive.stored",
    "agents.replay_set_size",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timing_metrics(spans: list[Span]) -> dict[str, float]:
    """Self and phase times of one traced pass, in seconds."""
    stats = span_stats(spans)

    def self_s(name: str) -> float:
        return stats[name].self_s if name in stats else 0.0

    out = {metric: self_s(name) for metric, name in SELF_TIMES.items()}
    out["scenario.final_evaluate.s"] = child_total(
        spans, "agents.evaluate_exposure", "scenario.World.run"
    )
    # Everything World.run does besides ticking and the final evaluation is
    # building the report; serializing it is the rest of the report phase.
    out["scenario.report.s"] = self_s("scenario.World.run") + (
        stats["scenario.to_json_bytes"].total_s if "scenario.to_json_bytes" in stats else 0.0
    )
    return out


def count_metrics(tracer: Tracer, reports: list[dict]) -> dict[str, float]:
    """Work counts of one pass, plus the ratios built from them."""
    stats = span_stats(tracer.spans)
    c = tracer.counts
    out = {metric: float(stats[name].calls if name in stats else 0) for metric, name in CALLS.items()}
    out.update({name: float(c[name]) for name in COUNTS})
    out["actguard.records"] = float(
        sum(a.get("contact_records", 0) for r in reports for a in r["actors"].values())
    )
    out["actguard.verify.distinct_ratio"] = _ratio(
        len(tracer.sets["verify.distinct"]), out["actguard.verify_exposure.calls"]
    )
    out["gaen.match.rematch_ratio"] = _ratio(c["gaen.match.matches"], len(tracer.sets["match.distinct"]))
    out["radio.in_range_ratio"] = _ratio(c["radio.in_range_pairs"], c["radio.pairs_examined"])
    out["agents.receive.useful_ratio"] = _ratio(c["agents.receive.stored"], c["agents.receive.scanned"])
    out["agents.poll.useful_ratio"] = _ratio(c["agents.poll.useful"], out["agents.poll_backend.calls"])
    return out
