#!/usr/bin/env python3
"""relaysim benchmark: one command per workload, end to end or traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Either way a table goes to
stdout first and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from crowd import CrowdShape, config_sha256, crowd_config, victim_names  # noqa: E402
from hostspeed import HTTP_REFERENCE_S, HostSpeed, http_probe  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_PASSES = 3
# A wire pass: a fresh server, untimed warm-up cycles, then timed cycles in
# segments with a host-speed probe after each.  The server's chunk reads scan
# every stored diagnosis, so a fixed pass keeps the stored state, and with it
# the work per request, the same however fast the host runs.
WIRE_WARMUP_CYCLES = 20
WIRE_PASS_CYCLES = 300
WIRE_SEGMENT_CYCLES = 50

BUNDLED = ("no_attack", "relay_gaen_only", "replay_expired", "scenario1", "scenario2")

SHAPES = {
    # Verification-bound: everyone runs the defense, one diagnosed user does not.
    "crowd_guarded": CrowdShape(
        honest=12, places=4, spacing_m=1100.0, duration=2400,
        diagnoses=4, diagnosis_start=1200, diagnosis_spacing=300,
        undefended_share=0.25, defended=True, relay_pair=True, victims=2,
    ),
    # Radio- and matching-bound: many undefended devices that move.
    "crowd_dense": CrowdShape(
        honest=60, places=6, spacing_m=1100.0, duration=1200,
        diagnoses=6, diagnosis_start=600, diagnosis_spacing=90,
        undefended_share=0.0, defended=False, relay_pair=True, victims=2,
        move_interval=600,
    ),
}
WORKLOADS = ("bundled", "crowd_guarded", "crowd_dense", "wire_backend")

def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs: list[float], p: int) -> float:
    return statistics.quantiles(xs, n=100)[p - 1] if len(xs) >= 2 else _median(xs)


def _median_percentile(passes: list, p: int) -> float:
    """Median over passes of each pass's p-th percentile.  A burst of host
    noise spoils a pass or two, not the figure."""
    return _median([_percentile(x, p) for x in passes])


@dataclass
class Tally:
    """Attempted and failed operations: passes for sims, requests for wire."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# --- simulation workloads -------------------------------------------------


def sim_configs(workload: str, seed: int) -> list[dict]:
    if workload == "bundled":
        root = SRC / "relaysim" / "scenarios"
        return [json.loads((root / f"{name}.json").read_text()) for name in BUNDLED]
    return [crowd_config(workload, seed, SHAPES[workload])]


def _verdicts(actor: dict) -> set[str]:
    return {v["verdict"] for v in actor.get("verdicts", [])}


def invariants_hold(workload: str, config: dict, report: dict) -> bool:
    """The paper's outcomes, as they must show in each workload's reports."""
    actors = report["actors"]
    name = config["name"]
    if workload == "bundled":
        if name == "scenario1":
            return _verdicts(actors["C"]) == {"ConfirmedContact"} and _verdicts(
                actors["A"]
            ) == {"RelaySuspected"}
        if name == "scenario2":
            return _verdicts(actors["A"]) == _verdicts(actors["C"]) == {"Unverifiable"}
        if name == "relay_gaen_only":
            return actors["A"]["gaen_alert"]
        if name == "replay_expired":
            return not actors["A"]["gaen_alert"]
        return True
    if any("ConfirmedContact" in _verdicts(actors[v]) for v in victim_names(config)):
        return False
    seen = set().union(*(_verdicts(a) for a in actors.values()))
    if workload == "crowd_guarded":
        return seen == {"ConfirmedContact", "RelaySuspected", "Unverifiable"}
    return not seen  # crowd_dense: nobody runs the defense


class SimChecker:
    """Checks every pass against the first one, the recorded digests and the
    paper-outcome invariants."""

    def __init__(self, workload: str, seed: int, configs: list[dict]):
        self.workload = workload
        self.configs = configs
        self.reference: list[bytes] | None = None
        expected = json.loads((BENCH / "expected.json").read_text())[workload]
        self.expected = None
        if workload == "bundled":
            self.expected = [expected[c["name"]] for c in configs]
        elif seed == expected["seed"]:
            if expected["config_sha256"] != config_sha256(configs[0]):
                raise SystemExit(f"{workload}: generator output drifted from expected.json")
            self.expected = [expected["report_sha256"]]

    def check(self, blobs: list[bytes]) -> bool:
        if self.reference is None:
            self.reference = blobs
            if self.expected is not None and self.expected != [
                hashlib.sha256(b).hexdigest() for b in blobs
            ]:
                print(f"{self.workload}: report bytes differ from expected.json", file=sys.stderr)
                return False
            return all(
                invariants_hold(self.workload, c, json.loads(b))
                for c, b in zip(self.configs, blobs)
            )
        if blobs != self.reference:
            print(f"{self.workload}: report bytes differ from the first pass", file=sys.stderr)
            return False
        return True


def run_pass(configs: list[dict], phases: dict[str, float] | None = None) -> list[bytes]:
    """load_config -> World.run -> canonical report bytes, for each config."""
    import relaysim
    from relaysim.scenario import World

    blobs = []
    for config in configs:
        t0 = perf_counter()
        loaded = relaysim.load_config(config)
        t1 = perf_counter()
        world = World(loaded)
        t2 = perf_counter()
        blobs.append(world.run().to_json_bytes())
        if phases is not None:
            phases["scenario.load_config.s"] += t1 - t0
            phases["scenario.World.init.s"] += t2 - t1
    return blobs


def checked_pass(checker: SimChecker, tally: Tally, phases=None) -> tuple[float, list[bytes] | None]:
    start = perf_counter()
    try:
        blobs = run_pass(checker.configs, phases)
    except Exception:
        traceback.print_exc()
        tally.record(False)
        return perf_counter() - start, None
    wall = perf_counter() - start
    tally.record(checker.check(blobs))
    return wall, blobs


def setup_probe(configs: list[dict], run: bool) -> dict[str, float]:
    """import + load_config + World(config) in a fresh interpreter; with
    ``run``, also one pass there and its peak memory."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py")] + ["--run"] * run,
        input=json.dumps(configs),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def run_sim(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    from relaysim.scenario import World

    configs = sim_configs(workload, seed)
    print(f"config sha256: {' '.join(config_sha256(c)[:16] for c in configs)}")
    checker = SimChecker(workload, seed, configs)
    tally = Tally()
    rss_mb = setup_probe(configs, run=True)["peak_rss_mb"]
    speed = HostSpeed()
    setups = [
        setup_probe(configs, run=False)["setup_s"] * speed.factor() for _ in range(SETUP_REPEATS)
    ]
    deadline = perf_counter() + seconds  # the warm-up counts against the run
    checked_pass(checker, tally)  # warm-up; its bytes are the reference
    speed.restart()

    ticks = array("d")
    step = World.step

    def timed_step(self):
        t0 = perf_counter()
        step(self)
        ticks.append(perf_counter() - t0)

    walls, raw_walls, pass_ticks = [], [], []
    World.step = timed_step
    try:
        while perf_counter() < deadline or len(walls) < MIN_PASSES:
            del ticks[:]
            wall, blobs = checked_pass(checker, tally)
            factor = speed.factor()
            if blobs is not None:
                raw_walls.append(wall)
                walls.append(wall * factor)
                pass_ticks.append([t * factor for t in ticks])
    finally:
        World.step = step

    all_ticks = [t for p in pass_ticks for t in p]
    return tally, {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": rss_mb,
        "req_p50_ms": _median(all_ticks) * 1e3,
        "req_per_s": _median([len(p) / w for p, w in zip(pass_ticks, walls)]),
    }, _printed_only(raw_walls, speed, pass_ticks)


def _printed_only(raw_walls: list[float], speed: HostSpeed, passes: list) -> dict[str, float]:
    """Figures printed beside the metrics but not gated: the tails, which
    host jitter spreads too much on a shared host to bound (README.md,
    Noise), the uncorrected wall time and the probes."""
    return {
        "req_p90_ms (not gated)": _median_percentile(passes, 90) * 1e3,
        "req_p99_ms (not gated)": _median_percentile(passes, 99) * 1e3,
        "measured wall_s": _median(raw_walls),
        "host probe s": _median(speed.probes),
        "probes": len(speed.probes),
    }


def trace_sim(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    import sim_trace

    configs = sim_configs(workload, seed)
    checker = SimChecker(workload, seed, configs)
    tally = Tally()
    deadline = perf_counter() + seconds  # warm-up and counting count against the run
    checked_pass(checker, tally)  # untraced warm-up; its bytes are the reference

    # One counting pass: counts are exact per pass, so one is enough.
    tracer = Tracer()
    sim_trace.install(tracer, counting=True)
    try:
        _, blobs = checked_pass(checker, tally)
    finally:
        tracer.close()
    metrics = sim_trace.count_metrics(tracer, [json.loads(b) for b in blobs or []])

    # Alternate untraced and traced passes; the gap is the tracing overhead.
    untraced, traced, timings = [], [], []
    while perf_counter() < deadline or len(traced) < MIN_PASSES:
        untraced.append(checked_pass(checker, tally)[0])
        tracer = Tracer()
        phases = {"scenario.load_config.s": 0.0, "scenario.World.init.s": 0.0}
        sim_trace.install(tracer, counting=False)
        try:
            traced.append(checked_pass(checker, tally, phases)[0])
        finally:
            tracer.close()
        timings.append({**sim_trace.timing_metrics(tracer.spans), **phases})
    for name in timings[0]:
        metrics[name] = statistics.fmean(t[name] for t in timings)
    metrics.update(_overhead(untraced, traced))
    return tally, metrics


def _overhead(untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Passes alternate, so pairing neighbours cancels most of the host's drift."""
    return {
        "trace.untraced_wall_s": _median(untraced),
        "trace.overhead_s": _median([t - u for u, t in zip(untraced, traced)]),
        "trace.passes": float(len(traced)),
    }


# --- wire workload ----------------------------------------------------------


def _fresh_servers(wire_load, traced_too: bool):
    """Start a plain backend (and a traced one) with empty stores."""
    plain = wire_load.spawn_server(wire_load.server_command(False, BENCH), SRC)
    if not traced_too:
        return [plain]
    try:
        return [plain, wire_load.spawn_server(wire_load.server_command(True, BENCH), SRC)]
    except BaseException:
        wire_load.stop_server(plain.proc)
        raise


def run_wire(seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Passes of WIRE_PASS_CYCLES timed cycles, each against a fresh server,
    so every pass meets the same stored state however fast the host runs.
    The host's speed is probed with round trips to a reference server."""
    import wire_load

    ref = wire_load.spawn_server([sys.executable, str(BENCH / "ref_server.py")], SRC)
    try:
        speed = HostSpeed(lambda: http_probe(ref.port), HTTP_REFERENCE_S)
        return _wire_passes(wire_load, seed, seconds, speed)
    finally:
        wire_load.stop_server(ref.proc)


def _wire_passes(wire_load, seed: int, seconds: float, speed: HostSpeed) -> tuple[Tally, dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        (server,) = _fresh_servers(wire_load, False)
        wire_load.stop_server(server.proc)
        setups.append(server.setup_s * speed.factor())

    tally = Tally()
    cycles, raw_cycles, rates, pass_latencies, rss = [], [], [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rss) < MIN_PASSES:
        (server,) = _fresh_servers(wire_load, False)
        try:
            client = wire_load.WireClient(server.port, seed, wire_load.LoadStats())
            for _ in range(WIRE_WARMUP_CYCLES):
                client.cycle()
            warmup, stats = client.stats, wire_load.LoadStats()
            client.stats = stats
            speed.restart()  # the timed cycles start here
            latencies = []
            for _ in range(WIRE_PASS_CYCLES // WIRE_SEGMENT_CYCLES):
                first_req, first_cycle = len(stats.timeline), len(stats.cycle_s)
                start = perf_counter()
                for _ in range(WIRE_SEGMENT_CYCLES):
                    client.cycle()
                elapsed = perf_counter() - start
                factor = speed.factor()
                segment = [t * factor for t in stats.timeline[first_req:]]
                latencies += segment
                raw_cycles += stats.cycle_s[first_cycle:]
                cycles += [t * factor for t in stats.cycle_s[first_cycle:]]
                rates.append(len(segment) / (elapsed * factor))
            rss.append(wire_load.peak_rss_mb(server.proc.pid))
        finally:
            wire_load.stop_server(server.proc)
        tally.attempted += warmup.attempted + stats.attempted
        tally.failed += warmup.failed + stats.failed
        pass_latencies.append(latencies)
    all_latencies = [t for p in pass_latencies for t in p]
    return tally, {
        "wall_s": _median(cycles),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(rss),
        "req_p50_ms": _median(all_latencies) * 1e3,
        "req_per_s": _median(rates),
    }, _printed_only(raw_cycles, speed, pass_latencies)


def trace_wire(seed: int, seconds: float) -> tuple[Tally, dict]:
    """Passes against a fresh plain and a fresh traced server, their cycles
    alternating so drift hits both alike.  Warm-up cycles count on both
    sides, so client and server figures cover the same requests."""
    import wire_load

    plain_stats, traced_stats = wire_load.LoadStats(), wire_load.LoadStats()
    spans: dict[str, dict[str, float]] = {}
    deadline = perf_counter() + seconds
    passes = 0
    while perf_counter() < deadline or passes < MIN_PASSES:
        plain, traced = _fresh_servers(wire_load, True)
        try:
            plain_client = wire_load.WireClient(plain.port, seed, plain_stats)
            traced_client = wire_load.WireClient(traced.port, seed, traced_stats)
            for _ in range(WIRE_WARMUP_CYCLES + WIRE_PASS_CYCLES):
                plain_client.cycle()
                traced_client.cycle()
        finally:
            wire_load.stop_server(plain.proc)
            dump = wire_load.stop_server(traced.proc)
        passes += 1
        for name, st in json.loads(dump.strip().splitlines()[-1]).items():
            total = spans.setdefault(name, dict.fromkeys(st, 0.0))
            for key, value in st.items():
                total[key] += value
    tally = Tally(
        plain_stats.attempted + traced_stats.attempted, plain_stats.failed + traced_stats.failed
    )

    cycles = len(traced_stats.cycle_s)

    def per_cycle(name: str, key: str = "self_s") -> float:
        return spans.get(name, {}).get(key, 0.0) / cycles

    metrics = {
        f"wire.{e}.p50_ms": _median(plain_stats.latencies[e]) * 1e3 for e in wire_load.ENDPOINTS
    }
    for e in wire_load.ENDPOINTS:
        metrics[f"wire.handle_{e}.self_s"] = per_cycle(f"wire.handle_{e}")
    metrics["backend.ingest_diagnosis.self_s"] = per_cycle("backend.ingest_diagnosis")
    metrics["backend.fetch_chunks.self_s"] = per_cycle("backend.fetch_chunks")
    metrics["backend.encode.s"] = per_cycle("backend.encode", "total_s")
    metrics["wire.bytes_out"] = traced_stats.bytes_out / cycles
    client_s = sum(traced_stats.timeline)
    handler_s = sum(spans.get(f"wire.handle_{e}", {}).get("total_s", 0.0) for e in wire_load.ENDPOINTS)
    metrics["wire.requests"] = float(len(traced_stats.timeline))
    metrics["wire.framing_ms"] = (client_s - handler_s) / len(traced_stats.timeline) * 1e3
    metrics.update(_overhead(plain_stats.cycle_s, traced_stats.cycle_s))
    return tally, metrics


# --- entry point --------------------------------------------------------------


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"no relaysim package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every process it starts.  The wire loop
    # keeps one request in flight, so it needs no second CPU, and waking a
    # server on another virtual CPU made latency higher and far noisier.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)

    sim = args.workload != "wire_backend"
    printed_only: dict[str, float] = {}
    if args.trace:
        if sim:
            tally, values = trace_sim(args.workload, args.seed, args.seconds)
        else:
            tally, values = trace_wire(args.seed, args.seconds)
        units = _units("per_layer")
    else:
        if sim:
            tally, values, printed_only = run_sim(args.workload, args.seed, args.seconds)
        else:
            tally, values, printed_only = run_wire(args.seed, args.seconds)
        units = _units("end_to_end")

    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in units.items()}
    for n in units:
        print(f"{n:<40} {metrics[n]['value']:>14.6g} {units[n]}")
    for n, v in printed_only.items():
        print(f"{n:<40} {v:>14.6g}")
    failed_ops = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_ops':<40} {failed_ops:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    print(
        json.dumps(
            {
                "correct": tally.attempted > 0 and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
