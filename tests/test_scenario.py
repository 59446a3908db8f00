"""Scenario loading, validation, the tick loop, and report emission."""

import ast
import json
from pathlib import Path

import pytest

from relaysim import scenario
from relaysim.params import SimParams
from relaysim.scenario import ConfigError


def _minimal_config(**overrides):
    data = {
        "name": "mini",
        "seed": 1,
        "duration": 600,
        "places": [{"name": "P", "lat": 0.0, "lon": 0.0, "radius_m": 20.0}],
        "actors": [
            {"name": "a", "role": "honest", "place": "P"},
            {"name": "b", "role": "honest", "place": "P"},
        ],
        "diagnosis_events": [{"actor": "b", "at_time": 300}],
    }
    data.update(overrides)
    return data


class TestLoadConfig:
    def test_bundled_scenarios_load(self):
        names = scenario.builtin_scenario_names()
        assert names == [
            "no_attack",
            "relay_gaen_only",
            "replay_expired",
            "scenario1",
            "scenario2",
        ]
        for name in names:
            config = scenario.load_builtin(name)
            assert config.name == name
            assert config.duration > 0

    def test_unknown_role_rejected(self):
        data = _minimal_config(actors=[{"name": "a", "role": "eavesdropper", "place": "P"}],
                               diagnosis_events=[])
        with pytest.raises(ConfigError, match="eavesdropper"):
            scenario.load_config(data)

    def test_dangling_place_named_in_error(self):
        data = _minimal_config(actors=[{"name": "a", "role": "honest", "place": "Atlantis"}],
                               diagnosis_events=[])
        with pytest.raises(ConfigError, match="Atlantis"):
            scenario.load_config(data)

    def test_diagnosing_a_sniffer_rejected(self):
        data = _minimal_config()
        data["actors"].append({"name": "s", "role": "sniffer", "place": "P"})
        data["diagnosis_events"] = [{"actor": "s", "at_time": 100}]
        with pytest.raises(ConfigError, match="not an honest actor"):
            scenario.load_config(data)

    def test_duplicate_actor_rejected(self):
        data = _minimal_config()
        data["actors"].append({"name": "a", "role": "honest", "place": "P"})
        with pytest.raises(ConfigError, match="duplicate actor"):
            scenario.load_config(data)

    def test_adversary_with_defense_rejected(self):
        data = _minimal_config()
        data["actors"].append({"name": "s", "role": "sniffer", "place": "P", "actguard": True})
        with pytest.raises(ConfigError, match="only honest actors"):
            scenario.load_config(data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            scenario.load_config(_minimal_config(recipe="secret"))

    def test_diagnosis_outside_run_rejected(self):
        data = _minimal_config(diagnosis_events=[{"actor": "b", "at_time": 600}])
        with pytest.raises(ConfigError, match="outside the run"):
            scenario.load_config(data)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError, match="params"):
            scenario.load_config(_minimal_config(params={"rotation_seconds": 7000}))

    @pytest.mark.parametrize("field", ["neighborhood_cells", "neighborhood_buckets"])
    def test_negative_neighborhood_rejected(self, field):
        # -1 would make the verifier's search empty and flag genuine contacts.
        with pytest.raises(ConfigError, match=field):
            scenario.load_config(_minimal_config(params={field: -1}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_param_rejected(self, value):
        with pytest.raises(ConfigError, match="alert_threshold_minutes must be finite"):
            scenario.load_config(_minimal_config(params={"alert_threshold_minutes": value}))

    @pytest.mark.parametrize("value", [-128, 128])
    def test_out_of_range_tx_power_rejected(self, value):
        # The AEM cannot carry it; before, the run failed at the first tick.
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            scenario.load_config(_minimal_config(params={"tx_power_dbm": value}))
        for edge in (-127, 127):
            scenario.run(scenario.load_config(_minimal_config(params={"tx_power_dbm": edge})))

    @pytest.mark.parametrize(
        "overrides, offender",
        [
            ({"places": [{"lat": 0.0, "lon": 0.0}]}, "place #0 has no 'name'"),
            ({"places": [{"name": "P", "lon": 0.0}]}, "place 'P' has no 'lat'"),
            ({"places": [{"name": "P", "lat": 0.0}]}, "place 'P' has no 'lon'"),
            ({"places": {"P": {"lat": 0.0, "lon": 0.0}}}, "places must be a list"),
            ({"actors": "a,b"}, "actors must be a list"),
            ({"actors": [{"role": "honest", "place": "P"}]}, "actor #0 has no 'name'"),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {"waypoints": [{"at": 5}]}}]},
                "actor 'a' waypoint has no 'lat'",
            ),
            ({"diagnosis_events": [{"actor": "b"}]}, "diagnosis event #0 has no 'at_time'"),
            ({"attack": {"relay_dealy": 60}}, "unknown attack key.*relay_dealy"),
            ({"attack": {"relay_delay": -1}}, "relay_delay must be an integer >= 0"),
            ({"attack": {"replay_ttl": 0}}, "replay_ttl must be an integer >= 1"),
            ({"attack": {"replay_ttl": 7200.5}}, "replay_ttl must be an integer >= 1"),
            (
                {"places": [{"name": "P", "lat": "north", "lon": 0.0}]},
                "place 'P' lat must be a number, got 'north'",
            ),
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": 0.0, "radius_m": 0}]},
                "place 'P' needs a positive radius",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoints": [{"at": "soon", "lat": 0.0, "lon": 0.0}]}}]},
                "actor 'a' waypoint at must be an integer, got 'soon'",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "position": ["a", 0]}]},
                "actor 'a' position lat must be a number, got 'a'",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "position": 5}]},
                r"actor 'a': position must be \[lat, lon\]",
            ),
            ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
            ({"duration": "long"}, "duration must be an integer, got 'long'"),
            ({"duration": float("inf")}, "duration must be an integer, got inf"),
            (
                {"diagnosis_events": [{"actor": "b", "at_time": "x"}]},
                "diagnosis event #0 at_time must be an integer, got 'x'",
            ),
        ],
    )
    def test_malformed_section_names_offender(self, overrides, offender):
        with pytest.raises(ConfigError, match=offender):
            scenario.load_config(_minimal_config(**overrides))

    @pytest.mark.parametrize(
        "params, field",
        [
            ({"tx_power_dbm": 1.5}, "tx_power_dbm"),
            ({"tick_seconds": 2.5}, "tick_seconds"),
            ({"tick_seconds": True}, "tick_seconds"),
            ({"ble_range_m": True}, "ble_range_m"),
            ({"ble_range_m": "10"}, "ble_range_m"),
        ],
    )
    def test_param_of_wrong_type_rejected(self, params, field):
        # Before, these loaded and the run failed mid-way (or ran with 1).
        with pytest.raises(ConfigError, match=f"{field} must be an? (integer|number)"):
            scenario.load_config(_minimal_config(params=params))

    def test_json_int_accepted_for_float_param(self):
        config = scenario.load_config(_minimal_config(params={"ble_range_m": 12}))
        assert config.params.ble_range_m == 12
        scenario.run(config)

    def test_diagnosis_after_last_tick_rejected(self):
        # Ticks run at 0, 10, ..., 590: a diagnosis at 595 would never run.
        data = _minimal_config(diagnosis_events=[{"actor": "b", "at_time": 595}])
        with pytest.raises(ConfigError, match="last tick at t=590"):
            scenario.load_config(data)
        data["diagnosis_events"] = [{"actor": "b", "at_time": 590}]
        world = scenario.World(scenario.load_config(data))
        world.run()
        assert [e["t"] for e in world.events if e["event"] == "diagnosis"] == [590]

    def test_seed_override(self):
        config = scenario.load_config(_minimal_config(), seed_override=99)
        assert config.seed == 99
        assert config.raw["seed"] == 99


def _numeric_defaults() -> list[str]:
    """Function defaults outside params.py that are numbers (a signed
    literal included) or upper-case constants, as ``module.function(arg)``."""
    found = []
    for path in sorted((Path(scenario.__file__).parent).glob("*.py")):
        if path.name == "params.py":
            continue
        tree = ast.parse(path.read_text())
        owners = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owners[child] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            owner = owners.get(node)
            name = getattr(node, "name", "<lambda>")
            if isinstance(owner, ast.ClassDef):
                name = f"{owner.name}.{name}"
            for arg, default in pairs:
                value = default.operand if isinstance(default, ast.UnaryOp) else default
                numeric = isinstance(value, ast.Constant) and type(value.value) in (int, float)
                constant = isinstance(value, ast.Name) and value.id.isupper()
                if numeric or constant:
                    found.append(f"{path.stem}.{name}({arg.arg})")
    return found


class TestSimParams:
    def test_positive_tick_required(self):
        with pytest.raises(ValueError, match="tick_seconds"):
            SimParams(tick_seconds=0)

    def test_params_is_the_only_source_of_defaults(self):
        # A default repeated in a signature can drift from SimParams (or
        # AttackSpec); the listen port is a deployment setting, not a knob.
        allowed = ["wire.BackendHTTPServer.__init__(port)"]
        assert _numeric_defaults() == allowed


class TestRun:
    def test_no_attack_baseline(self):
        report = scenario.run(scenario.load_builtin("no_attack"))
        assert report.actor("A")["gaen_alert"] is False
        assert report.actor("A")["verdicts"] == []
        c_verdicts = {v["diagnosis_id"]: v["verdict"] for v in report.actor("C")["verdicts"]}
        assert c_verdicts == {1: "ConfirmedContact"}

    def test_minimal_contact_alerts(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        assert report.actor("a")["gaen_alert"] is True
        assert report.actor("b")["gaen_alert"] is False

    def test_event_log_has_diagnosis_and_match(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        kinds = [e["event"] for e in report.data["events"]]
        assert "diagnosis" in kinds
        assert "match" in kinds

    def test_relay_events_logged_in_attack_scenario(self):
        report = scenario.run(scenario.load_builtin("scenario1"))
        kinds = {e["event"] for e in report.data["events"]}
        assert {"capture", "relay", "diagnosis", "match"} <= kinds

    def test_relays_are_verbatim_captures(self):
        # adversaries never synthesize packets: everything on the relay side
        # was first captured byte-for-byte
        report = scenario.run(scenario.load_builtin("scenario1"))
        captured = {e["packet"] for e in report.data["events"] if e["event"] == "capture"}
        relayed = {e["packet"] for e in report.data["events"] if e["event"] == "relay"}
        assert relayed
        assert relayed <= captured

    def test_waypoint_movement_changes_outcome(self):
        # b walks out of range halfway through: alert needs 10 min, contact gives 5
        data = _minimal_config(duration=1200)
        data["diagnosis_events"] = [{"actor": "b", "at_time": 900}]
        data["actors"][1]["movement"] = {
            "waypoints": [{"at": 300, "lat": 0.01, "lon": 0.0}]
        }
        report = scenario.run(scenario.load_config(data))
        assert report.actor("a")["gaen_alert"] is False
        assert report.actor("a")["observations"] == 30

    def test_walking_into_range_is_heard_from_that_tick_on(self):
        # b starts ~1.1 km away and arrives at a's place at t=300
        data = _minimal_config()
        data["actors"][1]["position"] = [0.01, 0.0]
        data["actors"][1]["movement"] = {"waypoints": [{"at": 300, "lat": 0.0, "lon": 0.0}]}
        world = scenario.World(scenario.load_config(data))
        world.run()
        for name in ("a", "b"):
            scan_times = [o.scan_time for o in world.devices[name].observations]
            assert scan_times == list(range(300, 600, 10))

    def test_self_report_never_alerts(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        assert report.actor("b")["risk_score"] == 0.0


class TestReport:
    def test_json_round_trips(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        blob = scenario.emit_report(report, "json")
        assert json.loads(blob) == report.to_dict()

    def test_byte_identical_reruns(self):
        config = _minimal_config()
        first = scenario.emit_report(scenario.run(scenario.load_config(config)))
        second = scenario.emit_report(scenario.run(scenario.load_config(config)))
        assert first == second

    def test_different_seed_changes_bytes(self):
        first = scenario.emit_report(scenario.run(scenario.load_config(_minimal_config())))
        second = scenario.emit_report(
            scenario.run(scenario.load_config(_minimal_config(), seed_override=2))
        )
        assert first != second

    def test_table_one_row_per_actor(self):
        report = scenario.run(scenario.load_builtin("scenario1"))
        table = scenario.emit_report(report, "table").decode()
        lines = [line for line in table.splitlines() if line.strip()]
        assert len(lines) == 1 + 5  # header + A, B, C, Adv1, Adv2

    def test_unknown_format_rejected(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        with pytest.raises(ValueError):
            scenario.emit_report(report, "xml")


class TestCli:
    def test_run_bundled_to_file(self, tmp_path, capsys):
        from relaysim.cli import main

        out = tmp_path / "report.json"
        assert main(["run", "no_attack", "--out", str(out)]) == 0
        report = json.loads(out.read_bytes())
        assert report["scenario"] == "no_attack"
        assert report["actors"]["A"]["gaen_alert"] is False

    def test_run_config_file_table_stdout(self, tmp_path, capsys):
        from relaysim.cli import main

        path = tmp_path / "mini.json"
        path.write_text(json.dumps(_minimal_config()))
        assert main(["run", str(path), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out

    def test_list_scenarios(self, capsys):
        from relaysim.cli import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario.builtin_scenario_names():
            assert name in out

    def test_seed_override_flag(self, tmp_path):
        from relaysim.cli import main

        out = tmp_path / "report.json"
        assert main(["run", "no_attack", "--seed", "424242", "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["seed"] == 424242
