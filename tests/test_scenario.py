"""Scenario loading, validation, the tick loop, and report emission."""

import ast
import contextlib
import copy
import io
import json
import math
import os
import pickle
import re
import socket
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from relaysim import scenario
from relaysim.params import NEIGHBORHOOD_MAX, AttackSpec, SimParams
from relaysim.scenario import ConfigError

from conftest import JSON_VALUES, json_paths, replaced
from golden.gen_reports import REPORTS, TABLES, golden_config, golden_names
from oracles import BackendUnavailable, observations

# A value to mutate a config with: a boundary number, an ordinary one, or any JSON value.
MUTATIONS = (
    st.sampled_from([0, -1, 1e-9, 2**31, 90, -90, 180, -180, 1e300])
    | st.integers(-10_000, 10_000)
    | st.floats(-10_000, 10_000)
    | JSON_VALUES
)


def _at(document, path: tuple):
    for key in path:
        document = document[key]
    return document


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

    @pytest.mark.parametrize(
        "field",
        ["neighborhood_cells", "neighborhood_buckets", "otp_ttl_seconds", "clock_tolerance_seconds"],
    )
    def test_negative_neighborhood_rejected(self, field):
        # A -1 neighborhood would make the verifier's search empty and flag
        # genuine contacts.  Before, a negative OTP ttl rejected every upload
        # as expired, and a negative clock tolerance dropped every match.
        with pytest.raises(ConfigError, match=field):
            scenario.load_config(_minimal_config(params={field: -1}))

    @pytest.mark.parametrize("field", ["neighborhood_cells", "neighborhood_buckets"])
    def test_oversized_neighborhood_rejected(self, field):
        # 10**6 cells had verification build about 1.2e13 digests per row;
        # 2**63 would also leave the digest's int64.
        for value in (NEIGHBORHOOD_MAX + 1, 10**6, 2**63):
            bound = rf"{field} must be in \[0, {NEIGHBORHOOD_MAX}\], got {value}$"
            with pytest.raises(ConfigError, match=bound):
                scenario.load_config(_minimal_config(params={field: value}))
        config = _minimal_config(
            params={field: NEIGHBORHOOD_MAX},
            actors=[{"name": n, "role": "honest", "place": "P", "actguard": True} for n in "ab"],
        )
        row = scenario.run(scenario.load_config(config)).data["actors"]["a"]
        assert [v["verdict"] for v in row["verdicts"]] == ["ConfirmedContact"]

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
            ({"attack": {"replay_ttl": 7200.5}}, "replay_ttl must be an integer, got 7200.5"),
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
            ([], "a scenario must be a JSON object"),
            (None, "a scenario must be a JSON object"),
            (
                {"places": [{"name": "P", "lat": float("nan"), "lon": 0.0}]},
                "place 'P' lat must be finite, got nan",
            ),
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": 0.0, "radius_m": float("inf")}]},
                "place 'P' radius_m must be finite, got inf",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "position": [0.0, float("-inf")]}]},
                "actor 'a' position lon must be finite, got -inf",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoints": [{"at": 5, "lat": float("nan"), "lon": 0.0}]}}]},
                "actor 'a' waypoint lat must be finite, got nan",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "actguard": "no"}]},
                "actor 'a': actguard must be true or false",
            ),
            # Numbers are taken as SimParams takes them: no string, no boolean,
            # and no float where an integer belongs.
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"duration": 600.5}, "duration must be an integer, got 600.5"),
            ({"duration": 600.0}, "duration must be an integer, got 600.0"),
            (
                {"places": [{"name": "P", "lat": True, "lon": 0.0}]},
                "place 'P' lat must be a number, got True",
            ),
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": "0.5"}]},
                "place 'P' lon must be a number, got '0.5'",
            ),
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": 0.0, "radius_m": False}]},
                "place 'P' radius_m must be a number, got False",
            ),
            (
                {"places": [{"name": "P", "lat": 10**400, "lon": 0.0}]},
                "place 'P' lat must be finite",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "position": [False, True]}]},
                "actor 'a' position lat must be a number, got False",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoints": [{"at": 5.0, "lat": 0.0, "lon": 0.0}]}}]},
                "actor 'a' waypoint at must be an integer, got 5.0",
            ),
            (
                {"diagnosis_events": [{"actor": "b", "at_time": "100"}]},
                "diagnosis event #0 at_time must be an integer, got '100'",
            ),
            ({"attack": {"relay_delay": True}}, "attack relay_delay must be an integer, got True"),
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": 1e300}]},
                r"^place 'P' lon must be within \[-180, 180\], got 1e\+300$",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "position": [0.0, -180.5]}]},
                r"^actor 'a' position lon must be within \[-180, 180\], got -180.5$",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoints": [{"at": 5, "lat": 0.0, "lon": 9.3e15}]}}]},
                r"^actor 'a' waypoint lon must be within \[-180, 180\], got 9300000000000000.0$",
            ),
            ({"params": {"cell_size_deg": 5e-324}}, "cell_size_deg must exceed 180 / 2\\*\\*63"),
            # Before, an unknown key of these objects was silently ignored.
            (
                {"places": [{"name": "P", "lat": 0.0, "lon": 0.0, "radius": 50}]},
                r"^unknown place 'P' key\(s\): radius$",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "colour": "red"}]},
                r"^unknown actor 'a' key\(s\): colour$",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoint": [{"at": 5, "lat": 0.0, "lon": 0.0}]}}]},
                r"^unknown actor 'a' movement key\(s\): waypoint$",
            ),
            (
                {"actors": [{"name": "a", "place": "P", "movement": {
                    "waypoints": [{"at": 5, "lat": 0.0, "lon": 0.0, "alt": 3}]}}]},
                r"^unknown actor 'a' waypoint key\(s\): alt$",
            ),
            (
                {"diagnosis_events": [{"actor": "b", "at_time": 0, "at_tme": 50}]},
                r"^unknown diagnosis event #0 key\(s\): at_tme$",
            ),
            # An in-memory scenario holding what JSON cannot.
            (
                {"params": {(1, 2): 3}},
                r"^a scenario must hold only JSON keys and values: keys must be str, .*not tuple$",
            ),
            (
                {"description": {"a", "b"}},
                r"^a scenario must hold only JSON keys and values: .*type set is not JSON",
            ),
            # Iterable, but not a mapping of parameter names to values.
            ({"params": "abc"}, r"^params must be an object$"),
            ({"params": [1]}, r"^params must be an object$"),
        ],
    )
    def test_malformed_section_names_offender(self, overrides, offender, tmp_path):
        # An override that is not an object stands for a whole scenario file.
        if isinstance(overrides, dict):
            source = _minimal_config(**overrides)
        else:
            source = tmp_path / "scenario.json"
            source.write_text(json.dumps(overrides))
        with pytest.raises(ConfigError, match=offender):
            scenario.load_config(source)

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.data(), st.sampled_from(scenario.builtin_scenario_names()), JSON_VALUES)
    def test_any_json_value_anywhere_loads_or_is_named(self, tmp_path, data, name, value):
        # Replace one value of a bundled scenario, or the whole of it, with
        # any JSON value: load_config yields a config or a ConfigError.
        scenarios = Path(scenario.__file__).parent / "scenarios"
        document = json.loads((scenarios / f"{name}.json").read_text())
        document = replaced(document, data.draw(st.sampled_from(json_paths(document))), value)
        source = tmp_path / "scenario.json"
        source.write_text(json.dumps(document))
        try:
            assert isinstance(scenario.load_config(source), scenario.ScenarioConfig)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(scenario.builtin_scenario_names()), st.integers(1, 3))
    def test_any_config_that_loads_runs(self, data, name, mutations):
        # Mutate one to three values of a bundled scenario: a numeric leaf,
        # or a params or attack key set whether the scenario has it or not,
        # takes a boundary number, an ordinary one or any JSON value.  A
        # config that loads must run to its report without an exception.
        scenarios = Path(scenario.__file__).parent / "scenarios"
        document = json.loads((scenarios / f"{name}.json").read_text())
        keys = [("params", k) for k in SimParams.DEFAULTS]
        keys += [("attack", k) for k in AttackSpec._fields]
        for _ in range(mutations):
            leaves = [p for p in json_paths(document) if type(_at(document, p)) in (int, float)]
            path = data.draw(st.sampled_from(leaves + keys))
            if path in keys:
                document.setdefault(path[0], {})
            replaced(document, path, data.draw(MUTATIONS))
        try:
            config = scenario.load_config(document)
        except ConfigError:
            return
        # MAX_TICKS admits runs far too long for the suite, and every actor
        # adds work to each tick: bound both.
        assume(config.duration // config.params.tick_seconds <= 3000 and len(config.actors) <= 20)
        assert scenario.run(config).to_json_bytes()

    @pytest.mark.parametrize("value", [None, 7, ["a"]], ids=["null", "number", "list"])
    @pytest.mark.parametrize(
        "path, field",
        [
            (("name",), "scenario name"),
            (("description",), "scenario description"),
            (("places", 0, "name"), "place #0 name"),
            (("actors", 1, "name"), "actor #1 name"),
            (("actors", 0, "role"), "actor 'a' role"),
            (("actors", 0, "place"), "actor 'a' place"),
            (("diagnosis_events", 0, "actor"), "diagnosis event #0 actor"),
        ],
    )
    def test_a_name_that_is_not_a_string_is_named(self, path, field, value):
        # Before, each went through str(): a null actor name loaded as actor
        # "None", which a diagnosis event with a null actor then targeted.
        data = _minimal_config()
        _at(data, path[:-1])[path[-1]] = value
        message = f"^{field} must be a string, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            scenario.load_config(data)

    @pytest.mark.parametrize(
        "text, offender",
        [
            ("[" * 100000, "nested too deeply"),
            ('{"name": "x",', "must be JSON"),
            pytest.param(
                '{"seed": ' + "7" * 5000 + ', "duration": 10}',
                "integer string conversion",
                id="5000-digit-integer",
            ),
        ],
    )
    def test_unparsable_file_is_named(self, tmp_path, text, offender):
        # Before, a deeply nested file raised RecursionError, and an integer
        # of more than 4300 digits a bare ValueError.
        source = tmp_path / "scenario.json"
        source.write_text(text)
        with pytest.raises(ConfigError, match=offender):
            scenario.load_config(source)

    def test_deeply_nested_dict_is_named(self):
        deep = nested = {}
        for _ in range(100000):
            nested["x"] = nested = {}
        with pytest.raises(ConfigError, match="nested too deeply"):
            scenario.load_config(deep)

    def test_unconvertible_dict_is_named(self):
        # Before, both raised a bare ValueError from json.dumps.
        with pytest.raises(ConfigError, match="integer string conversion"):
            scenario.load_config({"seed": 10**5000, "duration": 10})
        cyclic: dict = {"duration": 10}
        cyclic["params"] = cyclic
        with pytest.raises(ConfigError, match="Circular reference"):
            scenario.load_config(cyclic)

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

    @staticmethod
    def _latitudes(place=0.0, position=0.0, waypoint=0.0):
        return _minimal_config(
            places=[{"name": "P", "lat": place, "lon": 0.0}],
            actors=[
                {"name": "a", "place": "P", "position": [position, 0.0], "movement": {
                    "waypoints": [{"at": 300, "lat": waypoint, "lon": 0.0}]}},
                {"name": "b", "place": "P"},
            ],
        )

    @pytest.mark.parametrize("lat", [-90, 90, -90.0, 90.0])
    def test_latitude_at_a_pole_accepted(self, lat):
        config = scenario.load_config(self._latitudes(lat, lat, lat))
        assert config.places["P"][0] == config.actors[0].position[0] == lat
        scenario.run(config)

    @pytest.mark.parametrize("lat", [-90.000001, 90.000001])
    @pytest.mark.parametrize(
        "field, offender",
        [
            ("place", "place 'P' lat"),
            ("position", "actor 'a' position lat"),
            ("waypoint", "actor 'a' waypoint lat"),
        ],
    )
    def test_latitude_beyond_a_pole_rejected(self, lat, field, offender):
        # Before, any finite latitude loaded, and one far beyond a pole
        # made radio.haversine_m raise "math domain error" mid-run.
        with pytest.raises(ConfigError, match=rf"^{offender} must be within \[-90, 90\], got {lat}$"):
            scenario.load_config(self._latitudes(**{field: lat}))

    def test_seed_override(self):
        config = scenario.load_config(_minimal_config(), seed_override=99)
        assert config.seed == 99
        assert config.raw["seed"] == 99

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter writes ints of any length in decimal")
    def test_seed_override_too_long_to_write_rejected(self):
        # Before, such a seed loaded and the run raised a bare ValueError
        # ("Exceeds the limit (4300 digits)") deriving the device seeds.
        with pytest.raises(ConfigError, match=r"^seed cannot be written out in decimal"):
            scenario.load_builtin("scenario1", seed_override=10**5000)


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


def _role_comparisons() -> list[str]:
    """Comparisons with a role name outside the two places that dispatch on
    roles, as ``module.function``; a tuple, list or set operand counts."""
    roles = {"honest", "sniffer", "rebroadcaster"}
    allowed = {"scenario.World._new_actor", "scenario.load_config"}
    found = []

    def visit(node, where):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op in list(operands):
                if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                    operands += op.elts
            if any(isinstance(op, ast.Constant) and op.value in roles for op in operands):
                if where not in allowed:
                    found.append(where)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((Path(scenario.__file__).parent).glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


class TestSimParams:
    def test_positive_tick_required(self):
        with pytest.raises(ValueError, match="tick_seconds"):
            SimParams(tick_seconds=0)

    @pytest.mark.parametrize("value", [0, -1])
    def test_positive_min_path_distance_required(self, value):
        # Before, two co-located actors made the run fail in radio.path_loss_db.
        with pytest.raises(ValueError, match="^min_path_distance_m must be positive$"):
            SimParams(min_path_distance_m=value)

    def test_fields_are_kept_as_passed_and_frozen(self):
        params = SimParams(ble_range_m=10, tick_seconds=5)
        assert type(params.ble_range_m) is int  # an int in a float field stays an int
        assert params == SimParams(tick_seconds=5, ble_range_m=10) != SimParams()
        assert hash(params) == hash(SimParams(tick_seconds=5, ble_range_m=10))
        assert repr(SimParams()).startswith("SimParams(rotation_seconds=7200, ")
        assert copy.copy(params) == pickle.loads(pickle.dumps(params)) == params
        with pytest.raises(AttributeError):
            params.tick_seconds = 10
        with pytest.raises(AttributeError):
            del params.tick_seconds
        with pytest.raises(TypeError, match=r"^unknown parameter\(s\): tick$"):
            SimParams(tick=5)
        with pytest.raises(ValueError, match="^ble_range_m must be a number, got '10'$"):
            SimParams(ble_range_m="10")

    def test_params_is_the_only_source_of_defaults(self):
        # A default repeated in a signature can drift from SimParams (or
        # AttackSpec); the listen port is a deployment setting, not a knob.
        allowed = ["wire.BackendHTTPServer.__init__(port)"]
        assert _numeric_defaults() == allowed


class TestRun:
    def test_no_attack_baseline(self):
        report = scenario.run(scenario.load_builtin("no_attack"))
        assert report.data["actors"]["A"]["gaen_alert"] is False
        assert report.data["actors"]["A"]["verdicts"] == []
        c_verdicts = {
            v["diagnosis_id"]: v["verdict"] for v in report.data["actors"]["C"]["verdicts"]
        }
        assert c_verdicts == {1: "ConfirmedContact"}

    def test_minimal_contact_alerts(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        assert report.data["actors"]["a"]["gaen_alert"] is True
        assert report.data["actors"]["b"]["gaen_alert"] is False

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
        assert report.data["actors"]["a"]["gaen_alert"] is False
        assert report.data["actors"]["a"]["observations"] == 30

    def test_walking_into_range_is_heard_from_that_tick_on(self):
        # b starts ~1.1 km away and arrives at a's place at t=300
        data = _minimal_config()
        data["actors"][1]["position"] = [0.01, 0.0]
        data["actors"][1]["movement"] = {"waypoints": [{"at": 300, "lat": 0.0, "lon": 0.0}]}
        world = scenario.World(scenario.load_config(data))
        world.run()
        for name in ("a", "b"):
            scan_times = [o.scan_time for o in observations(world.devices[name])]
            assert scan_times == list(range(300, 600, 10))

    def test_self_report_never_alerts(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        assert report.data["actors"]["b"]["risk_score"] == 0.0

    def test_unreachable_backend_skips_the_worlds_poll_round(self):
        # The backend is out of reach for the round after b's upload at 300:
        # the run goes on, the download log stays empty until the round
        # after c's upload at 600, which brings both chunks, and a's match
        # events come at that poll.
        data = _minimal_config(duration=900)
        data["actors"].append({"name": "c", "role": "honest", "place": "P"})
        data["diagnosis_events"].append({"actor": "c", "at_time": 600})
        world = scenario.World(scenario.load_config(data))
        fetch_chunks, failed = world.backend.fetch_chunks, []

        def flaky(since_index, now):
            if not failed:
                failed.append(now)
                raise BackendUnavailable("network down")
            return fetch_chunks(since_index, now)

        world.backend.fetch_chunks = flaky
        for _ in range(90):
            world.step()
            if world.now <= 600:  # every tick before c's upload
                assert (world.downloads.chunks, world.downloads.index) == ({}, {})
        report = world.finish().data
        assert failed == [300]
        assert {d: chunk.at for d, chunk in world.downloads.chunks.items()} == {1: 600, 2: 600}
        matches = [e for e in report["events"] if e["event"] == "match"]
        assert [(e["t"], e["actor"], e["diagnosis_id"]) for e in matches] == [
            (600, "a", 1), (600, "a", 2), (600, "b", 2), (600, "c", 1),
        ]
        assert report["actors"]["a"]["gaen_alert"] is True

    @pytest.mark.parametrize("name", golden_names())
    def test_a_tick_after_the_last_one_is_refused(self, name):
        # The world's download log expands published keys only through the
        # last tick, so a later tick would miss matches: stepping one raises,
        # naming both ticks, and leaves the world to finish as ``run`` does.
        world = scenario.World(golden_config(name))
        tick = world.params.tick_seconds
        ticks = world.config.duration // tick
        for _ in range(ticks):
            world.step()
        last = (ticks - 1) * tick
        for now in (last + tick, last + 5 * tick):
            world.now = now
            with pytest.raises(scenario.RunEndedError, match=rf"t={now} .* last tick at t={last}$"):
                world.step()
        assert world.finish().to_json_bytes() == (REPORTS / f"{name}.json").read_bytes()

    def test_a_second_finish_is_refused(self):
        # Before, a second finish logged every end-of-run event again, into
        # the event list the first report holds too: on scenario1 both then
        # held 9 events, 4 of them matches, for 7 and 2.
        world = scenario.World(golden_config("scenario1"))
        report = world.run()
        with pytest.raises(scenario.RunEndedError, match="^the run has already finished$"):
            world.finish()
        assert report.to_json_bytes() == (REPORTS / "scenario1.json").read_bytes()
        assert [e["event"] for e in world.events].count("match") == 2

    def test_a_step_after_finish_is_refused(self):
        # Before, a finished world still ran any tick up to the last one and
        # appended its events to the report's list: on scenario1, 30 steps
        # after finish grew the report's events from 0 to 4.
        world = scenario.World(golden_config("scenario1"))
        report = world.finish()
        events = json.dumps(report.data["events"])
        for _ in range(30):
            with pytest.raises(scenario.RunEndedError, match="^the run has already finished$"):
                world.step()
        assert json.dumps(report.data["events"]) == events == "[]"
        assert world.now == 0


# Report-shaped JSON trees: keys and strings that look like JSON syntax,
# control and non-ASCII characters, empty containers at every depth, lists
# of flat objects, tuples, and the floats ``json`` writes specially.
_TEXT = st.text(
    alphabet=st.sampled_from('{}[],:"\\ \n\t\x00\x1f\x7féab\u2603\U0001f600'), max_size=6
)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
    | st.sampled_from([0, -0.0, 1e300, math.inf, -math.inf, math.nan, 2**70])
)
_EMPTY = st.sampled_from([[], {}, ()])
_FLAT_OBJECTS = st.lists(
    st.dictionaries(_TEXT, _LEAVES | _EMPTY, min_size=1, max_size=4), min_size=1, max_size=4
)
REPORT_TREES = st.recursive(
    _LEAVES | _EMPTY,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | _FLAT_OBJECTS
    | _FLAT_OBJECTS.map(tuple),
    max_leaves=40,
)


def _report_shaped() -> dict:
    """A report-shaped tree built without a run: 20,000 flat match events,
    200 actor rows with their verdicts, and a config whose actors have a
    position and waypoints."""
    names = [f"d{i:03d}" for i in range(200)]
    actors = {
        name: {
            "role": "honest", "actguard": i % 2 == 0, "gaen_alert": i % 5 == 0,
            "risk_score": i / 7, "verdicts": [{"diagnosis_id": 1, "verdict": "ok"}] * (i % 3),
        }
        for i, name in enumerate(names)
    }
    config = {
        "actors": [
            {
                "name": name, "role": "honest", "place": "P0", "position": [i / 1000, 0.0],
                "movement": {"waypoints": [{"at": t, "lat": 0.0, "lon": 0.0} for t in (60, 120)]},
            }
            for i, name in enumerate(names)
        ],
        "places": [{"name": "P0", "lat": 0.0, "lon": 0.0, "radius_m": 20.0}],
        "params": {"tick_seconds": 10},
    }
    return {
        "actors": actors,
        "config": config,
        "events": [
            {"t": i, "event": "match", "actor": names[i % 200], "diagnosis_id": 1, "matches": i}
            for i in range(20_000)
        ],
        "scenario": "synthetic",
    }


class TestReport:
    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "no_c_encoder"])
    @settings(max_examples=400, deadline=None)
    @given(data=REPORT_TREES)
    def test_json_bytes_are_json_dumps_with_indent(self, c_encoder, data):
        # Without the C encoder, to_json_bytes falls back to json.dumps itself.
        present = json.encoder.c_make_encoder
        with mock.patch("json.encoder.c_make_encoder", present if c_encoder else None):
            got = scenario.ScenarioReport(data).to_json_bytes()
        assert got == json.dumps(data, sort_keys=True, indent=2).encode() + b"\n"

    def test_writing_holds_at_most_three_and_a_half_times_the_report(self):
        # Before, each level's text was copied again into the level above
        # it, and writing this report peaked at 4.00 times its size.
        report = scenario.ScenarioReport(_report_shaped())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            blob = report.to_json_bytes()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert json.loads(blob) == report.data
        assert peak <= 3.5 * len(blob)

    def test_json_round_trips(self):
        report = scenario.run(scenario.load_config(_minimal_config()))
        blob = scenario.emit_report(report, "json")
        assert json.loads(blob) == report.data

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

    def test_roles_tested_only_where_actors_are_built(self):
        # A role test elsewhere is a second dispatch that a new role must
        # find; reports and tables work from what each row holds.
        assert _role_comparisons() == []


class TestCli:
    def test_imports_only_the_standard_library(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import relaysim, relaysim.cli\n"
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        imported = set(ast.literal_eval(out))
        assert "relaysim" in imported
        assert imported - set(sys.stdlib_module_names) == {"relaysim"}

    def test_run_bundled_to_file(self, tmp_path, capsys):
        from relaysim.cli import main

        out = tmp_path / "report.json"
        assert main(["run", "no_attack", "--out", str(out)]) == 0
        report = json.loads(out.read_bytes())
        assert report["scenario"] == "no_attack"
        assert report["actors"]["A"]["gaen_alert"] is False

    def test_run_bundled_to_stdout_writes_the_golden_bytes(self, capsysbinary):
        from relaysim.cli import main

        assert main(["run", "scenario1"]) == 0
        assert capsysbinary.readouterr().out == (REPORTS / "scenario1.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_run_to_a_text_only_stdout_writes_the_golden_text(self, fmt):
        # A stream with no binary buffer, as an embedding caller swaps in:
        # before, the report ran and then the write raised AttributeError.
        from relaysim.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["run", "scenario1", "--format", fmt]) == 0
        golden = REPORTS / "scenario1.json" if fmt == "json" else TABLES / "scenario1.txt"
        assert out.getvalue() == golden.read_text()

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

    @pytest.mark.parametrize(
        "target, message",
        [
            (b'{"name": "x",', "a scenario must be JSON"),
            pytest.param(
                b'{"seed": ' + b"7" * 5000 + b', "duration": 10}',
                "a scenario value cannot be converted",
                id="5000-digit-integer",
            ),
            (b"\xff{", "cannot read the scenario file"),
            (None, "cannot read the scenario file"),  # a directory
            ("no_such_scenario", "no bundled scenario"),
            pytest.param(
                json.dumps(_minimal_config(params={"min_path_distance_m": 0})).encode(),
                "bad params section: min_path_distance_m must be positive",
                id="co-located-actors-at-zero-min-path-distance",
            ),
        ],
    )
    def test_config_error_is_a_message_and_status_2(self, tmp_path, capsys, target, message):
        # Before, a ConfigError, or the error of a file that cannot be read
        # as text or holds an integer too long to convert, escaped main() as
        # a traceback.
        from relaysim.cli import main

        if target is None:
            target = tmp_path
        elif isinstance(target, bytes):
            (tmp_path / "broken.json").write_bytes(target)
            target = tmp_path / "broken.json"
        assert main(["run", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"relaysim: {message}")
        assert "Traceback" not in captured.err

    def test_duration_over_the_tick_bound_is_a_message_and_status_2(self, tmp_path, capsys):
        # Before, any duration loaded, and World.run would loop once per tick.
        from relaysim.cli import main

        ticks = scenario.MAX_TICKS
        assert scenario.load_config(_minimal_config(duration=10 * ticks + 9)).duration
        path = tmp_path / "long.json"
        path.write_text(json.dumps(_minimal_config(duration=20 * ticks, params={"tick_seconds": 1})))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"relaysim: duration must span at most {ticks} ticks of 1 s, got {20 * ticks} s\n"
        )

    def test_latitude_beyond_a_pole_is_a_message_and_status_2(self, tmp_path, capsys):
        # Before, this scenario loaded and the run ended in a traceback.
        from relaysim.cli import main

        path = tmp_path / "poles.json"
        path.write_text(json.dumps(_minimal_config(
            actors=[
                {"name": "a", "place": "P", "position": [8.993216059187305e302, 0.0]},
                {"name": "b", "place": "P", "position": [179.93216059187307, 1.468703640175883e18]},
            ],
            params={"ble_range_m": 1e308},
        )))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "relaysim: actor 'a' position lat must be within [-90, 90], got 8.993216059187305e+302\n"
        )

    def test_longitude_beyond_the_antimeridian_is_a_message_and_status_2(self, tmp_path, capsys):
        # Before, this run ended in a traceback (struct.error) when the
        # diagnosed defended device packed its contact digests.
        from relaysim.cli import main

        path = tmp_path / "far.json"
        path.write_text(json.dumps(_minimal_config(
            places=[{"name": "P", "lat": 0.0, "lon": 1e300}],
            actors=[{"name": n, "place": "P", "actguard": True} for n in ("a", "b")],
        )))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "relaysim: place 'P' lon must be within [-180, 180], got 1e+300\n"

    def test_unwritable_out_is_a_message_and_status_2(self, tmp_path, capsys):
        from relaysim.cli import main

        out = tmp_path / "no" / "such" / "x.json"
        assert main(["run", "no_attack", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("relaysim: cannot write the report: ")
        assert str(out) in captured.err

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_port_outside_0_to_65535_is_rejected(self, capsys, port):
        from relaysim.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["serve-backend", "--port", port])
        assert exited.value.code == 2
        assert f"argument --port: must be 0-65535, got {port}" in capsys.readouterr().err

    def test_port_in_use_is_a_message_and_status_2(self, capsys):
        from relaysim.cli import main
        from relaysim.wire import BackendHTTPServer

        with (
            socket.socket() as held,
            mock.patch.object(BackendHTTPServer, "serve_forever", side_effect=AssertionError),
        ):
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["serve-backend", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"relaysim: cannot serve on 127.0.0.1:{port}: ")
        assert "Traceback" not in err

    def test_unknown_host_is_a_message_and_status_2(self, capsys):
        # The server's constructor raises the failed lookup, patched in here
        # so that no name is sent to a resolver.  The CLI imports the
        # server class from the wire module when it serves.
        from relaysim import cli, wire

        error = socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        with mock.patch.object(wire, "BackendHTTPServer", side_effect=error):
            assert cli.main(["serve-backend", "--host", "nosuch.invalid"]) == 2
        assert capsys.readouterr().err == (
            "relaysim: cannot serve on nosuch.invalid:8470: [Errno -2] Name or service not known\n"
        )
