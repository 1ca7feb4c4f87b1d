"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

from repro.cli import main
from repro.scenarios import get_scenario


def test_list_shows_at_least_ten_scenarios(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in ("coulomb_oscillations", "electrometer", "set_rng"):
        assert name in output
    match = re.search(r"(\d+) registered scenarios", output)
    assert match and int(match.group(1)) >= 10


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 10
    assert {"name", "engine", "title"} <= set(payload[0])


def test_describe_prints_spec_and_expected_outputs(capsys):
    assert main(["describe", "electrometer"]) == 0
    output = capsys.readouterr().out
    assert "spec hash:" in output
    assert "expected outputs:" in output
    assert "VG" in output


def test_describe_json(capsys):
    assert main(["describe", "speed_limits", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["name"] == "speed_limits"
    assert payload["spec_hash"]


def test_describe_unknown_scenario_fails_cleanly(capsys):
    assert main(["describe", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_executes_and_second_invocation_hits_the_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "speed_limits", "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr()
    assert "cache=miss" in first.out
    assert main(["run", "speed_limits", "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr()
    assert "cache=hit" in second.out
    assert "cache hit" in second.err
    assert "no engine dispatch" in second.err


def test_run_json_output(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "power_dissipation", "--cache-dir", cache_dir,
                 "--json", "--quiet"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "power_dissipation"
    assert payload["metrics"]["energy_advantage"] > 1e3
    assert payload["meta"]["cache"] == "miss"


def test_run_with_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "electrometer",
        "engine": "master",
        "temperature": 0.3,
        "device": {"junction_capacitance": 1e-18,
                   "gate_capacitance": 2e-18,
                   "junction_resistance": 1e6},
        "sweeps": [{"source": "VG", "start": 0.0, "stop": 0.08,
                    "points": 3}],
    }))
    assert main(["run", "--spec", str(spec_path), "--quiet",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "electrometer" in capsys.readouterr().out


def test_run_without_names_is_an_error(capsys):
    assert main(["run"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_run_spec_conflicts_with_names(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"name": "speed_limits"}')
    assert main(["run", "electrometer", "--spec", str(spec_path)]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_run_multiple_names_with_json_emits_one_array(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "speed_limits", "power_dissipation", "--json",
                 "--quiet", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in payload] == \
        ["speed_limits", "power_dissipation"]


def test_compare_runs_one_scenario_across_engines(tmp_path, capsys):
    assert main(["compare", "coulomb_oscillations", "--engines",
                 "analytic,master",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    output = capsys.readouterr().out
    assert "metrics by engine" in output
    assert "gate_period_theory_V" in output


def test_engines_lists_every_registered_engine_with_flags(capsys):
    assert main(["engines"]) == 0
    output = capsys.readouterr().out
    for name in ("analytic", "master", "montecarlo", "ensemble"):
        assert name in output
    assert "exactness" in output
    assert "stochastic-complete" in output
    assert "get_engine" in output


def test_engines_json_carries_capabilities_and_cost(capsys):
    assert main(["engines", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in payload}
    assert {"analytic", "ensemble", "master", "montecarlo"} <= names
    for entry in payload:
        assert set(entry) == {"name", "exactness", "stochastic",
                              "supports_ensemble", "cost",
                              "description"}
        assert entry["cost"]["per_point_s"] > 0


def test_compare_rejects_unknown_engine(capsys):
    assert main(["compare", "coulomb_oscillations", "--engines",
                 "spice"]) == 2
    assert "spice" in capsys.readouterr().err


def test_run_accepts_an_engine_alias(tmp_path, capsys):
    assert main(["run", "coulomb_oscillations", "--engine", "montecarlo-jit",
                 "--json", "--quiet",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "montecarlo"
    # The spec keeps the name as written, so the alias is its own identity.
    spec = get_scenario("coulomb_oscillations").spec
    assert payload["meta"]["spec_hash"] == \
        spec.with_engine("montecarlo-jit").content_hash()


def test_compare_accepts_an_engine_alias(tmp_path, capsys):
    assert main(["compare", "coulomb_oscillations", "--engines",
                 "montecarlo-jit,master",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    output = capsys.readouterr().out
    assert "montecarlo-jit" in output
    assert "gate_period_theory_V" in output


def test_compare_rejects_pinned_scenarios(capsys):
    assert main(["compare", "power_dissipation", "--engines",
                 "analytic,master"]) == 2
    assert "dispatches only" in capsys.readouterr().err
