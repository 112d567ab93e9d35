"""The scenario table in ``nswp.cases`` and the CLI that reads it.

Every run and case builder is replaced by a recorder, so these tests check which
keyword arguments reach them without propagating anything.
"""

import json

import numpy as np
import pytest

import nswp.cases
import nswp.cli
from nswp import CheckResult, Grid1D, PhysicalConstants, RunReport
from nswp.cases import SCENARIOS, ScenarioResult, airy_forced_case
from nswp.cli import _load_config, main
from nswp.propagator import propagate
from nswp.errors import ConfigurationError

RUNS = {"sho": "run_sho_shifted", "airy-free": "run_airy_forced",
        "airy-forced": "run_airy_forced", "gaussian-control": "run_gaussian_spreading",
        "sho-timedep-freq": "run_sho_timedep_frequency",
        "corrupted-phase": "run_corrupted_phase"}
BUILDERS = {"sho": "sho_case", "airy-free": "airy_forced_case",
            "airy-forced": "airy_forced_case"}

# a value other than the default for every config key the scenario commands know
SAMPLES = {"mode_index": 1, "amplitude": 1.5, "omega": 1.5, "B": 1.2,
           "force_kind": "const", "force_amp": 0.2, "force_freq": 3.0,
           "modulation": 0.1, "dt": 1e-3, "t_end": 1.0, "snapshot_stride": 7,
           "times": [0.25], "write_snapshots": True, "x_min": -7.0, "x_max": 7.0,
           "n_points": 512, "hbar": 2.0, "mass": 2.0}
OUTPUT_KEYS = {"times", "write_snapshots"}


def _fake_result():
    grid = Grid1D(-1.0, 1.0, 8)
    report = RunReport(times=[0.0], norm=[1.0], shape_deviation=[0.0], grid=grid,
                       snapshot_values=np.ones((1, 8), dtype=complex))
    return ScenarioResult(name="fake", report=report, extras={"t_end": 1.0},
                          evaluate=lambda: [CheckResult("fake_check", 0.0, 1.0, True)])


@pytest.fixture
def calls(monkeypatch):
    """Replace every run and case builder; returns the list of (name, kwargs) calls."""
    record = []
    case = airy_forced_case(1.0, consts=PhysicalConstants(), t_max=20.0)

    def recorder(name, result):
        def fake(*args, **kwargs):
            record.append((name, args, kwargs))
            return result
        return fake

    for name in RUNS.values():
        monkeypatch.setattr(nswp.cases, name, recorder(name, _fake_result()))
    for name in BUILDERS.values():
        monkeypatch.setattr(nswp.cases, name, recorder(name, case))
    return record


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _accepted(command, scenario, key):
    try:
        _load_config(command, None, {"scenario": scenario, key: SAMPLES[key]})
    except ConfigurationError:
        return False
    return True


def _comparable(kwargs):
    return {k: v(0.7) if callable(v) else v for k, v in kwargs.items()}


def _outputs(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("command", ["construct", "propagate", "verify"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_accepted_key_is_honoured(command, scenario, calls, tmp_path):
    def run(config, out):
        calls.clear()
        assert main([command, "--config", _write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        assert [c[0] for c in calls] == [
            (BUILDERS if command == "construct" else RUNS)[scenario]]
        return _comparable(calls[0][2]), _outputs(out)

    keys = [k for k in SAMPLES if _accepted(command, scenario, k)]
    if not keys:
        with pytest.raises(ConfigurationError):
            _load_config(command, None, {"scenario": scenario})
        return
    base_kwargs, base_files = run({"scenario": scenario}, tmp_path / "base")
    for key in keys:
        kwargs, files = run({"scenario": scenario, key: SAMPLES[key]}, tmp_path / key)
        if key in OUTPUT_KEYS:
            assert files != base_files, (command, scenario, key)
        else:
            # the closed-form Airy builders take no grid: construct only samples
            # their packets on it, so a grid key shows in the files written
            assert kwargs != base_kwargs or files != base_files, (command, scenario, key)


def test_accepted_combinations_count():
    accepted = [(c, s, k) for c in ("construct", "propagate", "verify")
                for s in SCENARIOS for k in SAMPLES if _accepted(c, s, k)]
    # 106 with the "scenario" key of each of the 14 (command, scenario) pairs
    assert len(accepted) == 92


@pytest.mark.parametrize("argv, config", [
    (["verify", "--scenario", "gaussian-control"], {"n_points": 256}),
    (["propagate", "--scenario", "sho", "--t-end", "0.1"], {}),
    (["propagate", "--scenario", "corrupted-phase"], {}),
    (["construct", "--scenario", "gaussian-control"], {}),
    (["verify", "--scenario", "sho"], {"dt": 1e-3}),
    (["propagate", "--scenario", "sho-timedep-freq"], {"snapshot_stride": 7}),
])
def test_keys_a_scenario_does_not_take_exit_2_before_any_run(argv, config, calls,
                                                             tmp_path):
    args = argv + ["--out", str(tmp_path / "o")]
    if config:
        args += ["--config", _write_config(tmp_path, config)]
    assert main(args) == 2
    assert calls == []


@pytest.mark.parametrize("flags, ignored", [
    (["--force-kind", "none", "--force-amp", "0.4"], "force_kind 'none' does not take ['force_amp']"),
    (["--force-kind", "const", "--force-freq", "5"], "force_kind 'const' does not take ['force_freq']"),
], ids=["none-amp", "const-freq"])
def test_a_force_key_the_force_kind_ignores_exits_2_before_any_run(flags, ignored, calls,
                                                                   tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["verify", "--scenario", "airy-forced", *flags, "--out", str(out)]) == 2
    assert calls == [] and not out.exists()
    assert ignored in capsys.readouterr().err


def test_timedep_freq_passes_consts_to_both_trap_runs(monkeypatch, tmp_path):
    record = []

    def spy(initial, v_fn, config, consts):
        record.append(consts)
        return propagate(initial, v_fn, config, consts)

    monkeypatch.setattr(nswp.cases, "propagate", spy)
    cfg = _write_config(tmp_path, {"hbar": 2})
    assert main(["verify", "--scenario", "sho-timedep-freq", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert [consts.hbar for consts in record] == [2.0, 2.0]


def test_reproduce_verifies_every_table_entry(calls, tmp_path):
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    assert sorted(c[0] for c in calls) == sorted(RUNS.values())
    summary = json.loads((tmp_path / "report.json").read_text())["scenarios"]
    assert sorted(summary) == sorted(s.replace("-", "_") for s in SCENARIOS)


@pytest.mark.parametrize("command, key, value", [
    ("eigen", "k", 2.9),
    ("propagate", "write_snapshots", "false"),
    ("eigen", "n_points", True),
])
def test_config_values_of_the_wrong_type_are_rejected(command, key, value, tmp_path):
    with pytest.raises(ConfigurationError):
        _load_config(command, _write_config(tmp_path, {key: value}), {})


def test_config_ints_pass_as_floats():
    config = _load_config("verify", None, {"scenario": "sho", "amplitude": 2})
    assert config["amplitude"] == 2.0 and isinstance(config["amplitude"], float)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", [*(k for k, v in SAMPLES.items() if isinstance(v, float)),
                                 "times"])
def test_non_finite_config_values_exit_2_before_any_run(key, value, calls, tmp_path):
    # the config file carries them as the NaN and Infinity tokens
    command, scenario = next((c, s) for c in ("construct", "propagate", "verify")
                             for s in SCENARIOS if _accepted(c, s, key))
    config = {"scenario": scenario, key: [0.5, value] if key == "times" else value}
    out = tmp_path / "o"
    assert main([command, "--config", _write_config(tmp_path, config),
                 "--out", str(out)]) == 2
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "sho", "--amplitude", "nan"],
    ["verify", "--scenario", "airy-forced", "--force-amp", "nan"],
    ["propagate", "--scenario", "airy-free", "--dt", "nan"],
    ["construct", "--scenario", "sho", "--times", "0", "inf"],
    ["eigen", "--omega", "inf"],
    ["eigen", "--potential", "quartic", "--lam=-inf"],
])
def test_non_finite_flag_values_exit_2_before_any_run(argv, calls, monkeypatch,
                                                      tmp_path):
    def not_reached(*args, **kwargs):
        raise AssertionError("ran past the config check")

    monkeypatch.setattr(nswp.cli, "lowest_eigenpairs", not_reached)
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert calls == [] and not out.exists()
