import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from nswp import cases, cli
from nswp.cli import main
from nswp.grids import MAX_DENSE_POINTS, write_json
from nswp.propagator import STEP_TOLERANCE

from test_eigensolver import QUARTIC_E0


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def read_json(path):
    """Strict parse: NaN and Infinity tokens are rejected."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def test_eigen_harmonic(tmp_path):
    out = tmp_path / "eig"
    code = main(["eigen", "--potential", "harmonic", "--omega", "1", "--k", "3",
                 "--out", str(out)])
    assert code == 0
    energies = read_json(out / "energies.json")["energies"]
    for n, e in enumerate(energies):
        assert abs(e - (n + 0.5)) / (n + 0.5) < 5e-5
    assert (out / "mode_0.csv").exists()
    assert (out / "mode_2.json").exists()
    assert read_json(out / "manifest.json")["command"] == "eigen"


def test_eigen_quartic(tmp_path):
    out = tmp_path / "eig"
    code = main(["eigen", "--potential", "quartic", "--lam", "1", "--k", "1",
                 "--out", str(out)])
    assert code == 0
    e0 = read_json(out / "energies.json")["energies"][0]
    assert abs(e0 - QUARTIC_E0) < 1e-4


@pytest.mark.parametrize("omega", [0.01, 1.0, 100.0, 400.0])
def test_eigen_harmonic_sizes_its_grid_from_omega(omega, tmp_path):
    # the default grid is cases.sho_grid of the highest mode asked for; a
    # fixed +-12 on 256 points read 0.613, 1.151 and 4.421 hbar omega at
    # omega = 400 and leaked at the walls at omega = 0.01
    out = tmp_path / "eig"
    assert main(["eigen", "--omega", str(omega), "--out", str(out)]) == 0
    energies = read_json(out / "energies.json")["energies"]
    assert len(energies) == 3
    for n, e in enumerate(energies):
        assert abs(e / omega - (n + 0.5)) < 1e-8


def test_eigen_span_without_n_points_keeps_the_derived_dx(tmp_path):
    # +-40 without n_points takes the derived +-7.24 grid's dx (637 points);
    # keeping its 116 points (dx = 0.70) read E_2 off by 4.9e-6
    out = tmp_path / "eig"
    assert main(["eigen", "--x-min", "-40", "--x-max", "40", "--out", str(out)]) == 0
    energies = read_json(out / "energies.json")["energies"]
    for n, e in enumerate(energies):
        assert abs(e - (n + 0.5)) < 1e-10


def test_sho_span_without_n_points_keeps_the_derived_dx(tmp_path, monkeypatch):
    # the sho scenario's grid keys: +-40 without n_points takes the default
    # grid's dx, and the run passes; on the default 128 points (dx = 0.63)
    # five checks failed
    grids = []
    run = cases.run_sho_shifted

    def spy(**kwargs):
        grids.append(kwargs["grid"])
        return run(**kwargs)

    monkeypatch.setattr(cases, "run_sho_shifted", spy)
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "sho", "--out", str(out), "--config",
                 str(make_config(tmp_path, x_min=-40.0, x_max=40.0))]) == 0
    assert read_json(out / "report.json")["pass"] is True
    grid, = grids
    assert (grid.x_min, grid.x_max) == (-40.0, 40.0)
    assert grid.dx <= cases.sho_grid().dx < 80.0 / (grid.n - 2)


# E_n / lambda^(1/3) of V = lambda x^4 at hbar = m = 1, n = 0, 1, 2
QUARTIC_LEVELS = (0.667986259, 2.393644016, 4.696795387)


@pytest.mark.parametrize("lam", [1e-4, 1e6])
def test_eigen_quartic_scales_its_grid_with_lambda(lam, tmp_path):
    # the default grid is +-8 (hbar^2 / m lambda)^(1/6) on 256 points; a
    # fixed +-8 read E_2 / lambda^(1/3) = 4.6475 at lambda = 1e6 and leaked
    # at the walls at 1e-4
    out = tmp_path / "eig"
    assert main(["eigen", "--potential", "quartic", "--lam", str(lam),
                 "--out", str(out)]) == 0
    energies = read_json(out / "energies.json")["energies"]
    assert len(energies) == 3
    for e, level in zip(energies, QUARTIC_LEVELS):
        assert abs(e / lam ** (1.0 / 3.0) - level) < 1e-8


def test_eigen_k_below_1_exits_2_before_the_grid_is_sized(tmp_path, monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("the grid was sized")

    monkeypatch.setattr(cases, "sho_grid", not_reached)
    out = tmp_path / "o"
    assert main(["eigen", "--k", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert "k must be >= 1" in capsys.readouterr().err


def test_eigen_rejects_linear(tmp_path):
    code = main(["eigen", "--config", str(make_config(tmp_path, potential="linear")),
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("argv", [["--potential", "harmonic", "--lam", "5"],
                                  ["--potential", "quartic", "--omega", "2"]])
def test_eigen_rejects_the_other_potentials_key(argv, tmp_path):
    out = tmp_path / "o"
    assert main(["eigen", *argv, "--k", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "propagate", "verify"])
@pytest.mark.parametrize("scenario", ["airy-free", "airy-forced"])
@pytest.mark.parametrize("B", ["-1", "0"])
def test_airy_scenarios_reject_nonpositive_B(command, scenario, B, tmp_path):
    # A = B^3/(2m) must be positive for the Airy shape to exist
    out = tmp_path / "o"
    assert main([command, "--scenario", scenario, "--B", B, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("grid_keys", [{"x_min": -9.0}, {"x_max": 3.95, "n_points": 3330}],
                         ids=["left-edge", "right-edge"])
def test_airy_window_off_the_grid_exits_2_before_the_first_step(grid_keys, tmp_path,
                                                                 monkeypatch, capsys):
    # the comparison window [-10, 4] and the two points either side of it,
    # which the 5-point <P> stencil reads, must lie inside the grid: x_min =
    # -9 starts the grid inside the window and x_max = 3.95 ends it there
    def not_reached(*args, **kwargs):
        raise AssertionError("the run took a step")

    monkeypatch.setattr(cases, "propagate", not_reached)
    out = tmp_path / "o"
    assert main(["verify", "--scenario", "airy-free",
                 "--config", str(make_config(tmp_path, **grid_keys)),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "window [-10, 4]" in capsys.readouterr().err


def test_eigen_more_modes_than_points_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["eigen", "--k", "100", "--n-points", "64", "--out", str(out)]) == 2
    assert not out.exists()
    assert "k = 100 modes asked of a grid of n = 64 points" in capsys.readouterr().err


def test_eigen_past_the_dense_basis_cap_exits_2_without_allocating(tmp_path, capsys):
    # one point past the cap: the refusal names n, and the command's peak
    # allocation stays far under the 33 MB of one n x n matrix
    n = MAX_DENSE_POINTS + 1
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = main(["eigen", "--n-points", str(n), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert not out.exists()
    assert f"n = {n} points exceeds the cap of {MAX_DENSE_POINTS}" in capsys.readouterr().err
    assert peak < 0.01 * 8 * n * n


def test_sho_dt_exits_2_before_the_eigensolve(tmp_path, monkeypatch, capsys):
    # the static trap takes no step, so sho takes no dt
    def not_reached(*args, **kwargs):
        raise AssertionError("the eigensolve ran")

    monkeypatch.setattr(cases, "lowest_eigenpairs", not_reached)
    out = tmp_path / "o"
    assert main(["propagate", "--scenario", "sho", "--dt", "1e-3", "--out", str(out)]) == 2
    assert not out.exists()
    assert "scenario 'sho' does not take ['dt']" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [(["--omega", "0"], "omega = 0"),
                                           (["--omega", "-1"], "omega = -1"),
                                           (["--n", "-1"], "n = -1")],
                         ids=["omega-0", "omega-minus-1", "n-minus-1"])
def test_sho_refuses_a_bad_mode_index_or_omega_by_name(flags, named, tmp_path, monkeypatch,
                                                       capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("the eigensolve ran")

    monkeypatch.setattr(cases, "lowest_eigenpairs", not_reached)
    out = tmp_path / "o"
    assert main(["verify", "--scenario", "sho", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1


def test_verify_sho_at_omega_2_passes(tmp_path):
    # the rate check used to differentiate <P> with np.gradient, whose own
    # truncation error (1.3e-3) exceeded the 1e-3 bound here
    out = tmp_path / "o"
    assert main(["verify", "--scenario", "sho", "--omega", "2", "--out", str(out)]) == 0
    checks = {c["name"]: c["value"] for c in read_json(out / "report.json")["checks"]}
    assert checks["momentum_rate_tracks_force"] < 1e-4


def test_airy_free_peak_law_holds_below_unit_displacement(tmp_path):
    # at B = 0.8 the displacement B^3 t^2 / 4 reaches only 0.512 by t = 2,
    # so every snapshot after the first is held to an absolute error
    out = tmp_path / "o"
    assert main(["verify", "--scenario", "airy-free", "--B", "0.8",
                 "--out", str(out)]) == 0
    checks = {c["name"]: c for c in read_json(out / "report.json")["checks"]}
    assert checks["peak_follows_trajectory"]["pass"]
    assert 0.0 < checks["peak_follows_trajectory"]["value"] < 1e-3


@pytest.mark.parametrize("argv", [["--t-end", "1.5"], ["--B", "0.5"]],
                         ids=["t_end-1.5", "B-0.5"])
def test_propagate_writes_a_run_whose_peak_law_is_out_of_reach(argv, tmp_path):
    # no displacement of these runs reaches 1, so their peak check holds
    # every snapshot to an absolute error; propagate writes the report
    # without evaluating that or any other check
    out = tmp_path / "o"
    assert main(["propagate", "--scenario", "airy-free", *argv, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["times"]


# the helpers only a scenario's checks call
CHECK_HELPERS = ("classical_motion_check", "energy_split_check", "phi0_forced_airy",
                 "quadratic_peak", "_windowed_momentum", "tdse_residual", "observables")


@pytest.mark.parametrize("scenario", ["sho", "airy-free", "airy-forced", "gaussian-control"])
def test_propagate_evaluates_no_check(scenario, tmp_path, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("propagate evaluated a check")

    for name in CHECK_HELPERS:
        monkeypatch.setattr(cases, name, not_reached)
    assert main(["propagate", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    if scenario == "gaussian-control":
        # verify does evaluate them
        with pytest.raises(AssertionError, match="evaluated a check"):
            main(["verify", "--scenario", scenario, "--out", str(tmp_path / "v")])


def test_propagate_airy_forced_shorter_than_its_check_times(tmp_path):
    # the support check samples V_nswp up to t = 1.5; the force cache used
    # to end at t_end + 1 = 1.4
    out = tmp_path / "o"
    assert main(["propagate", "--scenario", "airy-forced", "--t-end", "0.4",
                 "--out", str(out)]) == 0
    assert read_json(out / "report.json")["times"][-1] == pytest.approx(0.4)


def test_airy_forced_t_end_must_be_whole_default_steps(tmp_path, capsys):
    # without --dt the Airy runs step at 1e-2: 1.0 is 100 steps with a
    # snapshot every 0.1, 1.005 is not a whole number of steps
    out = tmp_path / "o"
    assert main(["propagate", "--scenario", "airy-forced", "--t-end", "1.0",
                 "--out", str(out)]) == 0
    times = read_json(out / "report.json")["times"]
    assert times == pytest.approx([0.1 * k for k in range(11)], abs=1e-12)
    capsys.readouterr()
    assert main(["propagate", "--scenario", "airy-forced", "--t-end", "1.005",
                 "--out", str(tmp_path / "bad")]) == 2
    assert "whole number of steps dt = 0.01" in capsys.readouterr().err


def test_json_writer_is_strict(tmp_path):
    # the payload is serialized before the file is opened: no partial file
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"value": float("nan")})
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("scenario", ["airy-free", "airy-forced"])
def test_construct_airy_on_a_grid_narrower_than_the_run_mask(scenario, tmp_path):
    # the Airy runs' 8-wide mask does not fit in +-7, but construct only
    # samples the closed-form packet and builds no propagation config
    cfg = make_config(tmp_path, x_min=-7.0, x_max=7.0, n_points=512)
    out = tmp_path / "o"
    assert main(["construct", "--scenario", scenario, "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len((out / "psi_000.csv").read_text().splitlines()) == 513


def make_config(tmp_path, **kv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kv))
    return path


def test_bad_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["eigen", "--potential", "bogus"])
    assert exc_info.value.code == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = make_config(tmp_path, weird_key=1)
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_bad_value_exits_2(tmp_path):
    cfg = make_config(tmp_path, omega="not-a-number")
    assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_scenario_exits_2(tmp_path):
    assert main(["verify", "--scenario", "bogus", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv", [["verify", "--config", "missing.json"],
                                  ["eigen", "--out", "taken"],
                                  ["reproduce", "--out", "taken"]],
                         ids=["config-missing", "eigen-out-a-file", "reproduce-out-a-file"])
def test_unreadable_config_or_unusable_out_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_reproduce_writes_its_manifest(tmp_path, monkeypatch):
    # the scenarios' own runs are stubbed out: only reproduce's files are read
    monkeypatch.setattr(cli, "cmd_verify", lambda config, out: 0)
    out = tmp_path / "r"
    assert main(["reproduce", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json") == {"command": "reproduce", "config": {}}


def test_flags_override_config(tmp_path):
    # config says k=1, flag says k=2; flags win
    cfg = make_config(tmp_path, potential="harmonic", k=1)
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(cfg), "--k", "2", "--out", str(out)]) == 0
    assert len(read_json(out / "energies.json")["energies"]) == 2


def test_construct_sho(tmp_path):
    out = tmp_path / "con"
    code = main(["construct", "--scenario", "sho", "--times", "0", "0.5", "1.0",
                 "--out", str(out)])
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["gauge"] == "sho_case"
    assert manifest["trajectory"] == "sinusoid"
    e0 = manifest["E_f"]
    # phase table must match the closed form
    # phi0 = -(m omega A^2/4) sin(2 omega t) - E_0 t, phi1 = m A omega cos(omega t)
    rows = (out / "phase_table.csv").read_text().splitlines()[1:]
    for row in rows:
        t, phi1, phi0 = (float(v) for v in row.split(","))
        assert abs(phi1 - 2.0 * math.cos(t)) < 1e-12
        assert abs(phi0 - (-math.sin(2 * t) - e0 * t)) < 1e-9
    # supporting potential is static across times (up to round-off in the
    # cancellation of the moving-well and gauge terms)
    def load_v(name):
        rows = (out / name).read_text().splitlines()[1:]
        return np.array([[float(v) for v in r.split(",")] for r in rows])

    v0 = load_v("vnswp_000.csv")
    v2 = load_v("vnswp_002.csv")
    assert np.array_equal(v0[:, 0], v2[:, 0])
    assert np.max(np.abs(v0[:, 1] - v2[:, 1])) < 1e-12
    assert (out / "psi_000.csv").exists()


def test_construct_refuses_a_negative_time(tmp_path, capsys):
    # phi0's cache would extrapolate its first piece: phi0(-3) read 39.5
    # where the integral gives 1.22
    out = tmp_path / "con"
    assert main(["construct", "--scenario", "sho", "--times", "0", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_construct_sizes_the_phi0_horizon_from_its_times(tmp_path):
    out = tmp_path / "con"
    assert main(["construct", "--scenario", "sho", "--times", "25",
                 "--out", str(out)]) == 0
    t, _, phi0 = (float(v) for v in
                  (out / "phase_table.csv").read_text().splitlines()[1].split(","))
    assert t == 25.0
    assert abs(phi0 - cases.sho_case(t_max=26.0).sol.phi0_direct(25.0)) < 1e-9
    for path in out.glob("*.csv"):
        assert b"\r" not in path.read_bytes()


@pytest.mark.parametrize("argv", [["airy-free", "--dt", "1e-6"],
                                  ["airy-forced", "--t-end", "1e5"]])
def test_propagate_past_the_step_budget_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "prop"
    start = time.perf_counter()
    assert main(["propagate", "--scenario", *argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err
    assert not out.exists()


def test_construct_deterministic(tmp_path):
    args = ["construct", "--scenario", "airy-free", "--times", "0", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("psi_000.csv", "psi_001.csv", "vnswp_001.csv", "phase_table.csv",
                 "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_propagate_gaussian_control(tmp_path):
    out = tmp_path / "prop"
    code = main(["propagate", "--scenario", "gaussian-control", "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert len(report["times"]) == len(report["norm"])
    # the rigid centroid reference and no H-tilde residual: that column is left out
    assert set(report) == {"times", "norm", "centroid", "momentum_mean",
                           "energy_mean", "shape_deviation"}


@pytest.mark.parametrize("scenario, columns", [
    ("sho", {"shape_deviation", "htilde_residual", "centroid", "momentum_mean",
             "energy_mean"}),
    ("airy-free", {"shape_deviation"}),
])
def test_propagate_report_columns(scenario, columns, tmp_path):
    # sho measures both per-snapshot columns from its snapshots; the masked
    # Airy run records the norm and its windowed shape deviation
    out = tmp_path / "prop"
    assert main(["propagate", "--scenario", scenario, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert set(report) == {"times", "norm", *columns}
    assert len({len(values) for values in report.values()}) == 1


def test_verify_gaussian_control(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "gaussian-control", "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["pass"] is True
    assert all("name" in c and "pass" in c for c in report["checks"])


def test_verify_corrupted_phase_selftest(tmp_path):
    # exits 0 only when the residual check correctly flags the corruption
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "corrupted-phase", "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["checks"][0]["value"] > 100.0


def test_verify_failure_exits_1(tmp_path):
    # modulation 0 means no spread is detected, so the negative-claim
    # scenario reports failure
    out = tmp_path / "v"
    code = main(["verify", "--scenario", "sho-timedep-freq",
                 "--modulation", "0.0", "--out", str(out)])
    assert code == 1
    assert read_json(out / "report.json")["pass"] is False


@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_sho_mode_passes_at_defaults(n, tmp_path):
    # modes 1 and 2 failed their H-tilde and motion checks with the 3-point
    # operator, even on 4096 points
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "sho", "--n", str(n), "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["pass"] is True
    assert read_json(out / "manifest.json")["config"]["mode_index"] == n


@pytest.mark.parametrize("flags, config", [
    (["--omega", "0.5"], {}),
    (["--n", "5"], {}),
    ([], {"hbar": 0.5}),
    ([], {"mass": 3.0}),
    # the carrier wavenumber m amplitude omega / hbar = 25 / sigma at the
    # centre of the swing, past the 25 / sigma that 16/127 sigma resolves
    (["--amplitude", "25"], {}),
])
def test_verify_sho_passes_off_its_defaults(flags, config, tmp_path):
    # each run's grid is derived from its parameters (cases.sho_grid), so
    # the mode's tail is cut off as far out as at the defaults
    args = ["verify", "--scenario", "sho", *flags, "--out", str(tmp_path / "v")]
    if config:
        args += ["--config", str(make_config(tmp_path, scenario="sho", **config))]
    assert main(args) == 0
    assert read_json(tmp_path / "v" / "report.json")["pass"] is True


def test_verify_strong_modulation_takes_the_one_retry(tmp_path):
    # eps = 0.5: at the default dt = 0.1 the step error estimate reads
    # 3.6e-4, past STEP_TOLERANCE, so the run is taken once more at 0.05,
    # where it reads 2.4e-5; the report records the dt and estimate it kept
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "sho-timedep-freq",
                 "--modulation", "0.5", "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["pass"] is True
    assert report["extras"]["dt"] == 0.05
    assert report["extras"]["step_error_estimate"] <= STEP_TOLERANCE


def test_verify_modulation_0_7_sizes_the_grid_to_the_packet(tmp_path):
    # the packet swings out to about +-16.9, past the +-12 that suffices at
    # eps = 0.2, so the grid must follow the parameters
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "sho-timedep-freq",
                 "--modulation", "0.7", "--out", str(out)]) == 0
    assert read_json(out / "report.json")["pass"] is True


@pytest.mark.parametrize("eps", ["1", "-1", "3", "nan", "inf"])
def test_verify_modulation_outside_the_box_exits_2(eps, tmp_path, monkeypatch):
    # for |eps| >= 1, w(t) passes through 0 and the trap opens; eps = 3 would
    # size a +-66.8 grid and take 714 000 steps a run. The range is checked
    # before any grid is sized, eigenpair solved or step taken
    def not_reached(*args, **kwargs):
        raise AssertionError("ran past the range check")

    for name in ("trap_envelope_half_width", "lowest_eigenpairs", "propagate"):
        monkeypatch.setattr(cli.cases, name, not_reached)
    out = tmp_path / "v"
    assert main(["verify", "--scenario", "sho-timedep-freq", f"--modulation={eps}",
                 "--out", str(out)]) == 2
    assert not out.exists()


# finite hbar or mass far from natural units: 3 for an overflow or a
# division by zero, 2 where the default grid would take more points than the
# dense basis budget
EXTREME_CONSTANTS = [
    ("gaussian-control", {"hbar": 1e308}, 3),
    ("gaussian-control", {"hbar": 1e200}, 3),
    ("sho", {"hbar": 1e308}, 3),
    ("sho", {"hbar": 1e200}, 3),
    ("airy-forced", {"hbar": 1e308}, 3),
    ("airy-forced", {"hbar": 1e200}, 3),
    ("airy-forced", {"hbar": 1e-200}, 3),
    ("sho-timedep-freq", {"hbar": 1e-30}, 2),
    ("sho-timedep-freq", {"mass": 1e30}, 2),
    ("sho", {"hbar": 1e-30}, 2),
    ("sho", {"hbar": 1e-200}, 2),
    ("sho", {"mass": 1e30}, 2),
    ("sho", {"mass": 1e300}, 2),
]


@pytest.mark.parametrize("scenario, constants, code", EXTREME_CONSTANTS, ids=[
    f"{s}-{k}={v:g}" for s, c, _ in EXTREME_CONSTANTS for k, v in c.items()])
def test_extreme_hbar_or_mass_ends_in_a_typed_error(scenario, constants, code, tmp_path,
                                                    capsys, monkeypatch):
    if code == 2:
        # the grid's point budget is checked before any grid is built or
        # step taken
        def not_reached(*args, **kwargs):
            raise AssertionError("ran past the point budget")

        for name in ("Grid1D", "lowest_eigenpairs", "propagate"):
            monkeypatch.setattr(cli.cases, name, not_reached)
    path = tmp_path / "c.json"
    write_json(path, constants)
    start = time.perf_counter()
    assert main(["verify", "--scenario", scenario, "--config", str(path),
                 "--out", str(tmp_path / "v")]) == code
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if code == 2:
        assert "hbar" in err and "mass" in err and "budget" in err


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()
