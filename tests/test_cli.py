import json
import math

import numpy as np
import pytest

from nswp.cli import main

from test_eigensolver import QUARTIC_E0


def read_json(path):
    return json.loads(path.read_text())


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
