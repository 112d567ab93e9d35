"""Tests of the benchmark harness itself (generator, spans, check gate)."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from spans import Aggregate, SpanRecorder, rebind, self_times
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# config keys `nswp verify` reads for each scenario (cli._run_scenario and
# cmd_verify); any other key is accepted but ignored
HONOURED = {
    "sho": {"scenario", "mode_index", "amplitude", "omega", "hbar", "mass"},
    "airy-forced": {"scenario", "force_kind", "force_amp", "force_freq", "B",
                    "hbar", "mass"},
    "sho-timedep-freq": {"scenario", "modulation"},
}


# --- seeded generator -------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    for seed in (0, 1, 7, 123456):
        assert generate(w, seed) == generate(w, seed)
    assert generate(w, 1)[1] != generate(w, 2)[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_zero_is_cli_defaults_and_draws_stay_in_range(name):
    w = WORKLOADS[name]
    params, _ = generate(w, 0)
    assert params == {p.flag: p.default for p in w.params}
    for seed in range(1, 50):
        params, _ = generate(w, seed)
        for p in w.params:
            assert p.low <= params[p.flag] <= p.high


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_argv_uses_only_honoured_keys(name, tmp_path):
    from nswp import cli
    w = WORKLOADS[name]
    for seed in (0, 3):
        _, argv = generate(w, seed)
        args = cli.build_parser().parse_args(["verify", *argv, "--out", str(tmp_path)])
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config", "out")}
        config = cli._load_config("verify", None, overrides)
        assert config["scenario"] == w.scenario
        assert set(config) <= HONOURED[w.scenario]
        assert len(config) == 1 + len(w.fixed) // 2 + len(w.params)


# --- spans and self time ----------------------------------------------------

def test_self_times_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 2],
        ["c", 7.0, 7.5, 2],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 3.5, 0]]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_inclusive_time_does_not_double_count_recursion():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["f", 1.0, 9.0, 0],
        ["g", 2.0, 8.0, 1],
        ["f", 3.0, 5.0, 2],
    ]
    agg = Aggregate(spans)
    assert agg.calls["f"] == 2
    assert agg.inclusive_s["f"] == pytest.approx(8.0)
    assert agg.self_s["f"] == pytest.approx((8.0 - 6.0) + 2.0)
    assert agg.total_self_s == pytest.approx(10.0)


def test_recorder_nests_spans_and_counts():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    counted = rec.counted("evals", lambda x: x)
    assert rec.call("root", lambda: outer(1) + counted(0) + counted(0)) == 4
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["root", "outer", "inner"]
    assert parents == [-1, 0, 1]
    assert rec.counts["evals"] == 2
    assert all(s[1] < s[2] for s in rec.spans)


def test_rebind_replaces_every_binding(monkeypatch):
    def fn():
        return 1

    pkg = types.ModuleType("fakepkg")
    pkg.fn = fn
    sub = types.ModuleType("fakepkg.sub")
    sub.alias = fn
    other = types.ModuleType("otherpkg")
    other.fn = fn
    for mod in (pkg, sub, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    done = rebind(fn, "wrapped", "fakepkg")
    assert sorted(done) == ["fakepkg.fn", "fakepkg.sub.alias"]
    assert pkg.fn == sub.alias == "wrapped"
    assert other.fn is fn


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [["cli.main", 0.0, 2.0, -1], ["propagator.propagate", 0.5, 1.5, 0]]
    metrics, self_sum, wall = layers.layer_metrics(spans, {"propagator.steps": 10}, 1.0)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["propagator.step_us"] == pytest.approx(1e5)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0)
    assert self_sum == pytest.approx(wall) == pytest.approx(2.0)


# --- check gate -------------------------------------------------------------

def _check(name, value, tol, passed=True):
    return {"name": name, "value": value, "tolerance": tol, "pass": passed}


def test_worst_check_ratio_both_directions():
    below = _check("shape_deviation", 2e-4, 5e-4)
    exceed = _check("spread_detected_with_static_control", 0.2, 1e-2)
    assert run.check_ratio(below) == pytest.approx(0.4)
    assert run.check_ratio(exceed) == pytest.approx(0.05)
    assert run.worst_check_ratio([below, exceed]) == pytest.approx(0.4)
    weak = _check("spread_detected_with_static_control", 5e-3, 1e-2, passed=False)
    assert run.worst_check_ratio([below, weak]) == pytest.approx(2.0)
    assert run.check_ratio(_check("spread_detected_with_static_control", 0.0, 1e-2,
                                  False)) == math.inf
    assert math.isnan(run.worst_check_ratio([]))


def test_passing_check_on_failing_side_is_flagged():
    checks = [_check("renamed_control", 0.2, 1e-2), _check("ok", 1e-5, 1e-4)]
    assert run.check_direction_errors(checks) == ["renamed_control"]


def test_nonzero_exit_counts_every_check_failed():
    checks = [_check("a", 1e-5, 1e-4), _check("b", 2e-4, 1e-4, passed=False)]
    assert run.failed_checks(0, checks, 10, True) == 1
    assert run.failed_checks(1, checks, 10, True) == 2
    assert run.failed_checks(3, [], 10, True) == 10
    assert run.failed_checks(0, checks, 10, consistent=False) == 2


def test_printed_values_are_compared_with_report():
    checks = [_check("shape_deviation", 6.500994e-05, 5e-4),
              _check("spread_detected_with_static_control", 0.1729462, 1e-2)]
    out = ("[PASS] shape_deviation: 6.501e-05 (tol 5.0e-04)\n"
           "[PASS] spread_detected_with_static_control: 1.729e-01 (tol 1.0e-02)\n")
    assert run.printed_mismatches(out, checks) == []
    assert run.worst_check_ratio(run.printed_checks(out)) == pytest.approx(6.501e-5 / 5e-4)
    assert run.printed_mismatches(out.replace("6.501e-05", "6.601e-05"), checks) \
        == ["shape_deviation"]
    assert run.printed_mismatches(out.splitlines()[0], checks) \
        == ["<check count>", "spread_detected_with_static_control"]


# --- processes ----------------------------------------------------------------

def test_traced_child_spans_add_up(tmp_path):
    """A traced `verify --scenario gaussian-control` in a child process."""
    out = tmp_path / "child.json"
    env = run._child_env()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(out), "0.0",
         str(tmp_path / "v"), "--scenario", "gaussian-control"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["exit_code"] == 0
    assert {"nswp.cases.analytic_psi", "nswp.constructor.analytic_psi",
            "nswp.cases.propagate"} <= set(result["bindings"])
    spans, counts = result["trace"]["spans"], result["trace"]["counts"]
    metrics, self_sum, wall = layers.layer_metrics(spans, counts, result["wall_s"])
    assert metrics["propagator.steps"] == 2000
    assert metrics["propagator.snapshots"] == 11
    assert metrics["grids.observables.calls"] == 11 + 11
    assert self_sum == pytest.approx(wall, rel=1e-9)
    assert wall == pytest.approx(result["wall_s"], rel=1e-3)


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sho-swing", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
