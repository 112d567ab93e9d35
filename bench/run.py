"""nswp benchmark harness.

    python3 bench/run.py --workload sho-swing --seed 0 --seconds 38 --trace 0

Run from the root of a checkout. Every repetition is a fresh Python process
(``bench/child.py``) with BLAS/OpenMP threads pinned to 1, one process at a
time, that calls ``nswp.cli.main(["verify", ...])`` and writes a
``report.json``. Repetitions of the seed's argv continue until ``--seconds``
would be exceeded (at least MIN_REPS untraced, or one untraced/traced pair
with ``--trace 1``); reported times are medians over repetitions. Every
report must be byte-identical across repetitions, and the check values it
holds are gated and stored beside the metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (checks attempted and failed over all repetitions) and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The full result (check values,
samples, environment) goes to ``.bench_out/`` in the checkout.
``--workload all`` runs every workload and prints one table each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
THREAD_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}

# Checks of the benchmarked scenarios that pass by exceeding their tolerance
# (negative controls). Every passing check is also tested against its
# direction, so a renamed control shows up as an inconsistency rather than a
# silently inverted ratio.
MUST_EXCEED = {"spread_detected_with_static_control"}
_PRINTED = re.compile(r"^\[(PASS|FAIL)\] (\S+): (\S+) \(tol (\S+)\)$")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, child crashed, ...)."""


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_ratio(check: dict) -> float:
    """value/tolerance, or tolerance/value for a must-exceed check; < 1 passes."""
    value, tol = float(check["value"]), float(check["tolerance"])
    if check["name"] in MUST_EXCEED:
        return tol / value if value > 0 else math.inf
    return value / tol


def worst_check_ratio(checks: list) -> float:
    return max((check_ratio(c) for c in checks), default=math.nan)


def check_direction_errors(checks: list) -> list:
    """Names of passing checks whose value lies on the failing side."""
    return [c["name"] for c in checks if c["pass"] and not check_ratio(c) < 1.0]


def failed_checks(exit_code: int, checks: list, n_expected: int, consistent: bool) -> int:
    """Checks that count as failed for one verify run.

    A run that exits non-zero, or whose report disagrees with the others,
    counts every check as failed; with no report, the workload's count.
    """
    if exit_code != 0 or not consistent:
        return len(checks) if checks else n_expected
    return sum(1 for c in checks if not c["pass"])


def printed_checks(stdout: str) -> list:
    """The checks `nswp verify` prints, as report.json-style dicts."""
    checks = []
    for line in stdout.splitlines():
        m = _PRINTED.match(line.strip())
        if m:
            checks.append({"name": m.group(2), "value": float(m.group(3)),
                           "tolerance": float(m.group(4)), "pass": m.group(1) == "PASS"})
    return checks


def printed_mismatches(stdout: str, checks: list) -> list:
    """Checks whose printed value (4 digits), tolerance (2 digits) or status
    disagrees with report.json."""
    printed = {c["name"]: c for c in printed_checks(stdout)}
    bad = [] if len(printed) == len(checks) else ["<check count>"]
    for c in checks:
        p = printed.get(c["name"])
        if (p is None or p["pass"] != c["pass"]
                or not math.isclose(p["value"], c["value"], rel_tol=6e-4, abs_tol=1e-300)
                or not math.isclose(p["tolerance"], c["tolerance"], rel_tol=5e-2)):
            bad.append(c["name"])
    return bad


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(mode: str, work: Path, extra: list) -> tuple[dict, str]:
    """Run one child; returns (its result json, its stdout)."""
    out_json = work / f"child-{time.monotonic_ns()}.json"
    env = _child_env()
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(CHILD), mode, str(out_json), repr(t_spawn),
                           *extra], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out_json.exists():
        raise BenchError(f"child '{mode}' exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out_json) as fh:
        result = json.load(fh)
    out_json.unlink()
    src = str((ROOT / "src").resolve())
    if not str(Path(result["nswp_file"]).resolve()).startswith(src + os.sep):
        raise BenchError(f"child imported nswp from {result['nswp_file']}, not {src}")
    return result, proc.stdout


def _verify(mode: str, work: Path, argv: list, n_expected: int) -> dict:
    run_dir = work / "verify"
    shutil.rmtree(run_dir, ignore_errors=True)
    result, stdout = _spawn(mode, work, [str(run_dir), *argv])
    report = run_dir / "report.json"
    rep = {"mode": mode, "exit_code": result["exit_code"], "wall_s": result["wall_s"],
           "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
           "stdout": stdout, "digest": None, "checks": [], "trace": result.get("trace"),
           "bindings": result.get("bindings"), "versions": result["versions"]}
    if report.exists():
        data = report.read_bytes()
        rep["digest"] = hashlib.sha256(data).hexdigest()
        rep["checks"] = json.loads(data)["checks"]
    rep["n_checks"] = len(rep["checks"]) or n_expected
    return rep


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _number(x):
    return x if x is None or math.isfinite(x) else None


def _repeat(workload, argv: list, seconds: float, trace: bool) -> tuple[list, list]:
    """Verify repetitions (untraced, or untraced/traced pairs) until the next
    would end after ``seconds``; returns them and the setup_s samples."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        reps = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            reps.append(_verify("verify", work, argv, workload.n_checks))
            if trace:
                reps.append(_verify("trace", work, argv, workload.n_checks))
            last = time.perf_counter() - t0
            if any(r["exit_code"] != 0 for r in reps):
                break
            untraced = sum(r["mode"] == "verify" for r in reps)
            if (trace or untraced >= MIN_REPS) and \
                    time.perf_counter() - start + last > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(_spawn("import", work, [])[0]["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reps, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    params, argv = generate(workload, seed)
    reps, setups = _repeat(workload, argv, seconds, trace)

    # correctness: identical reports, printed values match, directions hold
    problems = []
    digests = {r["digest"] for r in reps}
    first = reps[0]
    for r in reps:
        consistent = r["digest"] is not None and r["digest"] == first["digest"]
        mism = printed_mismatches(r["stdout"], r["checks"])
        wrong_side = check_direction_errors(r["checks"])
        if mism:
            problems.append(f"{r['mode']} run: printed values differ from report.json: {mism}")
        if wrong_side:
            problems.append(f"{r['mode']} run: passing checks on the failing side: {wrong_side}")
        if r["exit_code"] != 0:
            problems.append(f"{r['mode']} run exited {r['exit_code']}")
        r["failed"] = failed_checks(r["exit_code"], r["checks"], r["n_checks"],
                                    consistent and not mism and not wrong_side)
    if len(digests) != 1:
        problems.append(f"report.json differs between repetitions: {sorted(map(str, digests))}")
    attempted = sum(r["n_checks"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    untraced = [r for r in reps if r["mode"] == "verify"]
    wall = statistics.median(r["wall_s"] for r in untraced)
    checks = [dict(c, ratio=_number(check_ratio(c)),
                   direction="exceed" if c["name"] in MUST_EXCEED else "below")
              for c in first["checks"]]
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "check_pass_frac": 1.0 - failed / attempted,
        "worst_check_ratio": _number(worst_check_ratio(first["checks"])),
    }
    result = {
        "workload": name, "seed": seed, "params": params, "verify_argv": argv,
        "trace": trace, "problems": problems,
        "attempted": attempted, "failed": failed, "check_fail_frac": failed / attempted,
        "worst_check_ratio_printed":
            _number(worst_check_ratio(printed_checks(first["stdout"]))),
        "checks": checks, "report_sha256": first["digest"],
        "end_to_end": end_to_end,
        "samples": {"wall_s": [r["wall_s"] for r in untraced], "setup_s": setups,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
                    "traced_wall_s": [r["wall_s"] for r in reps if r["mode"] == "trace"]},
        "environment": {
            **first["versions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
            "git_commit": _git_commit(), "seed": seed,
        },
    }

    if trace:
        from layers import layer_metrics
        per_rep, balance = [], []
        for r in reps:
            if r["mode"] == "trace":
                m, self_sum, traced_wall = layer_metrics(r["trace"]["spans"],
                                                         r["trace"]["counts"], wall)
                per_rep.append(m)
                balance.append({"span_self_sum_s": self_sum, "traced_wall_s": traced_wall})
                if not math.isclose(self_sum, traced_wall, rel_tol=1e-9):
                    problems.append(f"span self times sum to {self_sum}, not {traced_wall}")
        # median_low keeps counts whole when there is an even number of traced runs
        result["per_layer"] = {k: statistics.median_low(m[k] for m in per_rep)
                               for k in per_rep[0]}
        result["self_time_balance"] = balance
        result["bindings"] = next(r["bindings"] for r in reps if r["mode"] == "trace")

    result["correct"] = not problems and failed == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = result["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics in BENCHMARK.json not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    return result


def _print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  argv: verify "
          f"{' '.join(result['verify_argv'])}")
    for c in result["checks"]:
        print(f"   check {c['name']:<40} {c['value']:.6e}  tol {c['tolerance']:.1e}  "
              f"ratio {c['ratio']}  {'PASS' if c['pass'] else 'FAIL'}")
    print(f"   check_fail_frac {result['check_fail_frac']}  "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']!r:>24} {m['unit']}")
    for p in result["problems"]:
        print(f"   PROBLEM: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "nswp" / "cli.py").is_file():
            raise BenchError(f"no nswp source tree at {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
                   for n in names]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        path = OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        _print_table(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
