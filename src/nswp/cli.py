"""Command-line driver: eigen, construct, propagate, verify, reproduce.

Configuration is a flat key-value JSON file plus flag overrides (flags
win); unknown keys are rejected before any computation. Every output
directory receives a manifest.json sufficient to re-run the job, and all
numbers are emitted deterministically (no timestamps, sorted keys), so a
repeated run produces bit-identical files.

Exit codes: 0 ok, 1 verification failure, 2 bad config, 3 numerical failure
(an ``ArithmeticError`` or ``MemoryError`` included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cases
from .constructor import analytic_psi, v_nswp
from .eigensolver import StaticPotential, lowest_eigenpairs, write_eigenpair
from .errors import (AccuracyError, ConfigurationError, ConvergenceError,
                     NswpError, RangeError)
from .grids import Grid1D, write_csv, write_json, write_wavefield_csv

# value type of each config key; every key not listed takes a float
_TYPES = {"potential": str, "scenario": str, "force_kind": str, "k": int,
          "mode_index": int, "n_points": int, "times": list, "write_snapshots": bool}


def _finite(t) -> bool:
    """``t`` is an int or float, not a bool, with a finite float value."""
    try:
        return not isinstance(t, bool) and math.isfinite(t)
    except (TypeError, OverflowError):
        return False


def _typed(key: str, value):
    """``value`` if it has ``key``'s type; a float, or each number of a
    list, must be finite (an int also passes as a float)."""
    kind = _TYPES.get(key, float)
    if kind is float:
        ok = _finite(value)
    elif kind is list:
        ok = isinstance(value, list) and all(map(_finite, value))
    else:
        ok = isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
    if not ok:
        what = {float: "finite float", list: "list of finite numbers"}.get(kind, kind.__name__)
        raise ConfigurationError(f"bad value for '{key}': {value!r} is not a {what}")
    return float(value) if kind is float else value


def _scenario(command: str, config: dict) -> cases.Scenario:
    """The table entry ``config`` names; raises unless it takes every key."""
    name = config.get("scenario", "sho")
    entry = cases.SCENARIOS.get(name)
    if entry is None or (command == "construct" and entry.case is None) \
            or (command == "propagate" and not entry.propagates):
        raise ConfigurationError(f"'{command}' has no scenario '{name}'")
    ignored = sorted(set(config) - entry.config_keys - {"scenario", "times", "write_snapshots"})
    if ignored:
        raise ConfigurationError(f"scenario '{name}' does not take {ignored}")
    return entry


def _load_config(command: str, path: str | None, overrides: dict) -> dict:
    config = {}
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        config.update(loaded)
    config.update({k: v for k, v in overrides.items() if v is not None})
    known = set(vars(build_parser().parse_args([command]))) - {"command", "config", "out"}
    if "scenario" in known:
        # grid keys, hbar and mass reach the scenarios through --config only
        known |= {*cases.GRID_KEYS, "hbar", "mass"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys for '{command}': {unknown}")
    config = {k: _typed(k, v) for k, v in config.items()}
    if "scenario" in known:
        _scenario(command, config)
    return config


def cmd_eigen(config: dict, out: Path) -> int:
    kind = config.get("potential", "harmonic")
    consts = cases.consts_from(config)
    if kind == "harmonic":
        v = StaticPotential.harmonic(config.get("omega", 1.0), consts.mass)
        default_grid, other = Grid1D(-12.0, 12.0, 256), "lam"
    elif kind == "quartic":
        v = StaticPotential.quartic(config.get("lam", 1.0))
        default_grid, other = Grid1D(-8.0, 8.0, 256), "omega"
    else:
        raise ConfigurationError(
            f"potential '{kind}' not supported by eigen (linear has a "
            "continuous spectrum; use the airy scenarios)"
        )
    if other in config:
        raise ConfigurationError(f"potential '{kind}' does not take '{other}'")
    grid = cases.grid_from(config, default_grid)
    k = config.get("k", 3)
    pairs = lowest_eigenpairs(v, grid, consts, k)
    out.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        write_eigenpair(pair, out / f"mode_{pair.index}.csv", out / f"mode_{pair.index}.json")
    write_json(out / "energies.json", {
        "potential": kind, "params": v.params,
        "energies": [p.energy for p in pairs],
        "residuals": [p.residual for p in pairs],
    })
    write_json(out / "manifest.json", {"command": "eigen", "config": config})
    print(f"wrote {k} modes to {out}")
    return 0


def cmd_construct(config: dict, out: Path) -> int:
    entry = _scenario("construct", config)
    kwargs = entry.kwargs(config)
    times = [float(t) for t in config.get("times", [0.0, 0.5, 1.0])]
    if not times or min(times) < 0.0:
        raise RangeError(f"construct needs one or more times >= 0, got {times}")
    # the phi0 cache horizon, as the runs size it from their t_end
    case = entry.case(**kwargs, t_max=max(times) + 1.0)
    sol, v = case.sol, case.v
    grid, consts = kwargs["grid"], kwargs["consts"]
    out.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(times):
        write_wavefield_csv(analytic_psi(sol, grid, t), out / f"psi_{i:03d}.csv")
        write_csv(out / f"vnswp_{i:03d}.csv", ("x", "v"), grid.x, v_nswp(sol, v, grid.x, t))
    ts = np.asarray(times)
    write_csv(out / "phase_table.csv", ("t", "phi1", "phi0"), ts, sol.phi1(ts), sol.phi0(ts))
    write_json(out / "manifest.json", {
        "command": "construct", "config": config,
        "E_f": sol.E_f, "gauge": sol.gauge.kind, "trajectory": sol.trajectory.kind,
        "hbar": consts.hbar, "mass": consts.mass, "times": times,
    })
    print(f"wrote {len(times)} snapshots to {out}")
    return 0


def _run(command: str, config: dict) -> cases.ScenarioResult:
    entry = _scenario(command, config)
    return entry.run(**entry.kwargs(config))


def cmd_propagate(config: dict, out: Path) -> int:
    result = _run("propagate", config)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", result.report.to_dict())
    if config.get("write_snapshots", False):
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for i, psi in enumerate(result.report.snapshots):
            write_wavefield_csv(psi, snap_dir / f"snapshot_{i:04d}.csv")
    write_json(out / "manifest.json", {"command": "propagate", "config": config,
                                       "scenario_extras": result.extras})
    print(f"propagated scenario '{result.name}'; report in {out}")
    return 0


def cmd_verify(config: dict, out: Path) -> int:
    payload = _run("verify", config).to_dict()
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", payload)
    write_json(out / "manifest.json", {"command": "verify", "config": config})
    for check in payload["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['value']:.3e} (tol {check['tolerance']:.1e})")
    if not payload["pass"]:
        failing = [c["name"] for c in payload["checks"] if not c["pass"]]
        print(f"verification failed: {failing}", file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(config: dict, out: Path) -> int:
    """Verify every scenario of the table with its defaults."""
    summary = {}
    all_ok = True
    out.mkdir(parents=True, exist_ok=True)
    for scenario in cases.SCENARIOS:
        name = scenario.replace("-", "_")
        code = cmd_verify({"scenario": scenario}, out / name)
        summary[name] = {"exit_code": code, "pass": code == 0}
        all_ok &= code == 0
    write_json(out / "report.json", {"command": "reproduce", "scenarios": summary,
                                     "pass": all_ok})
    print(f"reproduce: {'all scenarios pass' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


_COMMANDS = {"eigen": cmd_eigen, "construct": cmd_construct, "propagate": cmd_propagate,
             "verify": cmd_verify, "reproduce": cmd_reproduce}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nswp",
        description="Construct and verify nonspreading wave packets in 1-D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key-value JSON config file")
        p.add_argument("--out", default="nswp_out", help="output directory")

    p = sub.add_parser("eigen", help="bound states of a static potential")
    add_common(p)
    p.add_argument("--potential", choices=["harmonic", "quartic"])
    p.add_argument("--omega", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--k", type=int)
    for name in ("x-min", "x-max"):
        p.add_argument(f"--{name}", type=float, dest=name.replace("-", "_"))
    p.add_argument("--n-points", type=int)
    p.add_argument("--hbar", type=float)
    p.add_argument("--mass", type=float)

    for cmd in ("construct", "propagate", "verify"):
        p = sub.add_parser(cmd)
        add_common(p)
        p.add_argument("--scenario")
        p.add_argument("--n", type=int, dest="mode_index",
                       help="SHO mode index")
        p.add_argument("--amplitude", type=float)
        p.add_argument("--omega", type=float)
        p.add_argument("--B", type=float)
        p.add_argument("--force-kind", dest="force_kind",
                       choices=["none", "const", "sin"])
        p.add_argument("--force-amp", type=float, dest="force_amp")
        p.add_argument("--force-freq", type=float, dest="force_freq")
        if cmd == "construct":
            p.add_argument("--times", type=float, nargs="+")
        if cmd == "propagate":
            p.add_argument("--dt", type=float)
            p.add_argument("--t-end", type=float, dest="t_end")
            p.add_argument("--write-snapshots", action="store_const", const=True,
                           dest="write_snapshots")
        if cmd == "verify":
            p.add_argument("--modulation", type=float)

    p = sub.add_parser("reproduce", help="run all closed-form families and controls")
    add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "out")}
    out = Path(args.out)
    try:
        config = _load_config(args.command, args.config, overrides)
        # a floating-point fault raises FloatingPointError, an ArithmeticError;
        # underflow stays quiet (Ai's e^-zeta rounds to 0 far to the right)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](config, out)
    except (ConfigurationError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, MemoryError) as exc:
        # an overflow, a division by zero or an allocation too large: a
        # finite config value (hbar, mass, ...) past what the numerics resolve
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except NswpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
