"""Batch front end: config parsing, experiment orchestration, artifacts.

Config files are flat UTF-8 INI-style sections ([grid], [informed],
[standard], [factor], [run]) with `key = value` lines.  Coefficients are
selected from the registered catalog by name, with parameters given as
dotted keys (`running_cost = constant`, `running_cost.value = 0.25`).
The [run] section may instead name a preset via `model = <name>`, which
fixes both agents, so [informed] and [standard] are then refused; its
solver settings are folded into the model's SolverDefaults.  Command line flags
override config values.  Every run writes its artifacts plus a
manifest echoing the exact configuration and seed, with the package,
Python and numpy versions, the wall time and the process's peak resident
memory; the exit status reflects the command's declared checks only.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ModelError, PriceLabError
from .models import (AFFINE, GENERAL_CONVEX, AgentSpec, MarketModel, ModelBounds,
                     PRESET_NAMES, make_coefficient, preset, validate)
from .sampling import InformedFactorSpec, sample_batch
from .tree import FULL_PREFIX, MARKOV, GridSpec

COMMANDS = ("validate", "solve", "refine", "clearing", "informed")

# [run] keys that are SolverDefaults fields, with their value types
_SOLVER_KEYS = {"samples": int, "tol": float, "max_iter": int, "mode": str, "min_bucket": int}
_RUN_KEYS = {
    "command", "model", "seed", "out_dir", "levels", "n_values", "seeds", "n_scenarios",
    "probe_budget", *_SOLVER_KEYS,
}
_GRID_KEYS = {"n", "l", "m", "T", "L"}
_FACTOR_KEYS = {"kind", "rho"}
_AGENT_KEYS = {"lambda", "weight", "cost_mode",
               "drift", "vol_common", "vol_idio", "running_cost", "terminal_cost"}


@dataclass
class RunSpec:
    command: str
    model: MarketModel
    run: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")


def _parse_sections(path) -> dict:
    sections: dict[str, dict] = {}
    current = None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ConfigError(f"line {lineno}: section [{current}] given twice")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: key {key!r} given twice in section [{current}]")
        sections[current][key] = value
    return sections


def _check_keys(section: str, entries: dict, allowed: set, dotted_roots: set = frozenset()):
    for key in entries:
        base = key.split(".", 1)[0]
        if key in allowed or (base in dotted_roots and "." in key):
            continue
        raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _coefficient_from(section: str, entries: dict, slot_key: str, slot: str, default_name: str):
    """The coefficient named by `slot_key`, with its finite `slot_key.<param>` values."""
    prefix = slot_key + "."
    params = {}
    for key, text in entries.items():
        if key.startswith(prefix):
            try:
                value = float(text)
            except ValueError:
                value = np.nan  # refused below with the non-finite values
            if not np.isfinite(value):
                raise ConfigError(f"[{section}] {key}: expected a finite number, got {text!r}")
            params[key[len(prefix):]] = value
    try:
        return make_coefficient(entries.get(slot_key, default_name), params, slot)
    except ModelError as exc:
        raise ConfigError(f"[{section}] {slot_key}: {exc}")


def _agent_from(section: str, entries: dict, population: str) -> AgentSpec:
    _check_keys(section, entries, _AGENT_KEYS,
                dotted_roots={"drift", "vol_common", "vol_idio", "running_cost", "terminal_cost"})
    cost_mode = entries.get("cost_mode", AFFINE)
    if cost_mode not in (AFFINE, GENERAL_CONVEX):
        raise ConfigError(f"[{section}] cost_mode must be affine or general-convex")
    kwargs = dict(
        population=population,
        lam=float(entries.get("lambda", 1.0)),
        weight=float(entries.get("weight", 0.5)),
        drift=_coefficient_from(section, entries, "drift", "drift", "zero"),
        vol_common=_coefficient_from(section, entries, "vol_common", "vol_common", "zero"),
        vol_idio=_coefficient_from(section, entries, "vol_idio", "vol_idio", "zero"),
        cost_mode=cost_mode,
    )
    if cost_mode == AFFINE:
        kwargs["running_cost"] = _coefficient_from(section, entries, "running_cost", "running_cost_affine", "zero")
        kwargs["terminal_cost"] = _coefficient_from(section, entries, "terminal_cost", "terminal_cost_affine", "zero")
    else:
        f, df = _coefficient_from(section, entries, "running_cost", "running_cost_convex", "tanh-state")
        g, dg = _coefficient_from(section, entries, "terminal_cost", "terminal_cost_convex", "tanh-state")
        kwargs.update(running_cost=f, running_cost_dx=df, terminal_cost=g, terminal_cost_dx=dg)
    try:
        return AgentSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}")


def _preset(name: str) -> MarketModel:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r} (known: {PRESET_NAMES})")
    return preset(name)


def _grid_from(raw: dict, grid: GridSpec, L: float) -> tuple[GridSpec, ModelBounds]:
    """The [grid] values over a base grid and coefficient bound L."""
    try:
        grid = GridSpec(n=int(raw.get("n", grid.n)), l=int(raw.get("l", grid.l)),
                        m=int(raw.get("m", grid.m)), T=float(raw.get("T", grid.T)))
        return grid, ModelBounds(L=float(raw.get("L", L)), T=grid.T)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}")


def _factor_from(raw: dict, factor: InformedFactorSpec) -> InformedFactorSpec:
    """The [factor] values over a base factor law."""
    try:
        return replace(factor, kind=raw.get("kind", factor.kind),
                       rho=float(raw.get("rho", factor.rho)))
    except ValueError as exc:
        raise ConfigError(f"[factor] {exc}")


def _with_solver(model: MarketModel, settings: dict) -> MarketModel:
    """The model with the solver settings that are not None folded in."""
    try:
        return model.with_solver(**{k: _SOLVER_KEYS[k](v) for k, v in settings.items()
                                    if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc))


def _run_settings(run_raw: dict, model: MarketModel) -> dict:
    """The [run] settings other than the solver's: values given in run_raw
    over the one table of run defaults, for config files, `--model` and the
    `--seed`/`--out-dir` flags alike.  `levels` defaults to 1..min(3, n), so
    no default level is deeper than the grid.  The seed must be >= 0, every
    other count >= 1."""
    def ints(key, default, many=False, low=1):
        text = str(run_raw.get(key, default))
        try:
            values = [int(v) for v in text.split(",")] if many else [int(text)]
        except ValueError:
            raise ConfigError(f"[run] {key}: expected integers, got {text!r}")
        if min(values) < low:
            raise ConfigError(f"[run] {key}: expected integers >= {low}, got {text!r}")
        return values if many else values[0]

    levels = ",".join(str(n) for n in range(1, min(3, model.grid.n) + 1))
    return {
        "seed": ints("seed", model.solver.seed, low=0),
        "out_dir": run_raw.get("out_dir", "out"),
        "levels": ints("levels", levels, many=True),
        "n_values": ints("n_values", "8,16,32,64,128,256,512", many=True),
        "seeds": ints("seeds", 5),
        "n_scenarios": ints("n_scenarios", 48),
        "probe_budget": ints("probe_budget", 2000),
    }


def parse_config(path, command: str = None) -> RunSpec:
    """Fully resolved RunSpec with defaults applied.  Unknown sections and
    keys are rejected, and so are [informed] and [standard] beside a preset
    (`model =`), which fixes both agents."""
    sections = _parse_sections(path)
    known = {"grid", "informed", "standard", "factor", "run"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    run_raw = sections.get("run", {})
    _check_keys("run", run_raw, _RUN_KEYS)
    grid_raw = sections.get("grid", {})
    _check_keys("grid", grid_raw, _GRID_KEYS)
    factor_raw = sections.get("factor", {})
    _check_keys("factor", factor_raw, _FACTOR_KEYS)

    preset_name = run_raw.get("model")
    if preset_name:
        for name in ("informed", "standard"):
            if name in sections:
                raise ConfigError(f"section [{name}] cannot be given with [run] model = "
                                  f"{preset_name}: the preset fixes both agents")
        model = _preset(preset_name)
        grid, bounds = _grid_from(grid_raw, model.grid, model.bounds.L)
        model = replace(model, grid=grid, bounds=bounds,
                        factor=_factor_from(factor_raw, model.factor))
    else:
        if "informed" not in sections or "standard" not in sections:
            raise ConfigError("config must name a preset or define [informed] and [standard]")
        grid, bounds = _grid_from(grid_raw, GridSpec(n=2, l=1, m=8, T=1.0), 1.0)
        factor = _factor_from(factor_raw, InformedFactorSpec())
        try:
            model = MarketModel(
                name=Path(path).stem,
                informed=_agent_from("informed", sections["informed"], "I"),
                standard=_agent_from("standard", sections["standard"], "S"),
                grid=grid, factor=factor, bounds=bounds)
        except ValueError as exc:
            raise ConfigError(str(exc))

    model = _with_solver(model, {k: run_raw.get(k) for k in _SOLVER_KEYS})
    cmd = command or run_raw.get("command", "solve")
    return RunSpec(command=cmd, model=model, run=_run_settings(run_raw, model))


def _echo_config(spec: RunSpec) -> dict:
    g, f = spec.model.grid, spec.model.factor
    return {
        "command": spec.command,
        "model": spec.model.name,
        "grid": {"n": g.n, "l": g.l, "m": g.m, "T": g.T, "L": spec.model.bounds.L},
        "factor": {"kind": f.kind, "rho": f.rho},
        "solver": {k: getattr(spec.model.solver, k) for k in _SOLVER_KEYS},
        "run": dict(spec.run),
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process in MB (2^20 bytes): VmHWM from
    /proc/self/status, else ru_maxrss, which on Linux keeps the peak of the
    process this one was started from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB; bytes on macOS
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def run(spec: RunSpec) -> tuple[int, dict]:
    """Execute the command; returns (exit status, manifest)."""
    t0 = time.perf_counter()
    out_dir = Path(spec.run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    artifacts = []
    model = spec.model
    samples = model.solver.samples

    def emit(name: str, writer):
        path = out_dir / name
        writer(path)
        artifacts.append(name)

    if spec.command == "validate":
        lines = []
        for agent in model.agents():
            rep = validate(agent, model.bounds, probe_budget=spec.run["probe_budget"])
            lines.append(rep.summary())
            checks.append({"name": f"assumptions[{agent.population}]", "passed": rep.passed,
                           "detail": f"worst slack {max(c.worst for c in rep.checks):+.3e}"})
        emit("validation.txt", lambda p: p.write_text("\n".join(lines) + "\n", encoding="utf-8"))
    elif spec.command == "solve":
        from .equilibrium import solve_fixed_point
        from .price import price_to_csv
        batch = sample_batch(model.grid, spec.run["seed"], samples, model.factor)
        report = solve_fixed_point(batch, model)
        emit("equilibrium.csv", lambda p: price_to_csv(p, report.price))
        emit("report.txt", lambda p: p.write_text(
            report.summary(bounds=model.bounds) + "\n", encoding="utf-8"))
        C_B = model.bounds.C_B
        sup_ok = (max(report.iterate_sup_price) <= C_B
                  and all(max(d.values()) <= C_B for d in report.iterate_sup_Y))
        checks.append({"name": "converged", "passed": bool(report.converged),
                       "detail": f"map residual {report.residual_trace[-1]:.3e}, tol {report.tol:g}, "
                                 f"{report.iterations} of {model.solver.max_iter} iterations"})
        checks.append({"name": "boundedness C_B", "passed": bool(sup_ok),
                       "detail": f"C_B = {C_B:g}"})
    elif spec.command == "refine":
        from .equilibrium import check_levels, refinement_study
        try:
            levels = check_levels(spec.run["levels"], model.grid.n)
        except ValueError as exc:
            raise ConfigError(str(exc))
        rows_all = []
        ok_seeds = 0
        for k in range(spec.run["seeds"]):
            batch = sample_batch(model.grid, spec.run["seed"] + k, samples, model.factor)
            table = refinement_study(model, levels, batch)
            med = table.medians()
            ok_seeds += int(all(b < a for a, b in zip(med[:-1], med[1:])))
            for row in table.rows:
                rows_all.append((spec.run["seed"] + k, row.pair[0], row.pair[1],
                                 row.median_dm, row.mean_dm))

        def write_refine(p):
            with open(p, "w", encoding="utf-8") as fh:
                fh.write("seed,level_a,level_b,median_dm,mean_dm\n")
                for r in rows_all:
                    fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]:.17g},{r[4]:.17g}\n")

        emit("refinement.csv", write_refine)
        need = max(1, int(0.8 * spec.run["seeds"]))
        checks.append({"name": "median d_M decreasing", "passed": ok_seeds >= need,
                       "detail": f"{ok_seeds}/{spec.run['seeds']} seeds decreasing (need {need})"})
    elif spec.command == "clearing":
        from .equilibrium import solve_fixed_point
        from .market import check_sizes, clearing_report_csv, rate_study
        try:
            check_sizes(spec.run["n_values"], model.informed.weight)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if spec.run["seeds"] * spec.run["n_scenarios"] < 2:
            raise ConfigError("[run] seeds * n_scenarios: a standard error needs >= 2 "
                              "scenarios in all")
        batch = sample_batch(model.grid, spec.run["seed"], samples, model.factor)
        eq = solve_fixed_point(batch, model)
        seeds = [spec.run["seed"] + 1000 + k for k in range(spec.run["seeds"])]
        report = rate_study(eq.price, model, spec.run["n_values"], seeds,
                            n_scenarios=spec.run["n_scenarios"])
        emit("clearing.csv", lambda p: clearing_report_csv(p, report))
        emit("report.txt", lambda p: p.write_text(report.summary() + "\n", encoding="utf-8"))
        checks.append({"name": "residual under 8*T*C_B^2*sum(1/L^2)/N", "passed": bool(report.bound_ok.all()),
                       "detail": f"{int(report.bound_ok.sum())}/{len(report.N_values)} sizes"})
        if report.exact_clearing:
            checks.append({"name": "clearing rate", "passed": True, "detail": "exact clearing"})
        else:
            ok = -1.25 <= report.slope <= -0.75
            checks.append({"name": "clearing rate", "passed": bool(ok),
                           "detail": f"slope {report.slope:.3f}"})
    elif spec.command == "informed":
        from .market import informed_check_csv, informed_inference_check
        batch = sample_batch(model.grid, spec.run["seed"], samples, model.factor)
        result = informed_inference_check(model, batch)
        emit("informed.csv", lambda p: informed_check_csv(p, result, model.grid))
        emit("report.txt", lambda p: p.write_text(result.summary() + "\n", encoding="utf-8"))
        checks.append({"name": "inference identity within 3 bucket SE", "passed": bool(result.passed),
                       "detail": f"max gap {result.max_gap:.3e}"})
    else:  # pragma: no cover - guarded by RunSpec
        raise ConfigError(f"unknown command {spec.command!r}")

    status = 0 if all(c["passed"] for c in checks) else 1
    manifest = {
        "command": spec.command,
        "status": status,
        "seed": spec.run["seed"],
        "checks": checks,
        "artifacts": sorted(artifacts),
        "config": _echo_config(spec),
        "versions": {"mfpricelab": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        "wall_s": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
    }
    # strict JSON: a non-finite value is an error here, not an Infinity in the file
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    return status, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mfpricelab",
                                     description="equilibrium price formation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", type=str, default=None)
        p.add_argument("--mode", type=str, choices=(FULL_PREFIX, MARKOV), default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--model", type=str, default=None,
                       help="preset name when no config file is given")
    args = parser.parse_args(argv)
    flags = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out_dir)) if v is not None}
    try:
        if args.config:
            spec = parse_config(args.config, command=args.command)
            spec.run.update((k, v) for k, v in _run_settings(flags, spec.model).items() if k in flags)
        else:
            model = _preset(args.model or "zero")
            spec = RunSpec(command=args.command, model=model, run=_run_settings(flags, model))
        spec.model = _with_solver(spec.model, {"mode": args.mode, "tol": args.tol,
                                               "max_iter": args.max_iter, "samples": args.samples})
        status, manifest = run(spec)
        for check in manifest["checks"]:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"[{mark}] {check['name']}: {check['detail']}")
        return status
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PriceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
