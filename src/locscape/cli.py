"""Command-line entry points: reproducible runs with CSV/plain-text artifacts.

Every run writes its outputs plus ``run_manifest.json`` recording the resolved
configuration, its hash, the seed, and library versions.  CSV bodies are
deterministic for a fixed config+seed; timestamps only ever appear in the
manifest.  Value precedence: command-line flags > config file > LOCSCAPE_*
environment variables > built-in defaults.

Exit codes: 0 ok, 2 for a `ParameterError` (invalid arguments; a run that wrote nothing
leaves no output directory), 3 for any other `LocscapeError` (a computation that failed on
valid arguments).
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import scipy

from . import __version__, bifurcation, experiments, landscape, runstats
from .errors import LocscapeError, ParameterError
from .operator import BoundaryCondition, assemble
from .potential import DistributionSpec, GridSpec, sample_potential, save_potential
from .regions import zero_components
from .solver import smallest_eigenpairs
from .stochastic import PathConfig, _start, estimate_landscape_mc, probe_points_for


# schema: key -> (type, default); None default means required has a computed fallback;
# list keys name their element type
_POTENTIAL_KEYS = {
    "dim": (int, 1),
    "n_cells": (int, 50),
    "nodes_per_cell": (int, None),        # 8 in 1D, 4 in 2D
    "dist": (str, "bernoulli"),
    "dist_params": (list[float], [0.5]),
}
_BC_KEYS = {"bc": (str, "neumann"), "h": (float, 0.0)}

SCHEMAS = {
    "potential": {**_POTENTIAL_KEYS},
    "solve": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 8000.0), "n_modes": (int, 4)},
    "landscape": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 8000.0)},
    "valleys": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 8000.0)},
    "boundary-prob": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 5e4), "predicate": (str, "boundary")},
    "multimodal-prob": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 3e6)},
    "dist-study": {"h_list": (list[float], [0.01, 1.0]), "dims": (list[int], [1]),
                   "K": (float, 1e4)},
    "fk-check": {**_POTENTIAL_KEYS, **_BC_KEYS, "K": (float, 8000.0), "dt": (float, 2e-5),
                 "n_paths": (int, 10_000), "probes": (list[float], [])},
    "bifurcation": {"L1": (float, bifurcation.REFERENCE_PARAMS.L1), "L2": (float, bifurcation.REFERENCE_PARAMS.L2),
                    "L3": (float, bifurcation.REFERENCE_PARAMS.L3), "L4": (float, bifurcation.REFERENCE_PARAMS.L4),
                    "nodes_per_unit": (int, 3000), "sweep": (bool, True)},
    "scaling": {"axes": (list[str], ["P1", "P2", "P3"]), "n_points": (int, 30),
                "P1": (float, 0.25), "P2": (float, 0.4), "P3": (float, 0.1)},
}


def _env_default(name, cast, fallback):
    raw = os.environ.get(f"LOCSCAPE_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParameterError(f"LOCSCAPE_{name}={raw!r} is not a valid {cast.__name__}") from exc


def _cast(want, value):
    """`value` as type `want`, or None: int and float convert only without loss (a
    boolean is no number), a list element by element."""
    if get_origin(want) is list:
        if not isinstance(value, list):
            return None
        items = [_cast(get_args(want)[0], v) for v in value]
        return None if None in items else items
    if want in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if want is int and isinstance(value, float) and not value.is_integer():
            return None
        return want(value)
    return value if isinstance(value, want) else None


def _checked(command, source, items):
    """Config values from one source, each key known to the schema and of its type."""
    out = {}
    for key, value in items.items():
        if key not in SCHEMAS[command]:
            raise ParameterError(f"unknown {source} key {key!r} for {command}")
        want = SCHEMAS[command][key][0]
        out[key] = _cast(want, value)
        if out[key] is None:
            name = want if get_origin(want) else want.__name__
            raise ParameterError(f"{source} key {key!r} must be {name}")
    return out


def _load_config(command, path, overrides):
    merged = {k: default for k, (_, default) in SCHEMAS[command].items()}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ParameterError(f"config file not found: {path}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object")
        merged.update(_checked(command, "config", data))
    merged.update(_checked(command, "--set", overrides))
    if merged.get("nodes_per_cell") is None and "dim" in merged:
        merged["nodes_per_cell"] = 8 if merged["dim"] == 1 else 4
    return merged


def _grid_dist(cfg):
    grid = GridSpec(cfg["dim"], cfg["n_cells"], cfg["nodes_per_cell"])
    return grid, DistributionSpec(cfg["dist"], tuple(cfg["dist_params"]))


def _problem(cfg, seed):
    """The potential sampled at `seed` and its operator under the configured walls."""
    grid, dist = _grid_dist(cfg)
    fieldv = sample_potential(grid, dist, seed)
    return fieldv, assemble(grid, fieldv, cfg["K"], BoundaryCondition(cfg["bc"], cfg["h"]))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def _manifest(out, command, cfg, seed, trials, threads):
    run = {"command": command, "config": cfg, "seed": seed, "trials": trials, "threads": threads}
    doc = {
        **run,
        "config_sha256": hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest(),
        "versions": {"locscape": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": sys.version.split()[0]},
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "run_manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


# --- subcommand bodies ------------------------------------------------------------

def _cmd_potential(cfg, seed, trials, threads, out):
    grid, dist = _grid_dist(cfg)
    fieldv = sample_potential(grid, dist, seed)
    save_potential(fieldv, out / "potential.txt")


def _cmd_solve(cfg, seed, trials, threads, out):
    _, op = _problem(cfg, seed)
    pairs = smallest_eigenpairs(op, k=cfg["n_modes"])
    ls = landscape.landscape_from_operator(op)
    rows = []
    for j, pair in enumerate(pairs, start=1):
        full = op.embed(pair.mode)
        node = np.unravel_index(np.argmax(np.abs(full)), full.shape)
        cell = " ".join(str(min(c // cfg["nodes_per_cell"], cfg["n_cells"] - 1)) for c in node)
        rows.append((j, pair.eigenvalue, pair.residual, cell, pair.cluster))
    _write_csv(out / "eigenpairs.csv", ["mode", "eigenvalue", "residual", "argmax_cell", "cluster"], rows)
    landscape.save_grid(op.embed(ls.w), out / "landscape.txt")
    modes = np.column_stack([op.embed(p.mode).ravel() for p in pairs])
    with open(out / "modes.txt", "w") as fh:
        for row in modes:
            fh.write(" ".join(f"{v.item()!r}" for v in row) + "\n")


def _cmd_landscape(cfg, seed, trials, threads, out):
    ls = landscape.landscape_from_operator(_problem(cfg, seed)[1])
    landscape.save_grid(ls.op.embed(ls.w), out / "landscape.txt")


def _cmd_valleys(cfg, seed, trials, threads, out):
    fieldv, op = _problem(cfg, seed)
    part = landscape.valley_partition(landscape.landscape_from_operator(op))
    landscape.save_grid(part.labels, out / "valley_labels.txt")
    rows = [(r.id, r.size, r.measure, " ".join("1" if t else "0" for t in r.touches),
             int(r.touches_corner)) for r in part.regions]
    _write_csv(out / "regions.csv", ["region", "nodes", "measure", "touches_sides", "corner"], rows)
    if fieldv.is_binary:
        comp = zero_components(fieldv)
        landscape.save_grid(comp.labels, out / "zero_component_labels.txt")


def _cmd_ensemble(cfg, seed, trials, threads, out):
    predicate = cfg.get("predicate", "multimodal")     # multimodal-prob has no predicate key
    grid, dist = _grid_dist(cfg)
    bc = BoundaryCondition(cfg["bc"], cfg["h"])
    spec = experiments.ExperimentSpec(grid, dist, cfg["K"], bc, trials, seed, predicate)
    spec_hash = hashlib.sha256(repr(spec).encode()).hexdigest()[:16]
    analytic = float("nan")
    # the boundary series model reflective walls; the multimodal ones absorbing or reflective walls
    walls = ("neumann", "robin") if predicate == "boundary" else ("dirichlet", "neumann", "robin")
    if grid.dim == 1 and dist.kind == "bernoulli" and bc.kind in walls:
        try:
            model = runstats.RunModel(dist.params[0], grid.cells_per_side)
            if predicate == "boundary":
                analytic = runstats.boundary_localization_prob(model)
            else:
                analytic = (runstats.multimodal_prob_dirichlet(model) if bc.kind == "dirichlet"
                            else runstats.multimodal_prob_neumann(model))
        except ParameterError:
            pass   # the run model is undefined: p in {0, 1}, or too few zero runs for the series
    est, records = experiments.run_ensemble(spec, workers=threads)
    _write_csv(out / "trials.csv", ["trial", "seed", "eigenvalue", "hit", "failed"],
               [(r.trial, r.seed, r.eigenvalue, int(r.hit), int(r.failed)) for r in records])
    _write_csv(out / "summary.csv",
               ["spec_hash", "predicate", "p_hat", "ci_low", "ci_high",
                "n_trials", "n_hits", "n_failures", "analytic"],
               [(spec_hash, predicate, est.p_hat, est.ci_low, est.ci_high,
                 est.n_trials, est.n_hits, est.n_failures, analytic)])


def _cmd_dist_study(cfg, seed, trials, threads, out):
    rows = experiments.distribution_study(cfg["h_list"], dims=tuple(cfg["dims"]),
                                          K=cfg["K"], n_trials=trials, seed=seed,
                                          workers=threads)
    table = []
    for r in rows:
        corner = r.corner.p_hat if r.corner is not None else float("nan")
        table.append((r.dim, r.kind, r.sigma, r.h, r.boundary.p_hat,
                      r.boundary.ci_low, r.boundary.ci_high, corner))
    _write_csv(out / "dist_study.csv",
               ["dim", "dist", "sigma", "h", "p_boundary", "ci_low", "ci_high", "p_corner"],
               table)


def _cmd_fk_check(cfg, seed, trials, threads, out):
    pcfg = PathConfig(dt=cfg["dt"], n_paths=cfg["n_paths"], seed=seed)
    fieldv, op = _problem(cfg, seed)
    probes = np.asarray(cfg["probes"]) if cfg["probes"] else probe_points_for(fieldv)
    for x in probes:                        # probes and walls are checked before the solve
        _start(x, op.dim, op.bc)
    # a probe x starts the walk at (x, ..., x): read w at the lattice node nearest it
    fd = landscape._probe_values(landscape.landscape_from_operator(op),
                                 np.repeat(probes[:, None], op.dim, axis=1))
    rows = []
    for x, w in zip(probes, fd):
        est = estimate_landscape_mc(x, fieldv, cfg["K"], op.bc, pcfg)
        # a standard error of 0 (every path alike) measures no agreement
        dev = (est.mean - w) / est.std_error if est.std_error else float("nan")
        rows.append((x, est.mean, est.std_error, w, dev, est.n_truncated))
    _write_csv(out / "fk_check.csv",
               ["probe_x", "mc_mean", "mc_std_error", "fd_landscape", "deviation_sigmas",
                "n_truncated"], rows)


def _cmd_bifurcation(cfg, seed, trials, threads, out):
    params = bifurcation.TwoWellParams(cfg["L1"], cfg["L2"], cfg["L3"], cfg["L4"])
    cp = bifurcation.critical_point(params)
    rows = [("analytic", cp.K_c, cp.lambda_c)]
    sweep_rows = []
    if cfg["sweep"]:
        sw = bifurcation.critical_coupling_sweep(params, nodes_per_unit=cfg["nodes_per_unit"])
        rows.append(("sweep", sw.K_c, float("nan")))
        rows.append(("relative_gap", abs(sw.K_c - cp.K_c) / sw.K_c, float("nan")))
        sweep_rows = list(zip(sw.K_grid, sw.ratios))
    _write_csv(out / "critical.csv", ["quantity", "K", "lambda"], rows)
    if sweep_rows:
        _write_csv(out / "sweep.csv", ["K", "peak_height_ratio"], sweep_rows)


def _cmd_scaling(cfg, seed, trials, threads, out):
    base = bifurcation.ShapeRatios(cfg["P1"], cfg["P2"], cfg["P3"])
    # every axis is fitted before any file is written, so a rejected axis leaves no output
    fits = [bifurcation.scaling_study(axis, n_points=cfg["n_points"], seed=seed, base=base)
            for axis in cfg["axes"]]
    summary = []
    for fit in fits:
        _write_csv(out / f"scaling_{fit.axis}.csv", ["P", "K_c"], list(fit.samples))
        summary.append((fit.axis, fit.model, fit.slope, fit.intercept, fit.r2,
                        len(fit.samples), len(fit.skipped)))
    _write_csv(out / "regression_summary.csv",
               ["axis", "model", "slope", "intercept", "r2", "n_fit", "n_skipped"], summary)


_COMMANDS = {
    "potential": _cmd_potential,
    "solve": _cmd_solve,
    "landscape": _cmd_landscape,
    "valleys": _cmd_valleys,
    "boundary-prob": _cmd_ensemble,
    "multimodal-prob": _cmd_ensemble,
    "dist-study": _cmd_dist_study,
    "fk-check": _cmd_fk_check,
    "bifurcation": _cmd_bifurcation,
    "scaling": _cmd_scaling,
}


@functools.cache            # built on first use, so importing the CLI does not pay for it
def _parser():
    ap = argparse.ArgumentParser(prog="locscape",
                                 description="Localization-landscape experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (JSON-encoded value)")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    created = []
    try:
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ParameterError(f"--set needs KEY=VALUE, got {item!r}")
            key, _, raw = item.partition("=")
            try:
                overrides[key] = json.loads(raw)
            except json.JSONDecodeError:
                overrides[key] = raw
        cfg = _load_config(args.command, args.config, overrides)
        seed = args.seed if args.seed is not None else _env_default("SEED", int, 0)
        trials = args.trials if args.trials is not None else _env_default("TRIALS", int, 200)
        threads = args.threads if args.threads is not None else _env_default(
            "THREADS", int, os.cpu_count() or 1)
        if trials < 1 or threads < 1:
            raise ParameterError(f"trials and threads must be >= 1, got {trials} and {threads}")
        out = Path(args.out if args.out is not None else _env_default("OUT", str, "locscape-out"))
        created = [d for d in (out, *out.parents) if not d.exists()]   # deepest first
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, seed, trials, threads, out)
        _manifest(out, args.command, cfg, seed, trials, threads)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        for d in created:   # a run that wrote nothing leaves no directory behind
            if any(d.iterdir()):
                break
            d.rmdir()
        return 2
    except LocscapeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
