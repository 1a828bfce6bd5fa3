"""The benchmark's workloads: the CLI calls each one makes and the checks on their outputs.

Every CLI ``--seed`` is derived from the workload seed ``s`` as ``base + SEED_STRIDE * s``.
``base`` is the seed the matching acceptance criterion uses, so workload seed 0 replays the
criterion configurations (including the degenerate-cluster failure of trial 150 of the
Dirichlet multimodal ensemble at CLI seed 2718).  Ensemble trial and walk path ``i``
draw from ``cli_seed ^ i``; a stride of 2**14 keeps the streams of different workload seeds
disjoint for up to 16,384 trials or paths per call.

The checks only read files the CLI wrote and rebuild what they compare against from the
benchmark's own inputs.  They run outside the timed body.
"""

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SEED_STRIDE = 1 << 14
P_HAT_SIGMAS = 5.0        # |p_hat - analytic| allowance, in binomial standard errors
FK_MAX_SIGMAS = 7.0       # |deviation_sigmas| allowance; the default call gives at most 1.04,
                          # the absorbing-wall probe at most 1.83 over workload seeds 6-13
EIG_RTOL = 1e-7           # CSV eigenvalue against a dense solve of the re-assembled pencil
SPOT_CHECKS = 2           # 1D trials per ensemble call re-solved densely
# Criterion 8 (tests/test_acceptance.py): axis -> (expected slope, allowed |deviation|)
SCALING_BOUNDS = {"P1": (-2.0, 0.1), "P2": (-23.2, 0.15 * 23.2), "P3": (-1.7, 0.15)}
SCALING_MIN_R2 = {"P1": 0.99}

# Names of the layer metrics (see tracing.py) that must record calls on each workload.
REQUIRED_LAYERS = {
    "ensemble-1d": ["cli.main", "experiments.run_trial", "potential.sample_potential",
                    "rng.stream", "operator.assemble", "solver.smallest_eigenpairs",
                    "solver.solve_linear", "landscape.landscape_from_operator",
                    "landscape.valley_partition", "runstats.closed_form"],
    "twowell": ["cli.main", "rng.stream", "operator.assemble_ring", "solver.smallest_eigenpairs",
                "bifurcation.critical_point", "bifurcation.subsystem_ground_energy",
                "bifurcation.characteristic", "bifurcation.critical_coupling_sweep",
                "bifurcation.toy_operator"],
    "walk": ["cli.main", "rng.stream", "potential.sample_potential", "operator.assemble",
             "solver.solve_linear", "landscape.landscape_from_operator",
             "stochastic.estimate_landscape_mc"],
}

WORK_UNITS = {"ensemble-1d": "trials", "twowell": "crossover solves", "walk": "paths"}


@dataclass
class Call:
    """One CLI invocation: ``locscape <command> --seed .. [--trials ..] --set k=v ...``."""

    name: str                  # output subdirectory, unique within the workload
    command: str
    seed: int
    units: int                 # operations attempted (trials, crossover solves or paths)
    settings: dict = field(default_factory=dict)
    trials: int | None = None

    def argv(self, out: Path) -> list:
        args = [self.command, "--seed", str(self.seed), "--threads", "1", "--out", str(out)]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args


def _ensemble(name, command, base, s, trials, **settings):
    return Call(name, command, base + SEED_STRIDE * s, trials, settings, trials)


def _line(bc, K, h=0.0):
    return {"dim": 1, "n_cells": 50, "nodes_per_cell": 8, "dist": "bernoulli",
            "dist_params": [0.5], "bc": bc, "h": h, "K": K}


def _geometries(s, count):
    """Two-well geometries from the distribution of the randomized-geometry route test."""
    rng = random.Random(SEED_STRIDE * s + 20240501)
    out = []
    for _ in range(count):
        L3 = rng.uniform(0.03, 0.055)
        L1 = rng.uniform(1.3 * L3, 1.7 * L3)
        L4 = rng.uniform(0.2 * L3, 0.4 * L3)
        out.append({"L1": L1, "L2": (1 - L1 - 2 * L3 - L4) / 2, "L3": L3, "L4": L4})
    return out


def build_calls(workload: str, s: int) -> list:
    """The CLI calls one iteration of ``workload`` makes at workload seed ``s``."""
    if workload == "ensemble-1d":
        # criteria 5 and 6: boundary at Robin h=0.01, multimodal under both wall kinds
        return [
            _ensemble("boundary", "boundary-prob", 314, s, 400, predicate="boundary",
                      **_line("robin", 5e4, 0.01)),
            _ensemble("multimodal-dirichlet", "multimodal-prob", 2718, s, 200,
                      **_line("dirichlet", 3e6)),
            _ensemble("multimodal-neumann", "multimodal-prob", 2718, s, 200,
                      **_line("neumann", 3e6)),
        ]
    if workload == "twowell":
        # a bifurcation call makes two crossover solves (matching conditions and sweep);
        # a scaling call makes one per sampled shape ratio
        calls = [Call("bifurcation-reference", "bifurcation", s, 2)]
        for i, geom in enumerate(_geometries(s, 1)):
            calls.append(Call(f"bifurcation-{i}", "bifurcation", s, 2,
                              {**geom, "nodes_per_unit": 2000}))
        n_points = 12
        calls.append(Call("scaling", "scaling", 808 + SEED_STRIDE * s, 3 * n_points,
                          {"axes": ["P1", "P2", "P3"], "n_points": n_points}))
        return calls
    if workload == "walk":
        # fk-check at its defaults (Bernoulli(0.5) cells, 5 automatic probes) on a fixed
        # potential: its widest zero runs set the paths' lifetimes, so drawing it per seed
        # would change the work 3.5x.  The absorbing-wall probe has a uniform potential
        # (Bernoulli(1) cells), so its workload seed moves only the path streams.  With K=50
        # a path's weight reaches the 1e-10 cutoff at t = ln(1e10)/50 = 0.46 (23,000 steps),
        # while about 1.4% of paths have not yet exited: the walk always runs to that horizon.
        # A zero potential would let the walk run until the last of 2,000 exits, a maximum
        # whose spread over path seeds moves the body time by about 10%.
        absorbing = {"bc": "dirichlet", "K": 50.0, "dist_params": [1.0], "probes": [0.5],
                     "n_paths": 2000}
        return [
            Call("fk-default", "fk-check", 20210, 5 * 10_000),
            Call("fk-absorbing", "fk-check", 42 + SEED_STRIDE * s, 2000, absorbing),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks ---------------------------------------------------------------

def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Report:
    """Check outcomes of one workload iteration."""

    def __init__(self):
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self.extra = {}

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


def _check_ensemble(call, out, rep, rng):
    trials = _rows(out / "trials.csv")
    (summary,) = _rows(out / "summary.csv")
    failed = [int(r["failed"]) for r in trials]
    rep.failed += sum(failed)
    rep.require([int(r["trial"]) for r in trials] == list(range(call.trials)),
                f"{call.name}: trials.csv does not list trials 0..{call.trials - 1}")
    ok = [r for r, f in zip(trials, failed) if not f]
    hits = sum(int(r["hit"]) for r in ok)
    n_ok, p_hat = int(summary["n_trials"]), float(summary["p_hat"])
    rep.require(n_ok == len(ok) and int(summary["n_hits"]) == hits
                and int(summary["n_failures"]) == sum(failed),
                f"{call.name}: summary.csv counts disagree with trials.csv")
    rep.require(n_ok > 0 and _close(p_hat, hits / n_ok, 1e-12)
                and float(summary["ci_low"]) <= p_hat <= float(summary["ci_high"]),
                f"{call.name}: p_hat {p_hat} inconsistent with hits or its interval")
    eigs = [float(r["eigenvalue"]) for r in ok]
    rep.require(all(math.isfinite(e) and e > 0 for e in eigs),
                f"{call.name}: non-positive or non-finite eigenvalue in trials.csv")
    analytic = float(summary["analytic"])
    se = math.sqrt(analytic * (1 - analytic) / n_ok)
    rep.require(abs(p_hat - analytic) <= P_HAT_SIGMAS * se,
                f"{call.name}: p_hat {p_hat:.4f} is more than {P_HAT_SIGMAS:g} standard "
                f"errors from the closed form {analytic:.4f}")
    for row in rng.sample(ok, min(SPOT_CHECKS, len(ok))):
        dense = _dense_ground_eigenvalue(call.settings, int(row["seed"]))
        rep.require(_close(float(row["eigenvalue"]), dense, EIG_RTOL),
                    f"{call.name}: trial {row['trial']} eigenvalue {row['eigenvalue']} "
                    f"differs from the dense solve {dense!r}")


def _dense_ground_eigenvalue(settings, trial_seed):
    """Smallest eigenvalue of the re-assembled pencil by a dense generalized solve."""
    import numpy as np
    import scipy.linalg
    from locscape import BoundaryCondition, DistributionSpec, GridSpec, assemble, sample_potential

    grid = GridSpec(settings["dim"], settings["n_cells"], settings["nodes_per_cell"])
    dist = DistributionSpec.bernoulli(*settings["dist_params"])
    bc = (BoundaryCondition.robin(settings["h"]) if settings["bc"] == "robin"
          else BoundaryCondition(settings["bc"]))
    op = assemble(grid, sample_potential(grid, dist, trial_seed), settings["K"], bc)
    vals = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass), eigvals_only=True,
                             subset_by_index=[0, 0])
    return float(vals[0])


def _check_bifurcation(call, out, rep):
    rows = {r["quantity"]: r for r in _rows(out / "critical.csv")}
    analytic, sweep = float(rows["analytic"]["K"]), float(rows["sweep"]["K"])
    gap = float(rows["relative_gap"]["K"])
    rep.require(analytic > 0 and sweep > 0 and float(rows["analytic"]["lambda"]) > 0,
                f"{call.name}: non-positive crossover coupling or energy")
    rep.require(_close(gap, abs(sweep - analytic) / sweep, 1e-12),
                f"{call.name}: relative_gap does not match the two K_c values")
    grid = [(float(r["K"]), float(r["peak_height_ratio"])) for r in _rows(out / "sweep.csv")]
    bracket = [(a, b) for (a, fa), (b, fb) in zip(grid, grid[1:]) if fa < 0.5 <= fb]
    rep.require(bool(bracket) and bracket[0][0] <= sweep <= bracket[0][1],
                f"{call.name}: sweep K_c {sweep} lies outside the grid bracket of ratio 1/2")
    if call.name == "bifurcation-reference":
        # recorded, not gated: criterion 7a owns the 1e-3 bound on this gap
        rep.extra["kc_rel_gap"] = gap


def _check_scaling(call, out, rep):
    for row in _rows(out / "regression_summary.csv"):
        axis, slope = row["axis"], float(row["slope"])
        rep.failed += int(row["n_skipped"])
        want, tol = SCALING_BOUNDS[axis]
        rep.require(abs(slope - want) <= tol,
                    f"{call.name}: {axis} slope {slope:.4f} outside {want} +- {tol:.3g}")
        if axis in SCALING_MIN_R2:
            rep.require(float(row["r2"]) > SCALING_MIN_R2[axis],
                        f"{call.name}: {axis} fit r2 {row['r2']} below {SCALING_MIN_R2[axis]}")


def _check_fk(call, out, rep):
    rows = _rows(out / "fk_check.csv")
    want = len(call.settings.get("probes", ())) or 5        # 5 automatic probes by default
    rep.require(len(rows) == want, f"{call.name}: {len(rows)} probes, expected {want}")
    for r in rows:
        dev = float(r["deviation_sigmas"])
        rep.require(float(r["mc_std_error"]) > 0 and float(r["mc_mean"]) > 0,
                    f"{call.name}: degenerate estimate at x={r['probe_x']}")
        rep.require(abs(dev) <= FK_MAX_SIGMAS,
                    f"{call.name}: walk estimate at x={r['probe_x']} is {dev:.2f} standard "
                    f"errors from the finite-difference landscape")


def check_outputs(s, calls, out_dirs, return_codes) -> Report:
    """Check every call's outputs; a call that exited non-zero fails all its operations."""
    rep = Report()
    rng = random.Random(s)
    for call, out, rc in zip(calls, out_dirs, return_codes):
        rep.attempted += call.units
        if rc != 0:
            # 1: an exception escaped cli.main; 2: configuration error (the configs are
            # fixed); 3: numerical failure, e.g. more than 1% of an ensemble's trials failed
            rep.failed += call.units
            rep.problems.append(f"{call.name}: locscape {call.command} exited with {rc}")
            continue
        if call.command in ("boundary-prob", "multimodal-prob"):
            _check_ensemble(call, out, rep, rng)
        elif call.command == "bifurcation":
            _check_bifurcation(call, out, rep)
        elif call.command == "scaling":
            _check_scaling(call, out, rep)
        elif call.command == "fk-check":
            _check_fk(call, out, rep)
    return rep
