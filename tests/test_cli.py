import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from locscape import (BoundaryCondition, ConvergenceError, DistributionSpec, GridSpec, assemble,
                      bifurcation, experiments, landscape, landscape_from_operator, load_potential,
                      sample_potential, smallest_eigenpairs)
from locscape.cli import main


def run_cli(*args):
    return main(list(args))


def test_missing_config_exits_2_without_outputs(tmp_path):
    out = tmp_path / "never"
    code = run_cli("landscape", "--config", str(tmp_path / "nope.json"), "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_cells": 10, "frobnicate": 1}))
    assert run_cli("landscape", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_unknown_set_key_rejected(tmp_path):
    # a typo must not fall back to the default n_cells silently
    out = tmp_path / "o"
    assert run_cli("potential", "--set", "n_cellz=10", "--out", str(out)) == 2
    assert not out.exists()


def test_mistyped_set_value_rejected(tmp_path):
    out = tmp_path / "o"
    assert run_cli("potential", "--set", 'n_cells="ten"', "--out", str(out)) == 2
    assert not out.exists()


def test_fractional_int_value_rejected(tmp_path):
    # 10.7 cells must not be truncated to 10; an integral float such as 1e4 still passes
    out = tmp_path / "o"
    assert run_cli("potential", "--set", "n_cells=10.7", "--out", str(out)) == 2
    assert not out.exists()
    assert run_cli("potential", "--set", "n_cells=1e1", "--out", str(out)) == 0
    assert len(load_potential(out / "potential.txt").cell_values) == 10


def test_boolean_number_value_rejected(tmp_path):
    out = tmp_path / "o"
    assert run_cli("solve", "--set", "K=true", "--set", "n_cells=10", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    ['predicate="foo"'],
    ['predicate="corner"', "dim=1"],
])
def test_bad_predicate_is_a_config_error(tmp_path, settings):
    out = tmp_path / "o"
    args = [a for s in settings for a in ("--set", s)]
    assert run_cli("boundary-prob", *args, "--trials", "2", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,settings", [
    ("fk-check", ["n_cells=10", "dt=-1"]),
    ("fk-check", ["n_cells=10", "n_paths=0"]),
    ("fk-check", ["n_cells=10", "probes=[1.5]"]),
    ("fk-check", ["n_cells=10", 'bc="periodic"']),
    ("solve", ["n_cells=10", 'bc="periodic"', "dim=2"]),
    ("dist-study", ["h_list=[-1]"]),
    ("dist-study", ["dims=[1,3]"]),
    ("fk-check", ["n_cells=6", "dim=2"]),       # automatic probes are 1D only
    ("fk-check", ["n_cells=10", "n_paths=1"]),  # a standard error needs two paths
])
def test_argument_the_library_rejects_exits_2_without_outputs(tmp_path, monkeypatch, command,
                                                              settings):
    # rejected before any landscape solve or ensemble trial is paid for
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(landscape, "landscape_from_operator"),
                         (experiments, "run_ensemble")]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    out = tmp_path / "o"
    args = [a for s in settings for a in ("--set", s)]
    assert run_cli(command, *args, "--trials", "2", "--out", str(out)) == 2
    assert not out.exists()
    assert calls == []


_SMALL_1D, _SMALL_2D = ["n_cells=6"], ["dim=2", "n_cells=3"]


@pytest.mark.parametrize("command,settings", [
    ("fk-check", ["dim=2", "n_cells=6", "probes=[0.5]", "dt=NaN"]),
    ("fk-check", ["dim=2", "n_cells=6", "probes=[0.5]", "dt=Infinity"]),
    ("fk-check", ["n_cells=6", "probes=[NaN]"]),
    ("solve", [*_SMALL_1D, 'bc="robin"', "h=Infinity"]),
    ("boundary-prob", [*_SMALL_1D, 'bc="robin"', "h=Infinity"]),
    ("dist-study", ["h_list=[Infinity]"]),
    ("multimodal-prob", [*_SMALL_1D, 'dist="uniform"', "dist_params=[0.0,Infinity]"]),
    ("potential", [*_SMALL_1D, 'dist="normal"', "dist_params=[NaN,1.0]"]),
    ("potential", [*_SMALL_1D, 'dist="normal"', "dist_params=[0.5,Infinity]"]),
    ("solve", [*_SMALL_1D, 'dist="gamma"', "dist_params=[Infinity,1.0]"]),
    ("potential", [*_SMALL_1D, 'dist="gamma"', "dist_params=[1e200,1e-200]"]),  # sigma^2 -> 0
    *[(command, [*small, f"K={K}"]) for K in ("NaN", "Infinity", "1e400")
      for command, small in [("solve", _SMALL_1D), ("landscape", _SMALL_1D),
                             ("multimodal-prob", _SMALL_1D), ("multimodal-prob", _SMALL_2D)]],
], ids=str)
def test_a_non_finite_number_is_a_config_error(tmp_path, capsys, command, settings):
    out = tmp_path / "o"
    args = [a for s in settings for a in ("--set", s)]
    assert run_cli(command, *args, "--trials", "2", "--threads", "1", "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats alone took about 0.5 s of every command's start-up, and scipy.optimize and
    # scipy.ndimage together about 40% of `import locscape.cli`; no benchmarked command needs
    # them, neither at import nor in its body
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = """
import sys
import locscape.cli
unused = ("scipy.stats", "scipy.optimize", "scipy.ndimage")
print(*[m in sys.modules for m in unused])
for i, argv in enumerate([["bifurcation", "--set", "sweep=false"],
                          ["multimodal-prob", "--trials", "5"],
                          ["fk-check", "--set", "n_paths=200"]]):
    assert locscape.cli.main([*argv, "--out", f"{sys.argv[1]}/{i}"]) == 0
print(*[m in sys.modules for m in unused])
"""
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert run.stdout.split() == ["False"] * 6


def test_bad_env_value_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSCAPE_SEED", "abc")
    out = tmp_path / "o"
    assert run_cli("potential", "--out", str(out)) == 2
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path):
    # all-zero potential under pure reflective walls is singular
    out = tmp_path / "o"
    code = run_cli("landscape", "--set", "dist_params=[0.0]", "--set", "K=0.0",
                   "--out", str(out), "--seed", "1")
    assert code == 3


def test_root_finder_failure_exits_3(tmp_path, monkeypatch):
    # a NaN reaching Brent's method is a numerical failure with exit 3, not a traceback
    monkeypatch.setattr(bifurcation, "characteristic_left", lambda K, lam, params: np.nan)
    assert run_cli("bifurcation", "--set", "sweep=false", "--out", str(tmp_path / "o")) == 3


def test_nearly_singular_robin_landscape_solves(tmp_path):
    # V = 0 behind weak Robin walls: w = 1/(2h) + x(1 - x)/2 is large, so the solve's
    # residual is round-off relative to ||A|| ||w||, not to ||M rhs||
    out = tmp_path / "o"
    assert run_cli("landscape", "--set", "n_cells=9", "--set", "nodes_per_cell=6",
                   "--set", "dist_params=[0.0]", "--set", 'bc="robin"',
                   "--set", "h=0.00390625", "--set", "K=1.0", "--out", str(out)) == 0
    w = np.array((out / "landscape.txt").read_text().split(), dtype=float)
    assert np.all(np.isfinite(w)) and w.min() > 0
    x = np.linspace(0.0, 1.0, len(w))
    np.testing.assert_allclose(w, 128.0 + x * (1 - x) / 2, rtol=1e-6)


def test_singular_neumann_solve_exits_3(tmp_path):
    # lambda = 0 is an eigenvalue here; the landscape solve then reports the singular operator
    out = tmp_path / "o"
    code = run_cli("solve", "--set", "dist_params=[0.0]", "--set", "K=0.0",
                   "--out", str(out), "--seed", "1")
    assert code == 3


@pytest.mark.parametrize("flag", ["--trials", "--threads"])
def test_nonpositive_counts_exit_2(tmp_path, flag):
    out = tmp_path / "o"
    code = run_cli("boundary-prob", "--set", "n_cells=10", flag, "0", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_potential_roundtrip_and_manifest(tmp_path):
    out = tmp_path / "o"
    assert run_cli("potential", "--set", "n_cells=12", "--seed", "9",
                   "--out", str(out)) == 0
    fieldv = load_potential(out / "potential.txt")
    assert fieldv.grid.cells_per_side == 12
    assert fieldv.seed == 9
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "potential"
    assert manifest["seed"] == 9
    assert "config_sha256" in manifest and "versions" in manifest
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_manifest_records_and_hashes_trials_and_threads(tmp_path):
    manifests = {}
    for trials, threads in ((5, 1), (6, 1), (5, 2)):
        out = tmp_path / f"{trials}-{threads}"
        assert run_cli("boundary-prob", "--set", "n_cells=12", "--trials", str(trials),
                       "--threads", str(threads), "--out", str(out)) == 0
        manifests[trials, threads] = json.loads((out / "run_manifest.json").read_text())
    for (trials, threads), manifest in manifests.items():
        assert (manifest["trials"], manifest["threads"]) == (trials, threads)
    assert len({m["config_sha256"] for m in manifests.values()}) == 3


def test_solve_writes_eigenpairs_and_landscape(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "n_cells": 30, "dist": "uniform", "dist_params": [0.0, 1.0],
        "K": 8000.0, "bc": "neumann", "n_modes": 4,
    }))
    out = tmp_path / "o"
    assert run_cli("solve", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 0
    rows = (out / "eigenpairs.csv").read_text().splitlines()
    assert rows[0].startswith("mode,eigenvalue,residual")
    assert len(rows) == 5
    w = [float(v) for v in (out / "landscape.txt").read_text().split()]
    assert len(w) == 241
    assert min(w) > 0


def test_solve_modes_file_reads_back_as_the_embedded_modes(tmp_path):
    # numpy 2 scalars repr as np.float64(...); the file holds plain numbers, one row per node
    out = tmp_path / "o"
    assert run_cli("solve", "--set", "n_cells=12", "--set", "n_modes=3", "--set", 'bc="dirichlet"',
                   "--seed", "4", "--out", str(out)) == 0
    grid = GridSpec(1, 12, 8)
    op = assemble(grid, sample_potential(grid, DistributionSpec("bernoulli", (0.5,)), 4), 8000.0,
                  BoundaryCondition("dirichlet"))
    modes = np.column_stack([op.embed(p.mode).ravel() for p in smallest_eigenpairs(op, k=3)])
    assert np.array_equal(np.loadtxt(out / "modes.txt"), modes)


def test_valleys_outputs(tmp_path):
    out = tmp_path / "o"
    assert run_cli("valleys", "--set", "n_cells=20", "--set", "K=100000.0",
                   "--seed", "2", "--out", str(out)) == 0
    labels = [int(float(v)) for v in (out / "valley_labels.txt").read_text().split()]
    assert len(labels) == 161
    assert (out / "regions.csv").exists()
    assert (out / "zero_component_labels.txt").exists()


def test_ensemble_reruns_are_byte_identical(tmp_path):
    args = ("boundary-prob", "--set", "K=50000.0", "--set", "bc=\"robin\"",
            "--set", "h=0.01", "--seed", "4", "--trials", "20", "--threads", "1")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("trials.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0].split(",")[:4] == ["spec_hash", "predicate", "p_hat", "ci_low"]
    analytic = float(summary[1].split(",")[-1])
    assert 0.2 < analytic < 0.3


def test_ensemble_fresh_process_reruns_are_byte_identical(tmp_path):
    # separate interpreters: nothing cached in one process can hide run-to-run drift
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "locscape.cli", "multimodal-prob",
                        "--seed", "51870", "--trials", "200", "--threads", "1",
                        "--set", 'bc="dirichlet"', "--set", "K=3000000.0",
                        "--out", str(out)], env=env, check=True, timeout=600)
        bodies.append((out / "trials.csv").read_bytes())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command,setting", [
    ("boundary-prob", "dist_params=[0.0]"),      # p = 0: no run model
    ("multimodal-prob", "n_cells=8"),            # M = 2: the reflective-wall series needs 3
    ("boundary-prob", 'bc="dirichlet"'),         # the series model reflective walls only
    ("boundary-prob", 'bc="periodic"'),
    ("multimodal-prob", 'bc="periodic"'),        # the multimodal series model walls, not a ring
])
def test_ensemble_without_run_model_reports_nan_analytic(tmp_path, command, setting):
    out = tmp_path / "o"
    assert run_cli(command, "--set", setting, "--set", "K=100.0", "--trials", "4",
                   "--threads", "1", "--out", str(out)) == 0
    assert np.isnan(float((out / "summary.csv").read_text().splitlines()[1].split(",")[-1]))


def test_multimodal_summary_carries_series_value(tmp_path):
    out = tmp_path / "o"
    assert run_cli("multimodal-prob", "--set", "bc=\"dirichlet\"", "--set", "K=3000000.0",
                   "--seed", "3", "--trials", "10", "--out", str(out)) == 0
    last = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert abs(float(last[-1]) - 0.2785) < 1e-3


def test_ensemble_aborts_when_over_one_percent_of_trials_fail(tmp_path, monkeypatch):
    def unconverged(op):
        raise ConvergenceError("forced", residual=None)

    monkeypatch.setattr(experiments, "ground_cluster", unconverged)
    out = tmp_path / "o"
    assert run_cli("multimodal-prob", "--trials", "10", "--threads", "1", "--out", str(out)) == 3
    assert not (out / "trials.csv").exists()


def test_dist_study_table(tmp_path):
    # 9 feasible (family, sigma) pairs per dimension; the corner column is 2D only
    out = tmp_path / "o"
    assert run_cli("dist-study", "--trials", "3", "--threads", "1", "--set", "dims=[1,2]",
                   "--set", "h_list=[0.01]", "--out", str(out)) == 0
    rows = (out / "dist_study.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "p_corner"
    table = [r.split(",") for r in rows[1:]]
    assert [r[0] for r in table] == ["1"] * 9 + ["2"] * 9
    corner = np.array([float(r[-1]) for r in table])
    assert np.all(np.isnan(corner[:9]))
    assert np.all((corner[9:] >= 0) & (corner[9:] <= 1))


def test_fk_check_table(tmp_path):
    out = tmp_path / "o"
    assert run_cli("fk-check", "--set", "n_cells=30", "--set", "n_paths=400",
                   "--seed", "6", "--out", str(out)) == 0
    rows = (out / "fk_check.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "probe_x"
    assert len(rows) == 6
    # every path dies at a barrier long before the default t_max
    assert rows[0].split(",")[-1] == "n_truncated"
    assert all(r.split(",")[-1] == "0" for r in rows[1:])


def test_fk_check_2d_reads_the_landscape_at_the_probe_node(tmp_path):
    # a probe x starts the 2D walk at (x, x), so fd_landscape is w there, not at a wall node
    out = tmp_path / "o"
    assert run_cli("fk-check", "--set", "dim=2", "--set", "n_cells=6", "--set", "probes=[0.5]",
                   "--set", "n_paths=20", "--set", "K=200.0", "--seed", "3",
                   "--out", str(out)) == 0
    fd = float((out / "fk_check.csv").read_text().splitlines()[1].split(",")[3])
    grid = GridSpec(2, 6, 4)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 3)
    ls = landscape_from_operator(assemble(grid, fieldv, 200.0, BoundaryCondition.neumann()))
    assert fd == ls.w.reshape(25, 25)[12, 12]       # node 12 of 25 sits at 0.5 on each axis


@pytest.mark.parametrize("dim", [1, 2])
def test_fk_check_reads_a_dirichlet_wall_probe_at_the_wall_node(tmp_path, dim):
    # probes on both walls, and one within half a spacing of the low wall, read w at the
    # eliminated wall node, where w = 0; a walk started on a wall is absorbed at once, so
    # every path is alike, and a standard error of 0 measures no deviation
    out = tmp_path / "o"
    assert run_cli("fk-check", "--set", f"dim={dim}", "--set", "n_cells=6", "--set",
                   'bc="dirichlet"', "--set", "probes=[0.0,1.0,0.01]", "--set", "n_paths=20",
                   "--seed", "3", "--out", str(out)) == 0
    rows = [[float(v) for v in r.split(",")]
            for r in (out / "fk_check.csv").read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == [0.0, 0.0, 0.0]          # fd_landscape
    for r in rows[:2]:
        assert r[1] == r[2] == 0.0 and np.isnan(r[4])       # mc_mean, mc_std_error
    assert rows[2][1] > 0.0 and np.isfinite(rows[2][4])


def test_bifurcation_and_scaling_commands(tmp_path):
    out = tmp_path / "bif"
    assert run_cli("bifurcation", "--set", "sweep=false", "--out", str(out)) == 0
    body = (out / "critical.csv").read_text().splitlines()
    label, K, lam = body[1].split(",")
    assert label == "analytic"
    assert 0 < float(lam) < float(K)
    out2 = tmp_path / "sc"
    assert run_cli("scaling", "--set", 'axes=["P1"]', "--set", "n_points=4",
                   "--seed", "5", "--out", str(out2)) == 0
    summary = (out2 / "regression_summary.csv").read_text().splitlines()
    axis, model, slope = summary[1].split(",")[:3]
    assert axis == "P1" and model == "power"
    assert abs(float(slope) + 2.0) < 0.15
    assert (out2 / "scaling_P1.csv").exists()


def test_bifurcation_sweep_brackets_its_crossing(tmp_path):
    out = tmp_path / "o"
    assert run_cli("bifurcation", "--out", str(out)) == 0
    rows = [r.split(",") for r in (out / "critical.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["analytic", "sweep", "relative_gap"]
    sweep = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    i = np.flatnonzero((sweep[:-1, 1] < 0.5) & (sweep[1:, 1] >= 0.5))[0]
    assert sweep[i, 0] < float(rows[1][1]) < sweep[i + 1, 0]


@pytest.mark.parametrize("command,setting", [
    ("scaling", "n_points=1"),
    ("scaling", "n_points=0"),
    ("scaling", 'axes=["P9"]'),
    ("scaling", 'axes=["P1","P9"]'),
    ("scaling", "P3=1.5"),
    ("bifurcation", "nodes_per_unit=0"),
])
def test_twowell_config_out_of_range_exits_2(tmp_path, command, setting):
    out = tmp_path / "o"
    assert run_cli(command, "--set", setting, "--out", str(out)) == 2
    assert not out.exists()


def test_scaling_without_two_fitted_points_exits_3(tmp_path):
    # P2 = 0.9 gives L1 >= 2 L3: every sampled geometry violates a constraint
    assert run_cli("scaling", "--set", 'axes=["P1"]', "--set", "P2=0.9", "--set", "n_points=3",
                   "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("command,setting", [
    ("potential", 'dist_params=["a"]'),
    ("potential", "dist_params=[]"),
    ("dist-study", 'dims=["x"]'),
])
def test_list_keys_checked_element_by_element(tmp_path, command, setting):
    out = tmp_path / "o"
    assert run_cli(command, "--set", setting, "--out", str(out)) == 2
    assert not out.exists()


def test_env_defaults_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCSCAPE_TRIALS", "7")
    monkeypatch.setenv("LOCSCAPE_OUT", str(tmp_path / "envout"))
    assert run_cli("boundary-prob", "--set", "n_cells=10", "--set", "K=100.0",
                   "--seed", "8", "--threads", "1") == 0
    rows = (tmp_path / "envout" / "trials.csv").read_text().splitlines()
    assert len(rows) == 8    # header + LOCSCAPE_TRIALS rows
    # explicit flag beats the environment
    assert run_cli("boundary-prob", "--set", "n_cells=10", "--set", "K=100.0",
                   "--seed", "8", "--threads", "1", "--trials", "3",
                   "--out", str(tmp_path / "flagout")) == 0
    rows = (tmp_path / "flagout" / "trials.csv").read_text().splitlines()
    assert len(rows) == 4
