"""Modes with several peaks: when the longest zero runs tie.

Finds a strongly disordered instance whose ground mode carries two peaks in
different valley regions, then sweeps p and compares the closed-form tie
probabilities (absorbing and reflective walls) with 250-trial ensembles.

Writes multimodality.png.
"""

from pathlib import Path

import numpy as np

from locscape import (BoundaryCondition, DistributionSpec, ExperimentSpec, RunModel,
                      assemble, grid_1d, landscape_from_operator, multimodal_prob_dirichlet,
                      multimodal_prob_neumann, run_ensemble, sample_potential, valley_partition)
from locscape.experiments import THRESHOLD, is_multimodal
from locscape.solver import ground_cluster

OUT = Path(__file__).resolve().parent
N, K = 50, 3e6
grid = grid_1d(N)

# hunt a bimodal example instance
example = None
for seed in range(200):
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), seed)
    op = assemble(grid, fieldv, K, BoundaryCondition.neumann())
    members = ground_cluster(op)
    if len(members) < 2:
        continue
    env = np.max(np.abs([p.mode for p in members]), axis=0)
    part = valley_partition(landscape_from_operator(op))
    if is_multimodal(env, part):
        example = (seed, op, env)
        break
assert example is not None
seed, op, env = example
hot = np.flatnonzero(env > THRESHOLD)
print(f"instance seed={seed}: ground cluster carries peaks near x = "
      f"{np.round(op.axes[0][hot[[0, -1]]], 3)} (amplitude > {THRESHOLD})")

print("\np     series_D  ensemble_D   series_N  ensemble_N")
rows = []
for p in (0.35, 0.5, 0.65):
    model = RunModel(p, N)
    sd, sn = multimodal_prob_dirichlet(model), multimodal_prob_neumann(model)
    ests = {}
    for bc in ("dirichlet", "neumann"):
        spec = ExperimentSpec(grid, DistributionSpec.bernoulli(p), K,
                              BoundaryCondition(bc), 250, 23, "multimodal")
        ests[bc] = run_ensemble(spec)[0].p_hat
    rows.append((p, sd, ests["dirichlet"], sn, ests["neumann"]))
    print(f"{p:.2f}   {sd:.4f}    {ests['dirichlet']:.4f}       {sn:.4f}    {ests['neumann']:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit("matplotlib not available; table above is the result")

fig, axes = plt.subplots(1, 2, figsize=(10, 4))
axes[0].plot(op.axes[0], env, "m-", lw=1)
axes[0].axhline(THRESHOLD, color="0.6", ls=":")
axes[0].set_title(f"bimodal ground cluster (seed {seed})")
arr = np.array(rows)
axes[1].plot(arr[:, 0], arr[:, 1], "k-", label="series, absorbing")
axes[1].plot(arr[:, 0], arr[:, 2], "b+", ms=10, label="ensemble, absorbing")
axes[1].plot(arr[:, 0], arr[:, 3], "k--", label="series, reflective")
axes[1].plot(arr[:, 0], arr[:, 4], "rx", ms=8, label="ensemble, reflective")
axes[1].set_xlabel("p")
axes[1].set_ylabel("P(multimodal)")
axes[1].legend(fontsize=8)
fig.tight_layout()
fig.savefig(OUT / "multimodality.png", dpi=150)
print(f"wrote {OUT / 'multimodality.png'}")
