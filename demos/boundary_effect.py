"""How often the ground mode sits at a reflective wall.

Sweeps the one-cell probability p and compares three routes at each value:
the closed-form series for "longest wall-doubled zero run is at a wall", its
direct sampling oracle, and a 300-trial eigenproblem ensemble at strong
disorder with nearly-reflective (Robin h=0.01) walls.

Writes boundary_effect.csv and boundary_effect.png.
"""

import csv
from pathlib import Path

import numpy as np

from locscape import (BoundaryCondition, DistributionSpec, ExperimentSpec, RunModel,
                      boundary_localization_prob, grid_1d, oracle_probabilities,
                      run_ensemble)

OUT = Path(__file__).resolve().parent
N, K, H, TRIALS = 50, 5e4, 0.01, 300

rows = []
for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
    model = RunModel(p, N)
    series = boundary_localization_prob(model)
    mc = oracle_probabilities(model, 200_000, seed=7).p_boundary
    spec = ExperimentSpec(grid_1d(N), DistributionSpec.bernoulli(p), K,
                          BoundaryCondition.robin(H), TRIALS, 11, "boundary")
    est = run_ensemble(spec)[0]
    rows.append((p, model.M, series, mc, est.p_hat, est.ci_low, est.ci_high))
    print(f"p={p:.1f}  M={model.M:2d}  series={series:.4f}  oracle={mc:.4f}  "
          f"ensemble={est.p_hat:.4f} [{est.ci_low:.3f},{est.ci_high:.3f}]")

with open(OUT / "boundary_effect.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["p", "M", "series", "oracle", "ensemble", "ci_low", "ci_high"])
    w.writerows(rows)
print(f"wrote {OUT / 'boundary_effect.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit("matplotlib not available; table above is the result")

arr = np.array(rows)
fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(arr[:, 0], arr[:, 2], "k-", label="closed form")
ax.plot(arr[:, 0], arr[:, 3], "rx", label="run-config oracle")
ax.errorbar(arr[:, 0], arr[:, 4], yerr=[arr[:, 4] - arr[:, 5], arr[:, 6] - arr[:, 4]],
            fmt="b+", capsize=3, label=f"{TRIALS}-trial ensemble")
ax.set_xlabel("p = P(cell = 1)")
ax.set_ylabel("P(ground mode at a wall)")
ax.legend()
fig.tight_layout()
fig.savefig(OUT / "boundary_effect.png", dpi=150)
print(f"wrote {OUT / 'boundary_effect.png'}")
