"""Cell-boundary walk estimates of the landscape against the difference solver.

In 1D the walk hops from cell boundary to cell boundary with closed-form exit
laws, so it has no time-step bias.  Three checks, printed as a table: the
constant-potential closed form 1/K (every hop has the same discount and
occupation there, so every path adds the same terms and the estimate is exact),
the absorbing-wall exit-time parabola x(1-x)/2, and five probes of a Bernoulli
instance against the assembled landscape.
"""

import numpy as np

from locscape import (BoundaryCondition, DistributionSpec, PathConfig, assemble,
                      estimate_landscape_mc, grid_1d, landscape_from_operator,
                      probe_points_for, sample_potential)

ones = sample_potential(grid_1d(30), DistributionSpec.bernoulli(1.0), 0)
est = estimate_landscape_mc(0.5, ones, 100.0, BoundaryCondition.neumann(),
                            PathConfig(n_paths=10_000, seed=1))
print(f"flat potential, reflective: {est.mean:.10f}  (exact 0.01, per-path spread {est.std_error:.1e})")

zeros = sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.0), 0)
est = estimate_landscape_mc(0.5, zeros, 1.0, BoundaryCondition.dirichlet(),
                            PathConfig(n_paths=10_000, seed=2, t_max=4.0))
print(f"empty potential, absorbing: {est.mean:.6f} +- {est.std_error:.6f}  (exact 0.125)")

fieldv = sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.5), 20210)
fine = grid_1d(30, 32)
op = assemble(fine, sample_potential(fine, DistributionSpec.bernoulli(0.5), 20210),
              8000.0, BoundaryCondition.neumann())
w = landscape_from_operator(op).w
cfg = PathConfig(n_paths=10_000, seed=3)
print("\nBernoulli instance, K=8000, reflective walls:")
print("probe x    walk estimate        assembled w      dev/sigma")
for x in probe_points_for(fieldv):
    est = estimate_landscape_mc(x, fieldv, 8000.0, BoundaryCondition.neumann(), cfg)
    node = int(np.argmin(np.abs(op.axes[0] - x)))
    print(f"  {x:.3f}   {est.mean:.6e} ({est.std_error:.1e})   {w[node]:.6e}   "
          f"{(est.mean - w[node]) / est.std_error:+.2f}")
