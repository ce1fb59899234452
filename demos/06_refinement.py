"""Refinement of the discretization: coupled Meyer-Zheng distances.

All dyadic levels are views of the same Brownian batch, so the integral
int 1 ^ |price_n - price_{n+1}| dt is evaluated path by path.  Distances
between successive levels shrink as the tree refines.
"""

from mfpricelab import GridSpec, preset, sample_batch
from mfpricelab.equilibrium import refinement_study

model = preset("terminal-common-noise").with_grid(GridSpec(n=3, l=1, m=4, T=1.0))
batch = sample_batch(model.grid, 23, 10000, model.factor)
table = refinement_study(model.with_solver(tol=1e-3, max_iter=8),
                         [1, 2, 3], batch)
for row in table.rows:
    print(f"levels {row.pair}: median d_M = {row.median_dm:.4f} "
          f"(mean {row.mean_dm:.4f})")
