"""The price tracks the discretized common noise.

When both populations' terminal cost is the (clipped) common noise at the
horizon, the adjoint is a conditional mean of B_T and the equilibrium price
at tree key (i, v_1..v_i) sits within i*2^-l + Monte Carlo noise of -v_i.
"""

import numpy as np

from mfpricelab import preset, sample_batch, solve_fixed_point
from mfpricelab.conditioning import TreeConditioner
from mfpricelab.price import interval_matrix
from mfpricelab.tree import FULL_PREFIX, Lattice

model = preset("terminal-common-noise")
spec = model.grid
batch = sample_batch(spec, 7, 50000, model.factor)
buckets = TreeConditioner(spec, batch.node_path, FULL_PREFIX,
                          min_count=model.solver.min_bucket)
report = solve_fixed_point(batch, model, buckets=buckets)
print(report.summary(bounds=model.bounds))

lat = Lattice(spec.l)
print("\ninterval 2 keys (prefix -> price at t_2 vs -V_2, tolerance 2*2^-l + 3SE):")
mat, _ = interval_matrix(report.price, buckets, 2)
se = report.phi_stats.se[2]
counts = buckets.counts(2)
shown = 0
for k, key in enumerate(buckets.keys(2)):
    if counts[k] < 2000 or shown >= 10:
        continue
    prefix = tuple(lat.value_of(np.array(key.prefix)).tolist())
    v = prefix[-1]
    tol = 2 * lat.step + 3 * se[k][0]
    print(f"  {prefix}: price={mat[k, 0]:+.3f} target={-v:+.3f} "
          f"gap={abs(mat[k, 0] + v):.3f} tol={tol:.3f} (n={counts[k]})")
    shown += 1
