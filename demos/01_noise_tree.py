"""Walk through the common-noise discretization.

Projects Brownian paths onto the dyadic-time / bounded-lattice tree, shows
the pathwise projection error bound, and cross-checks the exact transition
kernel against simulation.
"""

import numpy as np

from mfpricelab import (FULL_PREFIX, GridSpec, Lattice, TreeConditioner,
                        sample_batch, project_scalar, transition_matrix)

spec = GridSpec(n=2, l=1, m=8, T=1.0)
lat = Lattice(spec.l)
print(f"grid: {spec.n_intervals} intervals, lattice step {lat.step}, "
      f"bound {lat.bound}, {lat.size} points")

batch = sample_batch(spec, 1, 20000)
b_at_nodes = batch.b[:, spec.node_fine_indices()]
err = np.abs(b_at_nodes - batch.node_path)
inside = np.all(np.abs(b_at_nodes) <= lat.bound - 1, axis=1)
print(f"projection error per node (paths inside the lattice): "
      f"max {err[inside].max(axis=0).round(4)} vs bound "
      f"{(np.arange(1, spec.n_nodes + 1) * lat.step).round(4)}")

kern = transition_matrix(spec)
rng = np.random.default_rng(2)
draws = project_scalar(0.0 + rng.standard_normal(200000) * kern.sigma, spec.l)
emp = np.bincount(lat.index_of(draws), minlength=lat.size) / draws.size
row = kern.row(0.0)
print("kernel row from 0 vs simulation:")
for v, p, q in zip(lat.points(), row, emp):
    if p > 5e-4:
        print(f"  P(0 -> {v:+.1f}) = {p:.4f}   simulated {q:.4f}")

buckets = TreeConditioner(spec, batch.node_path, FULL_PREFIX)
for i in range(spec.n_intervals):
    ss = buckets.counts(i)
    print(f"interval {i}: {ss.size} keys, bucket sizes min {ss.min()} max {ss.max()}")
