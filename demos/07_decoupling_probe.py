"""The decoupling field u(t, x) is Lipschitz in x with the analytic constant Gamma_p.

The probe solves one agent twice from time t on the same noise, its state
started at x1 and at x2 (a copy of the batch whose initial states are all x),
and reports max |Y1_t - Y2_t| / |x1 - x2|.  A convex agent's adjoint depends
on its state, so the ratio is positive and below Gamma_p; an affine agent's
does not, so its ratio is 0.
"""

from mfpricelab import TreeConditioner, decoupling_probe, preset, sample_batch, solve_fixed_point
from mfpricelab.tree import FULL_PREFIX

for name, times in (("general-convex", (0.0, 0.25, 0.5)), ("deterministic", (0.5,))):
    model = preset(name)
    report = solve_fixed_point(sample_batch(model.grid, 3, 2000, model.factor), model)
    batch = sample_batch(model.grid, 505, 1000, model.factor)
    buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX,
                              min_count=model.solver.min_bucket)
    for t in times:
        out = decoupling_probe(model.standard, report.price, batch, buckets, model.bounds,
                               t=t, x1=-0.5, x2=0.5)
        print(f"{name:15s} t={t:.2f}  observed ratio {out['ratio']:.4f}  Gamma_p {out['gamma_p']:.2f}")
