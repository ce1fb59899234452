"""A single informed agent cannot hide her strategy.

In the one-informed-agent market whose informed costs depend only on the
price and the common noise, the informed trading rate satisfies, at the
equilibrium, beta = (1/Lambda_S) * (price + E[Y_S | price, common noise]):
everything on the right is observable by the standard population.
"""

import numpy as np

from mfpricelab import preset, sample_batch
from mfpricelab.market import informed_inference_check, informed_check_csv

model = preset("single-informed").with_solver(samples=12000)
batch = sample_batch(model.grid, 19, model.solver.samples, model.factor)
result = informed_inference_check(model, batch)
print(result.summary())
informed_check_csv("informed_demo.csv", result)
print("per-key comparison written to informed_demo.csv")

step, bound = 2.0 ** (-model.grid.l), 2.0 ** model.grid.l
codes, t, bd, bi, gap, _ = result.rows[2]
print("\ninterval 2 excerpts (t, beta_direct, beta_inferred, gap):")
for k, s in list(np.ndindex(bd.shape))[:5]:
    key = tuple(-bound + p * step for p in codes[k].tolist())
    print(f"  t={t[s]:.3f} key={key}: {bd[k, s]:+.4f} vs {bi[k, s]:+.4f} (gap {gap[k, s]:.2e})")
