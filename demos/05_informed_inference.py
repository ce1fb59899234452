"""A single informed agent cannot hide her strategy.

In the one-informed-agent market whose informed costs depend only on the
price and the common noise, the informed trading rate satisfies, at the
equilibrium, beta = (1/Lambda_S) * (price + E[Y_S | price, common noise]):
everything on the right is observable by the standard population.
"""

from mfpricelab import preset, sample_batch
from mfpricelab.market import InformedScenario, informed_inference_check, informed_check_csv

model = preset("single-informed").with_solver(samples=12000)
batch = sample_batch(model.grid, 19, model.solver.samples, model.factor)
result = informed_inference_check(InformedScenario(N_S=100, rho=model.factor.rho),
                                  model, batch)
print(result.summary())
informed_check_csv("informed_demo.csv", result)
print("per-key comparison written to informed_demo.csv")

step, bound = 2.0 ** (-model.grid.l), 2.0 ** model.grid.l
sample = [r for r in result.rows if r[0] == 2][:5]
print("\ninterval 2 excerpts (t, beta_direct, beta_inferred, gap):")
for (_, prefix, t, bd, bi, gap, tol) in sample:
    key = tuple(-bound + p * step for p in prefix)
    print(f"  t={t:.3f} key={key}: {bd:+.4f} vs {bi:+.4f} (gap {gap:.2e})")
