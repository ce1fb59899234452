"""Finite markets under the mean-field price: the 1/N clearing rate.

Populations of N agents share the common noise and the equilibrium price
tree; each solves its own control problem with fresh idiosyncratic noise.
The average optimal trading rate vanishes at rate 1/N, inside the analytic
envelope 8*T*C_B^2*sum(1/Lambda^2)/N.
"""

from mfpricelab import preset, sample_batch, solve_fixed_point
from mfpricelab.market import rate_study

model = preset("clearing").with_solver(samples=20000)
batch = sample_batch(model.grid, 11, model.solver.samples, model.factor)
eq = solve_fixed_point(batch, model)
print("equilibrium:", "converged" if eq.converged else "NOT converged",
      f"in {eq.iterations} iterations, sup|price| = {eq.price.sup_norm():.4f}")

report = rate_study(eq.price, model, [8, 16, 32, 64, 128, 256], seeds=[1, 2, 3],
                    n_scenarios=48)
print(report.summary())
