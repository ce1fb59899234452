"""Numerical laboratory for two-population equilibrium price formation
under asymmetric information: common-noise tree discretization, per-population
FBSDE solvers, the fixed-point price map, and finite-market validation."""

from .conditioning import TreeConditioner
from .equilibrium import (EquilibriumReport, apply_phi, consistency_residual,
                          diagnostics, mz_distance, price_metric,
                          refinement_study, solve_fixed_point)
from .errors import (ConfigError, DivergenceError, ModelError, PicardError,
                     PriceLabError)
from .fbsde import (FbsdeSolution, cost_functional, decoupling_gamma,
                    decoupling_probe, optimal_control, per_sample_cost,
                    solve_affine, solve_convex)
from .market import (ClearingReport, clearing_bound, clearing_residual,
                     informed_inference_check, rate_study)
from .models import (AFFINE, GENERAL_CONVEX, AgentSpec, MarketModel,
                     ModelBounds, preset, validate)
from .price import DiscretePrice, materialize, price_to_csv, zero_price
from .sampling import (InformedFactorSpec, ScenarioBatch, discretize_at_level,
                       sample_batch)
from .tree import (FULL_PREFIX, MARKOV, GridSpec, Lattice, TransitionKernel,
                   TreeKey, kernel_row, project_path, project_scalar,
                   transition_matrix)

__version__ = "0.1.0"
