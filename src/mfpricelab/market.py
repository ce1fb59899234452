"""Finite-N validation of the mean-field price.

clearing_residual estimates E[ int_0^T |(1/N) sum alpha|^2 dt ] for a market
of N_I + N_S agents that share the common noise, informed factor and the
mean-field price tree, each with fresh idiosyncratic noise.  rate_study fits
the decay rate in N against the analytic bound 8*T*C_B^2*sum(1/Lambda_p^2)/N.
informed_inference_check(model, batch) solves the equilibrium on the batch
and verifies the single-informed-agent identity there: the informed trading
rate is recoverable from the price and the standard population's conditional
adjoint alone.  It reads the price's tables and the response key statistics
of the solve's stopping evaluation, and evaluates the price map no further.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ModelError
from .fbsde import backward_integral, solve_agent
from .models import AFFINE, MarketModel
from .price import DiscretePrice, key_label
from .sampling import ScenarioBatch, idiosyncratic_copies, sample_batch
from .tree import GridSpec


@dataclass
class ClearingEstimate:
    value: float
    se: float
    per_scenario: np.ndarray


@dataclass
class ClearingReport:
    N_values: list
    residuals: np.ndarray
    stderrs: np.ndarray
    bound_constants: np.ndarray
    slope: Optional[float]
    slope_stderr: Optional[float]
    exact_clearing: bool
    bound_ok: np.ndarray

    def summary(self) -> str:
        if self.exact_clearing:
            head = "exact clearing: all residuals vanish; slope undefined"
        else:
            head = f"log-log slope {self.slope:.3f} +- {self.slope_stderr:.3f}"
        rows = [head]
        for n, r, s, b in zip(self.N_values, self.residuals, self.stderrs, self.bound_constants):
            rows.append(f"  N={n:5d} residual={r:.6e} (se {s:.1e}) bound={b:.6e}")
        return "\n".join(rows)


def clearing_bound(model: MarketModel, N: int) -> float:
    """The market-clearing proof constant 8*T*C_B^2*sum_p (1/Lambda_p)^2, at size N."""
    s = model.informed.lam_bar ** 2 + model.standard.lam_bar ** 2
    return 8.0 * model.bounds.T * model.bounds.C_B ** 2 * s / N


def _population_batch(common, xi, w):
    """Flattened finite-market batch: common rows repeated per agent, and the
    fresh idiosyncratics (xi, w) in both populations' slots, since only the
    solved population's slot is read.  Its b is new, so it gives all three
    late paths (w twice, and the factor's rows, taken when first read), and
    its node path projects the repeated rows."""
    reps = np.repeat(np.arange(common.count), xi.shape[0] // common.count)
    return replace(common, b=common.b[reps], c=lambda: common.c[reps],
                   w_I=w, xi_I=xi, w_S=w, xi_S=xi)


def _agent_controls(price: DiscretePrice, model: MarketModel, common, population: str,
                    n_agents: int, seed: int):
    """Per-scenario, per-agent optimal control slabs under the mean-field
    price, shape (M, n_agents, n_intervals, m+1)."""
    agent = model.informed if population == "I" else model.standard
    xi, w = idiosyncratic_copies(common.spec, seed, common.count, n_agents, population)
    batch = _population_batch(common, xi, w)
    buckets = model.solver.conditioner(batch, price.mode)
    sol = solve_agent(batch, price, agent, buckets, model.bounds)
    return sol.alpha.reshape((common.count, n_agents) + sol.alpha.shape[1:])


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Mean of per-scenario values and its standard error; needs two or more values."""
    if vals.size < 2:
        raise ValueError(f"a standard error needs >= 2 per-scenario values, got {vals.size}")
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def _residual_from_controls(controls: dict, spec, n_use: dict) -> np.ndarray:
    """Per-scenario int |(1/N) sum_j alpha|^2 dt using the first n_use agents.

    Agents are summed in value order so the estimate is exactly invariant
    under relabeling (float addition is not associative)."""
    N = sum(n_use.values())
    parts = [np.sort(a[:, :n_use[pop]], axis=1).sum(axis=1) for pop, a in controls.items()]
    return backward_integral((sum(parts) / N) ** 2, spec)[:, 0]


def clearing_residual(price: DiscretePrice, model: MarketModel, N_I: int, N_S: int,
                      seed: int, n_scenarios: int = 64) -> ClearingEstimate:
    """Monte Carlo + trapezoid estimate of the squared average trading rate."""
    if N_I < 1 or N_S < 1:
        raise ValueError("population sizes must be >= 1")
    common = sample_batch(model.grid, seed, n_scenarios, model.factor)
    controls = {
        "I": _agent_controls(price, model, common, "I", N_I, seed + 1),
        "S": _agent_controls(price, model, common, "S", N_S, seed + 2),
    }
    vals = _residual_from_controls(controls, model.grid, {"I": N_I, "S": N_S})
    value, se = _mean_se(vals)
    return ClearingEstimate(value=value, se=se, per_scenario=vals)


def check_sizes(N_values, w_I: float) -> dict:
    """A rate study's distinct sizes N, ascending, mapped to (k_I, k_S) = (max(1, round(w_I*N)),
    N - k_I): four or more, the largest >= 4x the smallest, and no population empty."""
    N_values = sorted({int(n) for n in N_values})
    if len(N_values) < 4 or N_values[-1] < 4 * N_values[0]:
        raise ValueError(f"rate study needs >= 4 market sizes spanning >= 2 octaves, got {N_values}")
    split = {}
    for N in N_values:
        k_I = max(1, round(w_I * N))
        if N - k_I < 1:
            raise ValueError(f"market size N={N} leaves the standard population empty "
                             f"(informed weight {w_I:g} gives {k_I} informed agents)")
        split[N] = (k_I, N - k_I)
    return split


def rate_study(price: DiscretePrice, model: MarketModel, N_values: list, seeds: list,
               n_scenarios: int = 48) -> ClearingReport:
    """Residual decay across market sizes.

    Per seed, one pooled FBSDE solve at the largest size; smaller markets are
    nested subsets of the same agents (common random numbers across N).
    """
    split = check_sizes(N_values, model.informed.weight)
    N_values = list(split)
    k_imax, k_smax = split[N_values[-1]]
    per_N_vals = {N: [] for N in N_values}
    for seed in seeds:
        common = sample_batch(model.grid, int(seed), n_scenarios, model.factor)
        controls = {
            "I": _agent_controls(price, model, common, "I", k_imax, int(seed) + 1),
            "S": _agent_controls(price, model, common, "S", k_smax, int(seed) + 2),
        }
        for N in N_values:
            ki, ks = split[N]
            vals = _residual_from_controls(controls, model.grid, {"I": ki, "S": ks})
            per_N_vals[N].append(vals)
    residuals, stderrs = np.array([_mean_se(np.concatenate(per_N_vals[N])) for N in N_values]).T
    bounds = np.array([clearing_bound(model, N) for N in N_values])
    bound_ok = residuals <= bounds + 3.0 * stderrs
    exact = bool(np.all(residuals <= 1e-14))
    slope = slope_se = None
    if not exact:
        if np.any(residuals <= 0):
            raise ModelError("degenerate regression: nonpositive residuals with noise")
        x = np.log(np.asarray(N_values, dtype=float))
        y = np.log(residuals)
        A = np.column_stack([x, np.ones_like(x)])
        coef, res_ss, *_ = np.linalg.lstsq(A, y, rcond=None)
        slope = float(coef[0])
        dof = len(N_values) - 2
        s2 = float(res_ss[0]) / dof if res_ss.size and dof > 0 else 0.0
        cov = s2 * np.linalg.inv(A.T @ A)
        slope_se = float(np.sqrt(max(cov[0, 0], 0.0)))
    return ClearingReport(N_values=N_values, residuals=residuals, stderrs=stderrs,
                          bound_constants=bounds, slope=slope, slope_stderr=slope_se,
                          exact_clearing=exact, bound_ok=bound_ok)


@dataclass
class InformedCheckResult:
    max_gap: float
    max_gap_over_tol: float
    passed: bool
    fp_slack: float
    rows: list  # per interval: (key codes, t, beta_direct, beta_inferred, gap, tol)

    def summary(self) -> str:
        return (f"informed inference: max gap {self.max_gap:.3e} "
                f"(worst gap/tol {self.max_gap_over_tol:.3f}, "
                f"fixed-point slack {self.fp_slack:.1e}) -> "
                f"{'PASS' if self.passed else 'FAIL'}")


def informed_inference_check(model: MarketModel, batch: ScenarioBatch) -> InformedCheckResult:
    """Verify that the informed trading rate equals its inference from public
    information at the equilibrium: beta = (n_S/n_I) * (1/Lambda_S) * (price +
    E[Y_S | key]).  Requires the informed costs to be affine functions of
    (t, price, common noise) so the informed adjoint is key-measurable.
    """
    if model.informed.cost_mode != AFFINE:
        raise ModelError("informed inference check requires affine informed costs")
    if model.informed.reads_factor:
        raise ModelError("informed costs must depend on (t, price, common noise) only")
    # looked up at call time, so a replaced equilibrium.solve_fixed_point (the
    # benchmark's informed-cli workload captures the report this way) is used
    from .equilibrium import solve_fixed_point

    report = solve_fixed_point(batch, model, informed_state=False)
    price = report.price
    lam_bar_I = model.informed.lam_bar
    lam_bar_S = model.standard.lam_bar
    ratio = model.standard.weight / model.informed.weight
    # the identity gap equals (w_bar/n_I)*|Phi(theta)-theta| exactly at the
    # responses of the stopping evaluation, whose map residual is at most tol
    w_bar = model.informed.weight * lam_bar_I + model.standard.weight * lam_bar_S
    fp_slack = w_bar / model.informed.weight * model.solver.tol
    spec = batch.spec
    m = spec.m
    rows = []
    max_gap = worst = 0.0
    sub_dt = spec.interval_length / m
    for i in range(spec.n_intervals):
        mat = price.tables[i]
        stats_I, stats_S = (report.response_stats[p][i] for p in "IS")
        beta_direct = -lam_bar_I * (stats_I.mean + mat)
        beta_inferred = ratio * lam_bar_S * (mat + stats_S.mean)
        se = np.where(np.isfinite(stats_S.se), stats_S.se, np.inf)
        tol = 3.0 * ratio * lam_bar_S * se + fp_slack
        gap = np.abs(beta_direct - beta_inferred)
        max_gap = max(max_gap, float(gap.max()))
        worst = max(worst, float(np.max(gap / tol)))
        rows.append((price.codes[i], i * spec.interval_length + np.arange(m + 1) * sub_dt,
                     beta_direct, beta_inferred, gap, tol))
    return InformedCheckResult(max_gap=max_gap, max_gap_over_tol=worst,
                               passed=worst <= 1.0, fp_slack=fp_slack, rows=rows)


def clearing_report_csv(path, report: ClearingReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,residual,stderr,bound\n")
        for n, r, s, b in zip(report.N_values, report.residuals, report.stderrs,
                              report.bound_constants):
            fh.write(f"{n},{r:.17g},{s:.17g},{b:.17g}\n")


def informed_check_csv(path, result: InformedCheckResult, spec: GridSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval,key,t,beta_direct,beta_inferred,gap,tol\n")
        for i, (codes, t, bd, bi, gap, tol) in enumerate(result.rows):
            for k, prefix in enumerate(codes.tolist()):
                label = key_label(spec, prefix)
                for s in range(t.size):
                    fh.write(f"{i},{label},{t[s]:.17g},{bd[k, s]:.17g},{bi[k, s]:.17g},"
                             f"{gap[k, s]:.17g},{tol[k, s]:.17g}\n")
