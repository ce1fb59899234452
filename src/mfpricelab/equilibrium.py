"""The discretized equilibrium engine.

The input-output map sends a candidate tree price to minus the weighted
conditional expectation of the two populations' adjoints given the tree key,
interval by interval.  Equilibria are located by damped Picard iteration of
that map under common random numbers, so the map is a deterministic function
of the candidate and the residual trace is meaningful.  The module also hosts
the quantitative diagnostics: boundedness, within-interval time-Lipschitz
slope, conditional variation over the dyadic partition, and the Meyer-Zheng
coupling distance used by the refinement study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .conditioning import TreeConditioner
from .errors import DivergenceError
from .fbsde import FbsdeSolution, solve_agent
from .models import AFFINE, MarketModel
from .price import (DiscretePrice, blend, fine_path, interval_matrix, interval_view, key_rows,
                    materialize, price_metric, zero_price)
from .sampling import ScenarioBatch, discretize_at_level, sample_batch
from .tree import MARKOV

__all__ = [
    "apply_phi", "price_metric", "solve_fixed_point", "consistency_residual",
    "mz_distance", "diagnostics", "check_levels", "refinement_study", "EquilibriumReport",
    "PhiStats", "DiagnosticsRecord",
]


@dataclass
class PhiStats:
    """Monte Carlo quality of one price-map application, per interval."""

    se: list            # interval -> (n_keys, m+1) standard errors of the price values
    fallback: list      # interval -> bool per key
    clip_excess: float  # how far raw values exceeded the C_B envelope (float dust)


@dataclass
class DiagnosticsRecord:
    sup_price: float
    sup_Y_I: float
    sup_Y_S: float
    time_lipschitz_max: float
    time_lipschitz_bound_excess: float
    cond_variation_price: float
    cond_variation_price_se: float
    cond_variation_Y_I: float
    cond_variation_Y_I_se: float
    cond_variation_Y_S: float
    cond_variation_Y_S_se: float


@dataclass
class EquilibriumReport:
    price: DiscretePrice
    iterations: int
    residual_trace: list
    diagnostics: DiagnosticsRecord
    converged: bool
    tol: float
    iterate_sup_price: list = field(default_factory=list)
    iterate_sup_Y: list = field(default_factory=list)
    phi_stats: Optional[PhiStats] = None
    warnings: list = field(default_factory=list)

    def summary(self, bounds=None) -> str:
        d = self.diagnostics
        lines = [
            f"converged={self.converged} iterations={self.iterations} "
            f"final_residual={self.residual_trace[-1]:.3e} tol={self.tol:g}",
            f"sup|price|={d.sup_price:.6g} sup|Y_I|={d.sup_Y_I:.6g} sup|Y_S|={d.sup_Y_S:.6g}",
            f"time-Lipschitz max={d.time_lipschitz_max:.6g}",
            f"cond. variation: price={d.cond_variation_price:.6g} "
            f"Y_I={d.cond_variation_Y_I:.6g} Y_S={d.cond_variation_Y_S:.6g}",
        ]
        if bounds is not None:
            lines.append(
                f"thresholds: C_B={bounds.C_B:g} (sup bounds), 2L={2 * bounds.L:g} "
                f"(time-Lipschitz), 2LT={2 * bounds.L * bounds.T:g} (price variation), "
                f"TL={bounds.T * bounds.L:g} (adjoint variation)")
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def _weights(model: MarketModel) -> tuple[float, float, float]:
    wi = model.informed.weight * model.informed.lam_bar
    ws = model.standard.weight * model.standard.lam_bar
    return wi, ws, 1.0 / (wi + ws)


def _combined_response(model: MarketModel, sol_I: FbsdeSolution, sol_S: FbsdeSolution) -> np.ndarray:
    wi, ws, inv = _weights(model)
    return (wi * sol_I.response + ws * sol_S.response) * inv


def apply_phi(theta: DiscretePrice, batch: ScenarioBatch, model: MarketModel,
              buckets: Optional[TreeConditioner] = None, informed_state: bool = True,
              warm: Optional[dict] = None, return_internals: bool = False):
    """One application of the input-output price map.

    Solves both populations' FBSDEs under the candidate price and returns the
    new tree price (clipped to the C_B envelope, which the raw values respect
    up to float dust).  `informed_state` False conditions the affine informed
    adjoint on the tree key alone (see solve_affine).
    """
    spec = batch.spec
    if buckets is None:
        buckets = TreeConditioner(spec, batch.node_path, mode=theta.mode,
                                  min_count=model.solver.min_bucket)
    env = materialize(theta, buckets)
    warm = warm or {}
    sols = {}
    for agent in model.agents():
        sols[agent.population] = solve_agent(
            batch, theta, agent, buckets, model.bounds, informed_state=informed_state, env=env,
            **({"warm_start": warm.get(agent.population)} if agent.cost_mode != AFFINE else {}))
    combo = interval_view(_combined_response(model, sols["I"], sols["S"]), spec.m)
    C_B = model.bounds.C_B
    tables, se_list, fb_list = [], [], []
    clip_excess = 0.0
    for i in range(spec.n_intervals):
        stats = buckets.bucket_stats(i, combo[:, i])
        raw = -stats.mean
        clip_excess = max(clip_excess, float(np.max(np.abs(raw))) - C_B)
        tables.append(np.clip(raw, -C_B, C_B))
        se_list.append(stats.se)
        fb_list.append(stats.fallback)
    out = DiscretePrice.from_tables(buckets, tables)
    stats = PhiStats(se=se_list, fallback=fb_list, clip_excess=max(clip_excess, 0.0))
    if return_internals:
        return out, stats, sols
    return out


def solve_fixed_point(batch: ScenarioBatch, model: MarketModel,
                      buckets: Optional[TreeConditioner] = None, informed_state: bool = True,
                      init: Optional[DiscretePrice] = None) -> EquilibriumReport:
    """Damped Picard iteration theta_{k+1} = (1-rho)*theta_k + rho*Phi(theta_k).

    Every setting comes from model.solver.  Stops when the iterate
    displacement (in the tree sup metric) falls below tol; raises
    DivergenceError if the residual exceeds 10*C_B.  The same batch (common
    random numbers) and conditioner are reused across iterations; `buckets`
    defaults to one built in the solver's key mode.
    """
    sd = model.solver
    if buckets is None:
        buckets = TreeConditioner(batch.spec, batch.node_path, mode=sd.key_mode(batch.spec.n),
                                  min_count=sd.min_bucket)
    warnings = []
    if buckets.mode == MARKOV:
        warnings.append("markov key mode: conditioning on the current lattice state only")
    if buckets.n_fallback_keys():
        share, worst = max((buckets.pooled_share(i), i) for i in range(batch.spec.n_intervals))
        warnings.append(f"{buckets.n_fallback_keys()} undersized keys pooled via kernel fallback; at "
                        f"interval {worst} they hold a share {share:.3g} of the samples, the most of any")
    if buckets.n_lone_small_keys():
        warnings.append(f"{buckets.n_lone_small_keys()} undersized keys (below min_bucket "
                        f"{buckets.min_count}) are alone at their interval and cannot be pooled")

    theta = zero_price(batch.spec, buckets) if init is None else init
    trace, sup_p, sup_y = [], [], []
    warm: dict = {}
    stats = sols = None
    converged = False
    iterations = 0
    for _ in range(sd.max_iter):
        iterations += 1
        phi, stats, sols = apply_phi(theta, batch, model, buckets=buckets,
                                     informed_state=informed_state,
                                     warm=warm, return_internals=True)
        warm = {a.population: sols[a.population].Y for a in model.agents()
                if a.cost_mode != AFFINE}
        new_theta = blend(theta, phi, sd.damping)
        resid = price_metric(new_theta, theta)
        trace.append(resid)
        sup_p.append(new_theta.sup_norm())
        sup_y.append({p: _sup_fine(s.Y) for p, s in sols.items()})
        theta = new_theta
        if resid > 10.0 * model.bounds.C_B:
            raise DivergenceError(f"fixed-point iteration diverged (residual {resid:.3e})", trace)
        if resid <= sd.tol:
            converged = True
            break

    diag = diagnostics(theta, sols, batch, buckets, model)
    return EquilibriumReport(price=theta, iterations=iterations, residual_trace=trace,
                             diagnostics=diag, converged=converged, tol=sd.tol,
                             iterate_sup_price=sup_p, iterate_sup_Y=sup_y,
                             phi_stats=stats, warnings=warnings)


def mz_distance(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Meyer-Zheng distance: trapezoid estimate of int 1 ^ |x-y| dt.

    Accepts single trajectories or matrices of per-sample trajectories on the
    shared grid; bounded by the horizon T.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if x.shape != y.shape or x.shape[-1] != grid.size:
        raise ValueError("trajectories must share the grid")
    integrand = np.minimum(np.abs(x - y), 1.0)
    dt = np.diff(grid)
    return 0.5 * ((integrand[..., :-1] + integrand[..., 1:]) * dt).sum(axis=-1)


def _sup_fine(slab: np.ndarray) -> float:
    """Sup of a cadlag slab over its fine-grid points (left limits only at T)."""
    return float(np.max(np.abs(fine_path(slab))))


def _conditional_variation(path: np.ndarray, buckets: TreeConditioner) -> tuple[float, float]:
    """Tree estimate of the conditional variation over the dyadic partition:
    sum_j E |E[ A_{t_{j+1}} - A_{t_j} | key_j ]| with bucket means, plus the
    quadrature-combined standard error of the estimate; A is a fine-grid path."""
    spec = buckets.spec
    m = spec.m
    total = 0.0
    var = 0.0
    count = buckets.count
    for j in range(spec.n_intervals):
        diff = path[:, (j + 1) * m] - path[:, j * m]
        stats = buckets.bucket_stats(j, diff)
        frac = stats.counts / count
        total += float(np.sum(frac * np.abs(stats.mean[:, 0])))
        se = np.where(np.isfinite(stats.se[:, 0]), stats.se[:, 0], 0.0)
        var += float(np.sum((frac * se) ** 2))
    return total, float(np.sqrt(var))


def diagnostics(price: DiscretePrice, solutions: dict, batch: ScenarioBatch,
                buckets: TreeConditioner, model: MarketModel) -> DiagnosticsRecord:
    """Boundedness, time-Lipschitz and conditional-variation diagnostics."""
    spec = price.spec
    L = model.bounds.L
    dt_sub = spec.interval_length / spec.m
    lip_max = 0.0
    lip_excess = -np.inf
    combo = interval_view(_combined_response(model, solutions["I"], solutions["S"]), spec.m)
    for i in range(spec.n_intervals):
        mat, _ = interval_matrix(price, buckets, i)
        slopes = np.abs(np.diff(mat, axis=1)) / dt_sub
        lip_max = max(lip_max, float(slopes.max()))
        inc_stats = buckets.bucket_stats(i, np.diff(combo[:, i], axis=1))
        se = np.where(np.isfinite(inc_stats.se), inc_stats.se, 0.0)
        excess = slopes - 2.0 * L - 10.0 * se / dt_sub
        lip_excess = max(lip_excess, float(excess.max()))

    cv_p, cv_p_se = _conditional_variation(fine_path(materialize(price, buckets).path), buckets)
    cv_i, cv_i_se = _conditional_variation(fine_path(solutions["I"].Y), buckets)
    cv_s, cv_s_se = _conditional_variation(fine_path(solutions["S"].Y), buckets)
    return DiagnosticsRecord(
        sup_price=price.sup_norm(),
        sup_Y_I=_sup_fine(solutions["I"].Y),
        sup_Y_S=_sup_fine(solutions["S"].Y),
        time_lipschitz_max=lip_max,
        time_lipschitz_bound_excess=lip_excess,
        cond_variation_price=cv_p, cond_variation_price_se=cv_p_se,
        cond_variation_Y_I=cv_i, cond_variation_Y_I_se=cv_i_se,
        cond_variation_Y_S=cv_s, cond_variation_Y_S_se=cv_s_se)


@dataclass
class ConsistencyResult:
    per_interval: np.ndarray       # max |Phi(price) - price| per interval, eligible keys
    per_interval_se: np.ndarray    # fresh-batch standard error at the worst key
    worst_ratio: float             # max over keys of gap / (tol + 3*sqrt(2)*se)
    tol: float
    skipped_keys: int              # keys absent from the stored price or pooled fresh

    @property
    def max_residual(self) -> float:
        return float(np.max(self.per_interval))


def consistency_residual(price: DiscretePrice, model: MarketModel,
                         seed: int) -> ConsistencyResult:
    """Out-of-sample fixed-point quality: recompute the price map on a fresh
    batch (fresh seed, model.solver.samples) and measure the per-interval
    sup gap to the stored price.  Only keys stored exactly and well-populated
    in the fresh batch enter the gap; rare keys would be compared through
    fallback estimates whose error the bucket standard error cannot
    calibrate, so they are counted in skipped_keys instead.  The gap is
    judged against tol + 3*sqrt(2)*se (both sides carry comparable Monte
    Carlo noise), with tol = model.solver.tol.
    """
    tol = model.solver.tol
    fresh = sample_batch(model.grid, seed, model.solver.samples, model.factor)
    buckets = TreeConditioner(model.grid, fresh.node_path, mode=price.mode,
                              min_count=model.solver.min_bucket)
    phi, stats, _ = apply_phi(price, fresh, model, buckets=buckets, return_internals=True)
    spec = model.grid
    out = np.zeros(spec.n_intervals)
    out_se = np.zeros(spec.n_intervals)
    worst_ratio = 0.0
    skipped = 0
    for i in range(spec.n_intervals):
        rows = key_rows(price, buckets, i)
        judged = (rows >= 0) & ~stats.fallback[i]
        skipped += int(judged.size - judged.sum())
        if not judged.any():
            continue
        gap = np.abs(phi.tables[i][judged] - price.tables[i][rows[judged]])
        se = np.where(np.isfinite(stats.se[i][judged]), stats.se[i][judged], 0.0)
        worst_ratio = max(worst_ratio, float(np.max(gap / (tol + 3.0 * np.sqrt(2.0) * se))))
        j = np.argmax(gap)  # the first key, then sub-time, at the largest gap
        if gap.flat[j] > 0.0:
            out[i], out_se[i] = gap.flat[j], se.flat[j]
    return ConsistencyResult(per_interval=out, per_interval_se=out_se,
                             worst_ratio=worst_ratio, tol=tol, skipped_keys=skipped)


@dataclass
class RefinementRow:
    pair: tuple
    median_dm: float
    mean_dm: float


@dataclass
class RefinementTable:
    rows: list
    level_reports: dict  # n -> EquilibriumReport

    def medians(self) -> list:
        return [r.median_dm for r in self.rows]


def default_level_resolution(n: int, cap: int = 4) -> int:
    """Lattice resolution coupled to the time depth (l = 2n, capped for desk
    scale so buckets stay populated)."""
    return min(2 * n, cap)


def check_levels(levels, n: int) -> list:
    """The levels of a refinement study: two or more, strictly ascending, in 1..n."""
    levels = list(levels)
    if (len(levels) < 2 or levels[0] < 1 or levels[-1] > n
            or any(b <= a for a, b in zip(levels[:-1], levels[1:]))):
        raise ValueError(f"refinement needs two or more strictly ascending levels in "
                         f"1..{n} (the grid's n), got {levels}")
    return levels


def refinement_study(model: MarketModel, levels: list, batch: ScenarioBatch,
                     level_resolution=default_level_resolution) -> RefinementTable:
    """Pathwise-coupled Meyer-Zheng distances between successive dyadic levels.

    All levels are derived views of the same Brownian batch; prices are solved
    per level, with lattice resolution level_resolution(n), and evaluated
    sample by sample on the shared fine grid.  Keys are Markov unless
    model.solver.mode sets them, for every level alike: with prefix keys the
    deepest level of a study splits the batch into keys of a sample or two,
    nearly all of them pooled.
    """
    levels = check_levels(levels, batch.spec.n)
    mode = model.solver.mode or MARKOV
    trajectories = {}
    reports = {}
    for n in levels:
        sub_spec, node = discretize_at_level(batch, n, level_resolution(n))
        sub_batch = replace(batch, spec=sub_spec, node_path=node)
        buckets = TreeConditioner(sub_spec, node, mode=mode, min_count=model.solver.min_bucket)
        report = solve_fixed_point(sub_batch, model.with_grid(sub_spec), buckets=buckets)
        reports[n] = report
        trajectories[n] = fine_path(materialize(report.price, buckets).path)
    rows = []
    for a, b in zip(levels[:-1], levels[1:]):
        dm = mz_distance(trajectories[a], trajectories[b], batch.fine_grid)
        rows.append(RefinementRow(pair=(a, b), median_dm=float(np.median(dm)),
                                  mean_dm=float(np.mean(dm))))
    return RefinementTable(rows=rows, level_reports=reports)
