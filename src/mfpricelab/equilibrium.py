"""The discretized equilibrium engine.

The input-output map sends a candidate tree price to minus the weighted
conditional expectation of the two populations' adjoints given the tree key,
interval by interval.  An equilibrium is the fixed point of the coupled
system: the price of the map, and each convex agent's adjoint of its own
Picard map under that price.  It is located by Anderson-accelerated
iteration of one vector holding the price tables and the convex adjoints,
one Picard pass per agent and evaluation, under common random numbers, so
the map is a deterministic function of the candidate and the residual
trace, the map residual max|Phi(theta) - theta| of each evaluated iterate,
is meaningful.  An evaluation stops the iteration when its map residual
plus the largest move of its passes is at most tol, which bounds the exact
map's residual (cold inner solves) by tol.  The module also hosts
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
from .fbsde import _PICARD_TOL, FbsdeSolution, _picard_map, solve_agent
from .models import AFFINE, MarketModel
from .price import (DiscretePrice, fine_path, interval_matrix, interval_view, key_rows,
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
    response_stats: dict = field(default_factory=dict)  # population -> interval -> BucketStats
    warnings: list = field(default_factory=list)
    restarts: int = 0

    def summary(self, bounds=None) -> str:
        d = self.diagnostics
        lines = [
            f"converged={self.converged} iterations={self.iterations} restarts={self.restarts} "
            f"map residual={self.residual_trace[-1]:.3e} tol={self.tol:g}",
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
              iterates: Optional[dict] = None, return_internals: bool = False,
              cold_tol: float = _PICARD_TOL):
    """One application of the input-output price map.

    Solves both populations' FBSDEs under the candidate price and returns the
    new tree price (clipped to the C_B envelope, which the raw values respect
    up to float dust).  `informed_state` False conditions the affine informed
    adjoint on the tree key alone (see solve_affine).  Without `iterates`
    every agent is solved exactly (convex agents by a cold solve_convex to
    the Picard tolerance `cold_tol`; only the consistency check loosens it).
    `iterates` maps a convex agent's population to a Y slab: that agent then
    takes one Picard pass from it, and its solution is that pass's.  Affine
    agents are always solved directly.
    """
    spec = batch.spec
    if buckets is None:
        buckets = model.solver.conditioner(batch, theta.mode)
    env = materialize(theta, buckets)
    sols = {}
    for agent in model.agents():
        p = agent.population
        if iterates is not None and agent.cost_mode != AFFINE:
            sols[p] = _picard_map(batch, env, agent, buckets, model.bounds)(iterates[p])
        else:
            sols[p] = solve_agent(batch, theta, agent, buckets, model.bounds,
                                  informed_state=informed_state, tol=cold_tol, env=env)
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


_ANDERSON_MEMORY = 2


def _anderson_weights(dF: list, f: np.ndarray) -> np.ndarray:
    """The weights gamma minimizing |f - sum_i gamma_i dF_i|, from the normal
    equations.  The inner products are numpy reductions, not BLAS calls, so
    the weights do not depend on the BLAS thread count.  Raises LinAlgError
    if the Gram matrix is singular."""
    gram = np.empty((len(dF), len(dF)))
    for i, a in enumerate(dF):
        for j in range(i, len(dF)):
            gram[i, j] = gram[j, i] = np.sum(a * dF[j])
    return np.linalg.solve(gram, np.array([np.sum(a * f) for a in dF]))


def solve_fixed_point(batch: ScenarioBatch, model: MarketModel,
                      buckets: Optional[TreeConditioner] = None, informed_state: bool = True,
                      init: Optional[DiscretePrice] = None) -> EquilibriumReport:
    """Anderson type-II iteration of the coupled equilibrium system.

    The iterate is one vector x = [price tables | Y slab of each convex
    agent], convex adjoints starting from 0.  One evaluation applies the
    price map with one Picard pass per convex agent from its Y (see
    apply_phi; affine agents are solved directly), and its residual is
    f = [Phi(theta) - theta | Y_hat - Y].  The first step is the plain step
    x + f; later steps take the Anderson update over the last
    _ANDERSON_MEMORY differences of iterates and residuals with unit mixing
    (Walker & Ni, 2011).  If the largest of the map residual
    max|Phi(theta) - theta| and the agents' pass updates max|Y_hat - Y|
    grows, the history is cleared and the plain step retaken (counted in
    `restarts`); so it is, uncounted, when the weights' Gram matrix is
    singular (dependent differences).  The price part of every step is
    clipped to +-C_B.  Raises DivergenceError if the map residual exceeds
    10*C_B.

    Stops at the first evaluated iterate whose map residual plus its
    largest pass update is <= tol, and returns it with the diagnostics and
    response_stats of its own solutions.  That bounds the exact map's
    residual there (cold inner solves) by tol: the regression's predictions
    average back to each key's mean, so the exact map moves the price by at
    most the key mean of Y* - Y_hat, which a Picard contraction of rate rho
    bounds by rho/(1-rho) times the update, at most the update itself for
    rho <= 1/2.  With affine agents only, x is the price and its residual
    alone stops.  `max_iter` counts evaluations.

    Every setting comes from model.solver.  The same batch (common random
    numbers) and conditioner are reused across iterations; `buckets`
    defaults to one built in the solver's key mode.
    """
    sd = model.solver
    if buckets is None:
        buckets = sd.conditioner(batch)
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

    C_B = model.bounds.C_B
    theta = zero_price(batch.spec, buckets) if init is None else init
    convex = [a.population for a in model.agents() if a.cost_mode != AFFINE]
    slab = (batch.count, batch.spec.n_intervals, batch.spec.m + 1)
    cuts = np.cumsum([0] + [t.size for t in theta.tables])  # table i is x[cuts[i]:cuts[i+1]]
    n_price = int(cuts[-1])
    x = np.zeros(n_price + len(convex) * int(np.prod(slab)))
    for t, lo, hi in zip(theta.tables, cuts[:-1], cuts[1:]):
        x[lo:hi] = t.ravel()
    trace, sup_p, sup_y = [], [], []
    dX, dF = [], []  # the last steps taken (after the clip) and residual differences, newest last
    f_prev = taken = None
    last = np.inf  # the largest of the map residual and the pass updates at the previous evaluation
    restarts = 0
    converged = False
    for _ in range(sd.max_iter):
        Ys = _agent_slabs(x, n_price, convex, slab)
        phi, stats, sols = apply_phi(theta, batch, model, buckets=buckets,
                                     informed_state=informed_state, iterates=Ys,
                                     return_internals=True)
        f = np.empty_like(x)
        for t, lo, hi in zip(phi.tables, cuts[:-1], cuts[1:]):
            np.subtract(t.ravel(), x[lo:hi], out=f[lo:hi])
        updates = _agent_slabs(f, n_price, convex, slab)
        for p in convex:
            np.subtract(sols[p].Y, Ys[p], out=updates[p])
        deltas = [_sup_fine(updates[p]) for p in convex]
        resid = price_metric(phi, theta)
        trace.append(resid)
        sup_p.append(theta.sup_norm())
        sup_y.append({p: _sup_fine(s.Y) for p, s in sols.items()})
        if resid > 10.0 * C_B:
            raise DivergenceError(f"fixed-point iteration diverged (residual {resid:.3e})", trace)
        if resid + max(deltas, default=0.0) <= sd.tol:
            converged = True
            break
        if len(trace) == sd.max_iter:
            break  # the last evaluated iterate is returned
        del sols  # the next evaluation's solutions are the only ones held

        worst = max([resid] + deltas)
        if worst > last:
            dX.clear()
            dF.clear()
            restarts += 1
        elif f_prev is not None:
            dX.append(taken)
            dF.append(np.subtract(f, f_prev, out=f_prev))
        last, f_prev = worst, f
        step = x + f
        if dF:
            try:
                gamma = _anderson_weights(dF, f)
            except np.linalg.LinAlgError:  # dependent differences: restart, not counted
                dX.clear()
                dF.clear()
            else:
                scratch = np.empty_like(x)  # one history column's correction
                for g, dx, df in zip(gamma, dX, dF):
                    np.add(dx, df, out=scratch)
                    scratch *= g
                    step -= scratch
                del scratch  # not held through the next evaluation, where the peak is
        np.clip(step[:n_price], -C_B, C_B, out=step[:n_price])
        if len(dF) == _ANDERSON_MEMORY:  # the next evaluation adds a difference
            del dX[0], dF[0]
        taken = np.subtract(step, x, out=x)
        x = step
        theta = replace(phi, tables=[x[lo:hi].reshape(t.shape).copy() for t, lo, hi in
                                     zip(phi.tables, cuts[:-1], cuts[1:])])

    diag = diagnostics(theta, sols, batch, buckets, model)
    resp = {p: interval_view(s.response, batch.spec.m) for p, s in sols.items()}
    response_stats = {p: [buckets.bucket_stats(i, r[:, i]) for i in range(batch.spec.n_intervals)]
                      for p, r in resp.items()}
    return EquilibriumReport(price=theta, iterations=len(trace), residual_trace=trace,
                             diagnostics=diag, converged=converged, tol=sd.tol,
                             iterate_sup_price=sup_p, iterate_sup_Y=sup_y, phi_stats=stats,
                             response_stats=response_stats, warnings=warnings,
                             restarts=restarts)


def _agent_slabs(vec: np.ndarray, n_price: int, convex: list, slab: tuple) -> dict:
    """Population -> view of its Y slab in a joint vector [price | Y of each convex agent]."""
    return dict(zip(convex, vec[n_price:].reshape((len(convex),) + slab)))


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
    """Sup of a cadlag slab over its fine-grid points (left limits only at T),
    read in place: every interval's sub-times 0..m-1, then the left limit at T.
    The abs turns the -0.0 of an all-zero slab into 0.0."""
    inner, last = slab[:, :, :-1], slab[:, -1, -1]
    return abs(float(np.max([inner.max(), -inner.min(), last.max(), -last.min()])))


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
    """Boundedness, time-Lipschitz and conditional-variation diagnostics of
    `price` and its evaluation's solutions, which hold materialize(price).path."""
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

    cv_p, cv_p_se = _conditional_variation(fine_path(solutions["I"].price_path), buckets)
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
    skipped_keys: int              # keys absent from the stored price or pooled in either batch

    @property
    def max_residual(self) -> float:
        return float(np.max(self.per_interval))


def consistency_residual(price: DiscretePrice, model: MarketModel,
                         seed: int) -> ConsistencyResult:
    """Out-of-sample fixed-point quality: recompute the price map on a fresh
    batch (fresh seed, model.solver.samples) and measure the per-interval
    sup gap to the stored price.  Only keys stored exactly, not pooled by
    the solve (price.pooled) and well-populated in the fresh batch enter the
    gap; rare keys would be compared through kernel-pooled estimates whose
    bias the bucket standard error cannot calibrate, so they are counted in
    skipped_keys instead.  The gap is judged against tol + 3*sqrt(2)*se
    (both sides carry comparable Monte Carlo noise), with tol =
    model.solver.tol.  The fresh map's cold convex solves stop at a pass
    update <= tol, the standard the solve's own stop holds its passes to.
    """
    tol = model.solver.tol
    fresh = sample_batch(model.grid, seed, model.solver.samples, model.factor)
    buckets = model.solver.conditioner(fresh, price.mode)
    phi, stats, _ = apply_phi(price, fresh, model, buckets=buckets, return_internals=True,
                              cold_tol=tol)
    spec = model.grid
    out = np.zeros(spec.n_intervals)
    out_se = np.zeros(spec.n_intervals)
    worst_ratio = 0.0
    skipped = 0
    for i in range(spec.n_intervals):
        rows = key_rows(price, buckets, i)
        # a row of -1 (a key the price does not store) reads the appended True
        judged = ~np.append(price.pooled[i], True)[rows] & ~stats.fallback[i]
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


def default_level_resolution(n: int) -> int:
    """Lattice resolution coupled to the time depth (l = 2n, capped at 4 for
    desk scale so buckets stay populated)."""
    return min(2 * n, 4)


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
        sub_batch = discretize_at_level(batch, n, level_resolution(n))
        buckets = model.solver.conditioner(sub_batch, mode)
        report = solve_fixed_point(sub_batch, model.with_grid(sub_batch.spec), buckets=buckets)
        reports[n] = report
        trajectories[n] = fine_path(materialize(report.price, buckets).path)
    rows = []
    for a, b in zip(levels[:-1], levels[1:]):
        dm = mz_distance(trajectories[a], trajectories[b], batch.fine_grid)
        rows.append(RefinementRow(pair=(a, b), median_dm=float(np.median(dm)),
                                  mean_dm=float(np.mean(dm))))
    return RefinementTable(rows=rows, level_reports=reports)
