"""Per-population optimal-control FBSDE solvers under a discretized price.

The adjoint is obtained directly as a conditional expectation (the martingale
terms of the BSDE are never materialized):

  affine costs:  Y_t = E[ g(env_T) + int_t^T c(s, env_s) ds | key_t (+state) ]
  convex costs:  Picard map Y -> (X -> response -> regression -> Y_hat), with
                 the response  d_x g(X_T, env_T) + int_t^T d_x f(s, X_s, env_s) ds;
                 a cold solve iterates it, relaxed by Aitken's dynamic
                 factor, and its converged pass is the solution, while the
                 equilibrium's fixed-point iteration takes one pass per
                 map evaluation.

X is read only inside a convex pass and is not kept.  It starts from the
batch's xi_I or xi_S, so the decoupling field u(t, x) is a solve on a copy
of the batch whose initial states are all x.

Each conditional expectation is TreeConditioner.regress_slab on a state:
(X_t, B_t[, C_t]) for convex costs, built once per Picard map (once per cold
solve, once per evaluation of the equilibrium's loop), (B_t[, C_t]) for the
affine informed agent, none (bucket means) for the affine standard agent; an
affine Y is fitted only when something reads it, and one fitted on no state
is kept as its key tables, not as a per-sample slab.  When the running cost
reads only (t, varpi), the key means of an affine response need no
per-sample response at all: solve_on_keys integrates the cost on the
price's key tables and carries the rest per sample, one value per interval.

Y and alpha are cadlag slabs (count, n_intervals, m+1), sub-time m the left
limit at the interval's end, as the materialized price is (see price.py); X,
the noises, the response and the regression state are continuous fine-grid
paths, read per interval through interval_view.  Each coefficient is
evaluated once per call site, on the slab layout.  Forward dynamics use
Euler-Maruyama on the fine grid, each step reading the slabs at its left
point; the control-free part of the increments is built once per Picard
map, or, in the equilibrium's loop, once per solve when the agent's drift
and volatilities declare no varpi read (AgentSpec.dynamics_read_price).
All time integrals use the trapezoid rule, interval by interval, so
every interval closes on its left limit.  Estimates of Y are clipped to the
envelope L*(1 + (T-t)), which the conditional-expectation representation
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .conditioning import TreeConditioner
from .errors import ModelError, PicardError
from .models import AFFINE, GENERAL_CONVEX, AgentSpec, ModelBounds, declared_reads
from .price import (DiscretePrice, PriceEnv, _sup_fine, interval_matrix, interval_view,
                    materialize)
from .sampling import ScenarioBatch

_PICARD_DAMPING = 0.5
_PICARD_MAX = 60
_PICARD_TOL = 1e-6


@dataclass
class FbsdeSolution:
    """Per-sample adjoint and control of one population.

    `Y`, `alpha` are cadlag slabs (count, n_intervals, m+1) like the
    materialized price `price_path`.  `adjoint` is what `Y` is read from: a
    convex pass's slab, or, from an affine solve, a function that fits the
    adjoint when first read (fit() keeps the fit in its place), as `alpha` =
    optimal_control(Y, price_path, lam) is made when first read: a price-map
    evaluation reads neither.  An affine adjoint conditioned on the tree key
    alone (the standard agent; the informed one under informed_state=False)
    is fitted as its clipped key tables, a DiscretePrice on `conditioner`'s
    keys: `Y` gathers them along each sample's key on every read and keeps
    no slab.  A solve reads two things of an adjoint, `sup_Y` and `nodes`,
    each made once, off the key tables when it is key tables.  `response`
    is the raw per-sample conditional-expectation target (the bracket) on
    the fine grid, smoothed into `Y`, read by the price map and standard
    errors.  `picard_iters` is the number of Picard passes behind `Y`: 0 for
    an affine solve, 1 for a single pass (_picard_map).  No state path is
    kept: per_sample_cost re-integrates it from any control.

    The fixed-point iteration holds the solution of an affine agent whose
    costs read no price (AgentSpec.reads_price False) through the whole
    solve (held()): no price path, and a fit on a state read into `sup_Y`
    and `nodes` and then dropped, so it keeps no slab.  The iteration's
    solution of an agent that solved_on_keys (solve_on_keys) has no
    `response` and no price path either: `key_means` holds its response's
    raw key means, and its adjoint is key tables.
    """

    adjoint: Union[None, np.ndarray, DiscretePrice, Callable[[], Union[np.ndarray, DiscretePrice]]]
    response: Optional[np.ndarray]
    price_path: Optional[np.ndarray]
    lam: float
    picard_iters: int
    conditioner: Optional[TreeConditioner] = None  # the keys of key-table adjoints
    key_means: Optional[list] = None  # solve_on_keys: the response's raw key means

    def fit(self) -> Union[np.ndarray, DiscretePrice]:
        """The adjoint as fitted: a slab, or key tables; fitted on the first call."""
        if callable(self.adjoint):
            self.adjoint = self.adjoint()
        return self.adjoint

    @property
    def Y(self) -> np.ndarray:
        fit = self.fit()
        return materialize(fit, self.conditioner).path if isinstance(fit, DiscretePrice) else fit

    @cached_property
    def alpha(self) -> np.ndarray:
        return optimal_control(self.Y, self.price_path, self.lam)

    @cached_property
    def sup_Y(self) -> float:
        """_sup_fine of Y."""
        fit = self.fit()
        return _sup_fine(fit.tables if isinstance(fit, DiscretePrice) else np.moveaxis(fit, 1, 0))

    @cached_property
    def nodes(self) -> np.ndarray:
        """_node_values of Y."""
        return _node_values(self.fit(), self.conditioner)

    def held(self) -> FbsdeSolution:
        """This affine solution as a solve holds it: no price path, and its
        adjoint fitted now; a fit on a state is read into sup_Y and nodes,
        all that a solve reads of it, and its slab dropped."""
        held = replace(self, price_path=None)
        if not isinstance(held.fit(), DiscretePrice):
            held.sup_Y, held.nodes  # made before the slab goes
            held.adjoint = None
        return held


def _node_values(source, conditioner: TreeConditioner) -> np.ndarray:
    """The (count, n_intervals+1) node values of a cadlag field: sub-time 0
    of each interval, then the left limit at T.  `source` is a slab, or a
    DiscretePrice (a price, or key-table adjoint), read along each sample's
    key at those points only."""
    if not isinstance(source, DiscretePrice):
        return np.concatenate([source[:, :, 0], source[:, -1, -1:]], axis=1)
    n = conditioner.spec.n_intervals
    out = np.empty((conditioner.count, n + 1))
    for i in range(n):
        mat, _ = interval_matrix(source, conditioner, i)
        out[:, i] = mat[conditioner.inverse(i), 0]
    out[:, n] = mat[conditioner.inverse(n - 1), -1]
    return out


def optimal_control(y, price, lam: float):
    """Minimizer of y*a + price*a + Lambda*a^2/2."""
    if not lam > 0:
        raise ValueError("control penalty must be positive")
    return -(np.asarray(y) + np.asarray(price)) / lam


def decoupling_gamma(T: float, L: float, lam: float) -> float:
    """Analytic Lipschitz constant of the decoupling field."""
    ctl = max(L * L * (10 * T * T + 2 * T + 10 + 2 * math.exp(T)), 14.0, 10 * T + 2 * math.exp(T))
    c = max(1.0, T) * ctl * max(1.0, 1.0 / (2.0 * lam))
    return math.sqrt(c) / (math.sqrt(1.0 + c) - math.sqrt(c))


def _times(batch: ScenarioBatch) -> np.ndarray:
    """Fine-grid times per interval, (1, n_intervals, m+1)."""
    return interval_view(batch.fine_grid[None, :], batch.spec.m)


def backward_integral(slab: np.ndarray, spec) -> np.ndarray:
    """I[:, j] = trapezoid of a cadlag slab over [t_j, T] on the fine grid,
    interval by interval, each closed by its left limit.

    `slab` is read only, so it may be a broadcast view of a coefficient's
    value.  The suffix sums run in a time-major (n_intervals, m, count)
    buffer, one contiguous in-place add per sub-time and per interval, in the
    order of a reversed cumulative sum.  Adding 0.0 to the pairwise sums
    turns -0.0 into 0.0, as adding it to each value would: (a+0)+(b+0) is
    (a+b)+0 bit for bit."""
    count = slab.shape[0]
    m, n_int = spec.m, spec.n_intervals
    pair = np.empty((n_int, m, count))
    np.add(slab[:, :, :-1].transpose(1, 2, 0), slab[:, :, 1:].transpose(1, 2, 0), out=pair)
    pair += 0.0
    pair *= 0.5
    pair *= spec.dt_fine
    for s in range(m - 2, -1, -1):
        pair[:, s] += pair[:, s + 1]    # within-interval suffix: [t_s, end of interval]
    for j in range(n_int - 2, -1, -1):
        pair[j, 0] += pair[j + 1, 0]    # sub-time 0 holds the suffix over intervals
    pair[:-1, 1:] += pair[1:, None, 0]
    pair[-1] += 0.0  # the empty suffix after the last interval, which turns -0.0 into 0.0
    out = np.empty((count, spec.n_fine))
    out[:, :-1] = pair.reshape(n_int * m, count).T
    out[:, -1] = 0.0
    return out


def _slab(value, shape: tuple) -> np.ndarray:
    """A coefficient's value broadcast into a fresh float slab of `shape`.
    Adding 0.0 turns -0.0 into 0.0, which the CSV artifacts depend on."""
    out = np.empty(shape)
    np.add(np.asarray(value, dtype=float), 0.0, out=out)
    return out


def _euler_noise(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec) -> np.ndarray:
    """Control-free Euler increments drift dt + s0 dB + si dW, (count, n_intervals, m).

    They depend on the price path and the agent only, so a Picard map builds
    them once and every pass adds its own alpha dt; when the agent's drift
    and volatilities read no price (not AgentSpec.dynamics_read_price) they
    do not depend on the price either, and a solve's loop builds them once.
    """
    spec = batch.spec
    m = spec.m
    t, P = _times(batch)[:, :, :m], env.path[:, :, :m]
    drift = _slab(agent.drift(t, P), P.shape)
    s0 = _slab(agent.vol_common(t, P), P.shape)
    si = _slab(agent.vol_idio(t, P), P.shape)
    _, w = batch.idiosyncratic(agent.population)
    return (drift * spec.dt_fine + s0 * np.diff(batch.b, axis=1).reshape(P.shape)
            + si * np.diff(w, axis=1).reshape(P.shape))


def euler_state(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec,
                alpha: np.ndarray, start_index: int = 0,
                noise: Optional[np.ndarray] = None) -> np.ndarray:
    """Euler-Maruyama integration of the controlled state from start_index on.

    The increments alpha dt + noise do not depend on X, so the state is one
    running sum of them along time, started at the batch's initial state of
    the agent's population.  `noise` is the caller's _euler_noise at this
    price, built here when not given.  A fine step's left point is one of
    its interval's sub-times 0..m-1, so the slabs are never read at their
    left limits.
    """
    spec = batch.spec
    count, m = batch.count, spec.m
    if noise is None:
        noise = _euler_noise(batch, env, agent)
    x0 = batch.idiosyncratic(agent.population)[0]
    steps = alpha[:, :, :m] * spec.dt_fine
    steps += noise
    X = np.zeros((count, spec.n_fine))
    X[:, start_index] = x0
    X[:, start_index + 1:] = steps.reshape(count, -1)[:, start_index:]
    np.cumsum(X[:, start_index:], axis=1, out=X[:, start_index:])
    return X


def _factor(batch: ScenarioBatch, agent: AgentSpec) -> tuple:
    """batch.c per interval and at T if the agent reads_factor, else None (not drawn)."""
    c = interval_view(batch.c, batch.spec.m) if agent.reads_factor else None
    return c, None if c is None else batch.c[:, -1]


def _cost(agent: AgentSpec, name: str, *args):
    """agent.<name>(*args) as a float array; the factor argument of an agent
    without reads_factor is None, so such a cost that reads it raises ModelError."""
    try:
        return np.asarray(getattr(agent, name)(*args), dtype=float)
    except TypeError as exc:
        if agent.reads_factor:
            raise
        raise ModelError(f"population {agent.population}: {name} failed on the factor c = None, "
                         f"which an agent whose costs declare no c read is given ({exc})") from exc


def _affine_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec):
    """Per-sample bracket g(env_T) + int_t^T c(s, env_s) ds on the fine grid;
    the running cost's value is integrated as it is, broadcast, not copied."""
    m = batch.spec.m
    P = env.path
    c, c_T = _factor(batch, agent)
    run = _cost(agent, "running_cost", _times(batch), P, interval_view(batch.b, m), c)
    integral = backward_integral(np.broadcast_to(run, P.shape), batch.spec)
    terminal = _cost(agent, "terminal_cost", P[:, -1, m], batch.b[:, -1], c_T)
    integral += terminal[:, None]
    return integral


def _convex_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec, X: np.ndarray):
    m = batch.spec.m
    Xv = interval_view(X, m)
    c, c_T = _factor(batch, agent)
    run = _slab(_cost(agent, "running_cost_dx", _times(batch), Xv, env.path, c), Xv.shape)
    integral = backward_integral(run, batch.spec)
    terminal = _cost(agent, "terminal_cost_dx", X[:, -1], env.path[:, -1, m], c_T)
    integral += terminal[:, None]
    return integral


def _smooth_response(response: np.ndarray, batch: ScenarioBatch, conditioner: TreeConditioner,
                     env_bound: np.ndarray, state: np.ndarray, start_index: int = 0):
    """Per-sample conditional expectation of the response as a cadlag slab,
    clipped to the envelope `env_bound`, (n_intervals, m+1).

    Conditioning is the tree key of the enclosing interval, refined by least
    squares on the (count, n_fine, d) state (d = 0: bucket means); sub-time
    m of interval i is conditioned on interval i's key.  regress_slab clips
    each interval to its envelope row and writes it into Y in place: at key
    level for d = 0, else in bucket order before its scatter.
    """
    spec = batch.spec
    m = spec.m
    response, state = interval_view(response, m), interval_view(state, m)
    Y = np.zeros((batch.count, spec.n_intervals, m + 1))
    for i in range(start_index // m, spec.n_intervals):
        conditioner.regress_slab(i, state[:, i], response[:, i], bound=env_bound[i], out=Y[:, i])
    return Y


def _key_tables(response: np.ndarray, batch: ScenarioBatch, conditioner: TreeConditioner,
                env_bound: np.ndarray) -> DiscretePrice:
    """The conditional expectation of the response given the tree key alone,
    as key tables on the conditioner's keys: regress_slab's degree-0 fit,
    pooled and clipped to the envelope `env_bound`, per interval.  Read along
    each sample's key it is _smooth_response on no state, bit for bit."""
    m = batch.spec.m
    response = interval_view(response, m)
    no_state = np.empty((batch.count, m + 1, 0))
    return DiscretePrice.from_tables(conditioner, [
        conditioner.regress_slab(i, no_state, response[:, i], bound=env_bound[i])
        for i in range(batch.spec.n_intervals)])


def _key_adjoint(agent: AgentSpec, informed_state: bool) -> bool:
    """Whether the agent's affine adjoint is conditioned on the tree key alone:
    the standard agent's, and the informed one's under informed_state False."""
    return agent.population != "I" or not informed_state


def solved_on_keys(agent: AgentSpec, informed_state: bool = True) -> bool:
    """Whether a solve's price-map evaluations solve the agent on the price's
    key tables (solve_on_keys): an affine agent that reads the price, whose
    adjoint is conditioned on the tree key alone (_key_adjoint) and whose
    running cost declares that it reads no more than (t, varpi).  A raw
    callable counts as reading b (declared_reads): its agent is solved per sample."""
    return (agent.cost_mode == AFFINE and agent.reads_price and _key_adjoint(agent, informed_state)
            and declared_reads(agent.running_cost) <= {"t", "varpi"})


def _key_running_cost(agent: AgentSpec, t: np.ndarray, varpi: np.ndarray) -> np.ndarray:
    """The running cost on key tables, b and c given as None: a cost that
    declares it reads only (t, varpi) and reads them raises ModelError."""
    try:
        value = np.asarray(agent.running_cost(t, varpi, None, None))
        if value.dtype == object:
            raise TypeError("its value is not numeric")
    except TypeError as exc:
        raise ModelError(f"population {agent.population}: running_cost declares that it reads "
                         f"{sorted(agent.running_cost.reads)} only, but failed on b = c = None, "
                         f"which it is given on key tables ({exc})") from exc
    return np.broadcast_to(value.astype(float, copy=False), varpi.shape)


def _key_response_means(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                        buckets: TreeConditioner) -> list:
    """Per interval, the raw (unpooled) key means of the response
    g(env_T) + int_t^T c(s, env_s) ds of an agent whose running cost reads
    only (t, varpi), (n_keys, m+1), without a per-sample response.

    Within interval i the running cost is a function of the key: its
    trapezoid suffix sums W_i along each key's row (sub-time m reads 0) give
    the integral to the interval's end.  The rest is carried per sample, one
    value per interval: each sample's full-interval integral W_i[key, 0],
    then the terminal cost at its left limit at T, summed in reverse into
    the suffix S_{i+1} over the intervals after i.  So the key mean at
    (key, s) is W_i[key, s] + the key's mean of S_{i+1}, which is exact, up
    to rounding, for prefix and Markov keys alike: the future is averaged
    per sample, not over child keys."""
    spec = batch.spec
    m, n = spec.m, spec.n_intervals
    times = _times(batch)[0]
    within, totals = [], np.empty((batch.count, n + 1))
    for i in range(n):
        mat, _ = interval_matrix(price, buckets, i)
        run = _key_running_cost(agent, times[i], mat)
        pair = run[:, :-1] + run[:, 1:]
        pair += 0.0
        pair *= 0.5
        pair *= spec.dt_fine
        w = np.zeros(mat.shape)
        w[:, :m] = np.cumsum(pair[:, ::-1], axis=1)[:, ::-1]
        within.append(w)
        totals[:, i] = w[buckets.inverse(i), 0]
    _, c_T = _factor(batch, agent)
    totals[:, n] = _cost(agent, "terminal_cost", mat[buckets.inverse(n - 1), m], batch.b[:, -1], c_T)
    suffix = np.cumsum(totals[:, ::-1], axis=1)[:, ::-1]
    return [w + buckets.bucket_means(i, suffix[:, i + 1]) for i, w in enumerate(within)]


def solve_on_keys(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                  buckets: TreeConditioner, bounds: ModelBounds) -> FbsdeSolution:
    """solve_affine of an agent that solved_on_keys, read off the price's key
    tables: no price slab and no per-sample response (`response` None).
    `key_means` holds the raw key means of the response (_key_response_means),
    and the adjoint is them pooled and clipped to the envelope: solve_affine's
    key tables, up to rounding."""
    means = _key_response_means(batch, price, agent, buckets)
    env_bound = bounds.envelope(_times(batch))[0]
    tables = []
    for i, mean in enumerate(means):
        Y = mean.copy()
        buckets.pool_means(i, Y)
        tables.append(np.clip(Y, -env_bound[i], env_bound[i], out=Y))
    return FbsdeSolution(adjoint=DiscretePrice.from_tables(buckets, tables), response=None,
                         price_path=None, lam=agent.lam, picard_iters=0, conditioner=buckets,
                         key_means=means)


def solve_affine(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                 buckets: TreeConditioner, bounds: ModelBounds,
                 informed_state: bool = True, env: Optional[PriceEnv] = None) -> FbsdeSolution:
    """Direct conditional-expectation solve for affine costs.  The adjoint
    does not depend on the state, its initial value or its start time, so no
    Euler pass runs; it is smoothed from the response when first read: as
    key tables when it is conditioned on the tree key alone (the standard
    agent, or `informed_state` False), else as a slab fitted on (B[, C])."""
    if agent.cost_mode != AFFINE:
        raise ValueError(f"solve_affine requires affine costs, got {agent.cost_mode}")
    if env is None:
        env = materialize(price, buckets)
    response = _affine_response(batch, env, agent)

    def adjoint():
        env_bound = bounds.envelope(_times(batch))[0]
        if _key_adjoint(agent, informed_state):
            return _key_tables(response, batch, buckets, env_bound)
        state = np.stack([batch.b, batch.c], axis=2) if agent.reads_factor else batch.b[:, :, None]
        return _smooth_response(response, batch, buckets, env_bound, state)

    return FbsdeSolution(adjoint=adjoint, response=response, price_path=env.path, lam=agent.lam,
                         picard_iters=0, conditioner=buckets)


def _aitken_factor(w: float, f_prev: np.ndarray, f: np.ndarray) -> float:
    """Aitken's dynamic relaxation factor for the step Y <- Y + w_k f_k, from
    the last factor w and the last two residuals f = Y_hat - Y:
    w_k = -w <f_prev, f - f_prev> / |f - f_prev|^2, capped at 1.  A factor
    that is not positive (or a zero difference) falls back to the plain
    damping.  In (0, 1] every step is a convex combination of Y and Y_hat.
    The inner products are numpy reductions, not BLAS, so the result does
    not depend on the BLAS thread count."""
    diff = f - f_prev
    den = float(np.sum(diff * diff))
    w = -w * float(np.sum(f_prev * diff)) / den if den > 0.0 else 0.0
    return min(w, 1.0) if w > 0.0 else _PICARD_DAMPING


def _picard_map(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec,
                buckets: TreeConditioner, bounds: ModelBounds, start_index: int = 0,
                noise: Optional[np.ndarray] = None):
    """The Picard map of a convex agent under a fixed price: a function
    sending an iterate Y to the solution of one pass alpha(Y) -> Euler ->
    response -> Y_hat = smoothed response (picard_iters 1).  The regression
    state's fixed columns and the envelope are built when the map is made,
    and so is the Euler noise, unless the caller hands in its _euler_noise
    at this price.  A pass frees its control and state path before it
    regresses."""
    fixed = [batch.b, batch.c] if agent.reads_factor else [batch.b]
    state = np.empty((batch.count, batch.spec.n_fine, 1 + len(fixed)))  # (X, B[, C])
    state[:, :, 1:] = np.stack(fixed, axis=2)  # X is written on every pass
    if noise is None:
        noise = _euler_noise(batch, env, agent)
    env_bound = bounds.envelope(_times(batch))[0]

    def one_pass(Y: np.ndarray) -> FbsdeSolution:
        X = euler_state(batch, env, agent, optimal_control(Y, env.path, agent.lam),
                        start_index=start_index, noise=noise)
        response = _convex_response(batch, env, agent, X)
        state[:, :, 0] = X
        del X
        Y_hat = _smooth_response(response, batch, buckets, env_bound, state,
                                 start_index=start_index)
        return FbsdeSolution(adjoint=Y_hat, response=response, price_path=env.path,
                             lam=agent.lam, picard_iters=1)

    return one_pass


def solve_convex(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                 buckets: TreeConditioner, bounds: ModelBounds,
                 start_index: int = 0, env: Optional[PriceEnv] = None,
                 tol: float = _PICARD_TOL) -> FbsdeSolution:
    """Cold exact solve for general convex costs: Picard iteration from Y = 0,
    relaxed by Aitken's dynamic factor (Irons & Tuck, 1969).  Each pass maps
    its iterate Y to the smoothed response Y_hat (_picard_map) and steps
    Y <- Y + w (Y_hat - Y), w from _aitken_factor (0.5 on the first pass).
    The first pass whose Y_hat is within `tol` of its iterate Y on the fine
    grid is the solution, so N passes cost N Euler passes.  The state starts
    at the batch's initial state at `start_index`.  The fixed-point
    iteration does not call this: it runs one pass of the map per evaluation
    (see equilibrium._phi)."""
    if agent.cost_mode != GENERAL_CONVEX:
        raise ValueError(f"solve_convex requires general convex costs, got {agent.cost_mode}")
    if env is None:
        env = materialize(price, buckets)
    one_pass = _picard_map(batch, env, agent, buckets, bounds, start_index=start_index)
    Y = np.zeros_like(env.path)
    w, f_prev = _PICARD_DAMPING, None
    trace = []
    for _ in range(_PICARD_MAX):
        sol = one_pass(Y)
        f = sol.Y - Y
        delta = _sup_fine(np.moveaxis(f, 1, 0), start_index)
        trace.append(delta)
        if delta <= tol:
            sol.picard_iters = len(trace)
            return sol
        if f_prev is not None:
            w = _aitken_factor(w, f_prev, f)
        Y += w * f
        f_prev = f
        del sol  # not held through the next pass, which keeps f_prev instead
    raise PicardError(f"Picard loop of population {agent.population} did not converge to "
                      f"tol {tol:g} in {len(trace)} passes (last update {trace[-1]:.3e})", trace)


def solve_agent(batch, price, agent, buckets, bounds, informed_state: bool = True,
                tol: float = _PICARD_TOL, start_index: int = 0,
                env: Optional[PriceEnv] = None) -> FbsdeSolution:
    """solve_affine or solve_convex by the agent's cost; `informed_state` is
    read by the affine solve only, the Picard `tol` and `start_index` by the
    convex one only (an affine adjoint does not depend on the state)."""
    if agent.cost_mode == AFFINE:
        return solve_affine(batch, price, agent, buckets, bounds,
                            informed_state=informed_state, env=env)
    return solve_convex(batch, price, agent, buckets, bounds, start_index=start_index, env=env,
                        tol=tol)


def per_sample_cost(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                    control: np.ndarray, buckets: TreeConditioner,
                    env: Optional[PriceEnv] = None) -> np.ndarray:
    """Per-sample realized cost of an arbitrary cadlag control slab (state re-integrated)."""
    spec = batch.spec
    m = spec.m
    if control.shape != (batch.count, spec.n_intervals, m + 1):
        raise ValueError(f"control slab must have shape {(batch.count, spec.n_intervals, m + 1)}")
    if env is None:
        env = materialize(price, buckets)
    X = euler_state(batch, env, agent, control)
    t, Xv, P = _times(batch), interval_view(X, m), env.path
    c, c_T = _factor(batch, agent)
    if agent.cost_mode == AFFINE:
        run = _cost(agent, "running_cost", t, P, interval_view(batch.b, m), c)
        fbar = Xv * _slab(run, Xv.shape)
        g = X[:, -1] * _cost(agent, "terminal_cost", P[:, -1, m], batch.b[:, -1], c_T)
    else:
        fbar = _slab(_cost(agent, "running_cost", t, Xv, P, c), Xv.shape)
        g = _cost(agent, "terminal_cost", X[:, -1], P[:, -1, m], c_T)
    f = P * control + 0.5 * agent.lam * control ** 2 + fbar
    integral = backward_integral(f, spec)[:, 0]
    return integral + np.broadcast_to(g, integral.shape)


def cost_functional(batch, price, agent, control, buckets, **kw) -> float:
    """Monte Carlo + trapezoid estimate of the cost functional."""
    return float(np.mean(per_sample_cost(batch, price, agent, control, buckets, **kw)))


def decoupling_probe(agent: AgentSpec, price: DiscretePrice, batch: ScenarioBatch,
                     buckets: TreeConditioner, bounds: ModelBounds,
                     t: float, x1: float, x2: float) -> dict:
    """Ratio max_samples |Y1_t - Y2_t| / |x1 - x2| for the t-initialized problem
    started from x1 and x2 on the same noise, against the analytic constant.
    Each start solves a copy of the batch whose initial states are all x; the
    copies share the batch's noise (dataclasses.replace), drawn once."""
    if x1 == x2:
        raise ValueError("probe requires x1 != x2")
    spec = batch.spec
    jt = int(round(t / spec.dt_fine))
    if abs(jt * spec.dt_fine - t) > 1e-12 or not 0 <= jt < spec.n_fine:
        raise ValueError("probe time must lie on the fine grid")
    starts = [np.full(batch.count, float(x)) for x in (x1, x2)]
    sols = [solve_agent(replace(batch, xi_I=x0, xi_S=x0), price, agent, buckets, bounds,
                        start_index=jt) for x0 in starts]
    # fine index jt of each slab, read in place: interval jt // m at sub-time
    # jt % m, and the last interval's left limit at T
    at = (slice(None), -1, -1) if jt == spec.n_fine - 1 else (slice(None), jt // spec.m, jt % spec.m)
    gap = np.abs(sols[0].Y[at] - sols[1].Y[at])
    ratio = float(np.max(gap) / abs(x1 - x2))
    return {"ratio": ratio, "gamma_p": decoupling_gamma(bounds.T, bounds.L, agent.lam)}
