"""Per-population optimal-control FBSDE solvers under a discretized price.

The adjoint is obtained directly as a conditional expectation (the martingale
terms of the BSDE are never materialized):

  affine costs:  Y_t = E[ g(env_T) + int_t^T c(s, env_s) ds | key_t (+state) ]
  convex costs:  Picard loop over (X -> response -> regression -> Y), with the
                 response  d_x g(X_T, env_T) + int_t^T d_x f(s, X_s, env_s) ds;
                 the converged pass is the solution.

Each conditional expectation is TreeConditioner.regress_slab on a state built
once per solve: (X_t, B_t[, C_t]) for convex costs, (B_t[, C_t]) for the
affine informed agent, none (bucket means) for the affine standard agent.

Forward dynamics use Euler-Maruyama on the fine grid; all time integrals use
the trapezoid rule, interval by interval so that the cadlag price enters with
its left limit at interval ends.  Estimates of Y are clipped to the envelope
L*(1 + (T-t)), which the conditional-expectation representation guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditioning import TreeConditioner
from .errors import PicardError
from .models import AFFINE, GENERAL_CONVEX, AgentSpec, ModelBounds
from .price import DiscretePrice, PriceEnv, materialize
from .sampling import ScenarioBatch

AFFINE_DIRECT = "AffineDirect"
CONVEX_PICARD = "ConvexPicard"
_PICARD_DAMPING = 0.5
_PICARD_MAX = 60
_PICARD_TOL = 1e-6


@dataclass
class FbsdeSolution:
    """Per-sample state/adjoint/control arrays on the fine grid.

    `Y`, `alpha` follow the cadlag convention of the price (value at an
    interval endpoint belongs to the new interval); `Y_end`, `alpha_end` hold
    the left limits at interval ends, used by interval-wise integrals.
    `response` is the raw per-sample conditional-expectation target (the
    bracket) smoothed into `Y`, read by the price map and standard errors.
    `X` is None for affine costs: their adjoint does not depend on the state,
    so nothing needs the state path (per_sample_cost re-integrates it from a
    control).  A convex solution is its last Picard pass, `X` the state under `alpha`.
    """

    X: Optional[np.ndarray]
    Y: np.ndarray
    alpha: np.ndarray
    mode: str
    picard_iters: int = 0
    Y_end: np.ndarray = None
    alpha_end: np.ndarray = None
    response: np.ndarray = None


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


def _row_times(batch: ScenarioBatch):
    return batch.fine_grid[None, :]


def _interval_end_times(batch: ScenarioBatch):
    spec = batch.spec
    return (np.arange(1, spec.n_intervals + 1) * spec.interval_length)[None, :]


def _interval_end_columns(arr: np.ndarray, spec) -> np.ndarray:
    """Columns of a continuous per-sample array at interval right endpoints."""
    idx = (np.arange(1, spec.n_intervals + 1) * spec.m)
    return arr[:, idx]


def backward_integral(values: np.ndarray, end_values: np.ndarray, spec) -> np.ndarray:
    """I[:, j] = trapezoid of values over [t_j, T], interval by interval.

    `values` is the cadlag integrand on the fine grid; `end_values` holds its
    left limits at interval right endpoints (used as the closing trapezoid
    node of each interval).
    """
    count = values.shape[0]
    m, n_int = spec.m, spec.n_intervals
    slab = np.empty((count, n_int, m + 1))
    body = values[:, :-1].reshape(count, n_int, m)
    slab[:, :, :m] = body
    slab[:, :, m] = end_values
    pair = 0.5 * (slab[:, :, :-1] + slab[:, :, 1:]) * spec.dt_fine
    within = np.zeros((count, n_int, m + 1))
    within[:, :, :m] = np.cumsum(pair[:, :, ::-1], axis=2)[:, :, ::-1]
    totals = within[:, :, 0]
    suffix = np.zeros((count, n_int + 1))
    suffix[:, :-1] = np.cumsum(totals[:, ::-1], axis=1)[:, ::-1]
    out = np.empty_like(values)
    out[:, :-1] = (within[:, :, :m] + suffix[:, 1:, None]).reshape(count, n_int * m)
    out[:, -1] = 0.0
    return out


def euler_state(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec,
                alpha: np.ndarray, start_index: int = 0, x0=None) -> np.ndarray:
    """Euler-Maruyama integration of the controlled state from start_index on.

    The increments (alpha + drift) dt + s0 dB + si dW do not depend on X, so
    the state is one running sum of them along time, started at x0.
    """
    spec = batch.spec
    t = _row_times(batch)
    P = env.cadlag
    drift = np.asarray(agent.drift(t, P), dtype=float) + np.zeros_like(P)
    s0 = np.asarray(agent.vol_common(t, P), dtype=float) + np.zeros_like(P)
    si = np.asarray(agent.vol_idio(t, P), dtype=float) + np.zeros_like(P)
    xi, w = batch.idiosyncratic(agent.population)
    if x0 is None:
        x0 = xi
    X = np.zeros((batch.count, spec.n_fine))
    X[:, start_index] = x0
    now = slice(start_index, -1)
    X[:, start_index + 1:] = ((alpha[:, now] + drift[:, now]) * spec.dt_fine
                              + s0[:, now] * np.diff(batch.b[:, start_index:], axis=1)
                              + si[:, now] * np.diff(w[:, start_index:], axis=1))
    np.cumsum(X[:, start_index:], axis=1, out=X[:, start_index:])
    return X


def _affine_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec):
    """Per-sample bracket g(env_T) + int_t^T c(s, env_s) ds on the fine grid."""
    spec = batch.spec
    t = _row_times(batch)
    te = _interval_end_times(batch)
    b_end = _interval_end_columns(batch.b, spec)
    c_end = _interval_end_columns(batch.c, spec)
    run = np.asarray(agent.running_cost(t, env.cadlag, batch.b, batch.c), dtype=float) + np.zeros_like(env.cadlag)
    run_end = np.asarray(agent.running_cost(te, env.left_end, b_end, c_end), dtype=float) + np.zeros_like(env.left_end)
    integral = backward_integral(run, run_end, spec)
    terminal = np.asarray(agent.terminal_cost(env.left_end[:, -1], batch.b[:, -1], batch.c[:, -1]), dtype=float)
    return integral + terminal[:, None] + np.zeros_like(integral)


def _convex_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec, X: np.ndarray):
    spec = batch.spec
    t = _row_times(batch)
    te = _interval_end_times(batch)
    X_end = _interval_end_columns(X, spec)
    c_end = _interval_end_columns(batch.c, spec)
    run = np.asarray(agent.running_cost_dx(t, X, env.cadlag, batch.c), dtype=float) + np.zeros_like(X)
    run_end = np.asarray(agent.running_cost_dx(te, X_end, env.left_end, c_end), dtype=float) + np.zeros_like(X_end)
    integral = backward_integral(run, run_end, spec)
    terminal = np.asarray(agent.terminal_cost_dx(X[:, -1], env.left_end[:, -1], batch.c[:, -1]), dtype=float)
    return integral + terminal[:, None] + np.zeros_like(integral)


def _smooth_response(response: np.ndarray, batch: ScenarioBatch, conditioner: TreeConditioner,
                     bounds: ModelBounds, state: np.ndarray, start_index: int = 0):
    """Per-sample conditional expectation of the response at every fine time.

    Conditioning is the tree key of the enclosing interval, refined by least
    squares on the (count, n_fine, d) state (d = 0: bucket means).  Returns
    the cadlag field and its interval-end left limits (the sub-time m column
    of each interval, conditioned on that interval's key).
    """
    spec = batch.spec
    m = spec.m
    env_bound = bounds.envelope(batch.fine_grid)[None, :]
    Y = np.zeros_like(response)
    Y_end = np.zeros((batch.count, spec.n_intervals))
    for i in range(start_index // m, spec.n_intervals):
        sl = slice(i * m, (i + 1) * m + 1)
        preds = conditioner.regress_slab(i, state[:, sl], response[:, sl])
        preds = np.clip(preds, -env_bound[:, sl], env_bound[:, sl])
        Y[:, i * m:(i + 1) * m] = preds[:, :m]
        Y_end[:, i] = preds[:, m]
    Y[:, -1] = Y_end[:, -1]
    return Y, Y_end


def solve_affine(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                 buckets: TreeConditioner, bounds: ModelBounds,
                 informed_state: bool = True, start_index: int = 0,
                 x0=None, env: Optional[PriceEnv] = None) -> FbsdeSolution:
    """Direct conditional-expectation solve for affine costs.

    Returns X = None: the adjoint does not depend on the state, so no Euler
    pass runs; `x0` is accepted for solve_agent's uniform signature only.
    """
    if agent.cost_mode != AFFINE:
        raise ValueError(f"solve_affine requires affine costs, got {agent.cost_mode}")
    if env is None:
        env = materialize(price, buckets)
    response = _affine_response(batch, env, agent)
    if agent.population != "I" or not informed_state:
        state = np.empty((batch.count, batch.spec.n_fine, 0))
    elif agent.reads_factor:
        state = np.stack([batch.b, batch.c], axis=2)
    else:
        state = batch.b[:, :, None]
    Y, Y_end = _smooth_response(response, batch, buckets, bounds, state,
                                start_index=start_index)
    alpha = optimal_control(Y, env.cadlag, agent.lam)
    alpha_end = optimal_control(Y_end, env.left_end, agent.lam)
    return FbsdeSolution(X=None, Y=Y, alpha=alpha, mode=AFFINE_DIRECT,
                         Y_end=Y_end, alpha_end=alpha_end, response=response)


def solve_convex(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                 buckets: TreeConditioner, bounds: ModelBounds,
                 start_index: int = 0, x0=None, env: Optional[PriceEnv] = None,
                 warm_start: Optional[np.ndarray] = None) -> FbsdeSolution:
    """Damped Picard iteration for general convex costs.  The first pass whose
    smoothed response Y_hat is within _PICARD_TOL of its iterate Y is the
    solution (Y_hat, Y_end, response), plus one Euler pass under alpha(Y_hat)."""
    if agent.cost_mode != GENERAL_CONVEX:
        raise ValueError(f"solve_convex requires general convex costs, got {agent.cost_mode}")
    if env is None:
        env = materialize(price, buckets)
    fixed = [batch.b, batch.c] if agent.population == "I" and agent.reads_factor else [batch.b]
    state = np.empty((batch.count, batch.spec.n_fine, 1 + len(fixed)))  # (X, B[, C])
    state[:, :, 1:] = np.stack(fixed, axis=2)  # X is written on every pass

    Y = np.zeros_like(env.cadlag) if warm_start is None else warm_start.copy()
    trace = []
    for _ in range(_PICARD_MAX):
        alpha = optimal_control(Y, env.cadlag, agent.lam)
        X = euler_state(batch, env, agent, alpha, start_index=start_index, x0=x0)
        response = _convex_response(batch, env, agent, X)
        state[:, :, 0] = X
        Y_hat, Y_end = _smooth_response(response, batch, buckets, bounds, state,
                                        start_index=start_index)
        delta = float(np.max(np.abs(Y_hat[:, start_index:] - Y[:, start_index:])))
        trace.append(delta)
        if delta <= _PICARD_TOL:
            break
        Y = (1.0 - _PICARD_DAMPING) * Y + _PICARD_DAMPING * Y_hat
    else:
        raise PicardError(f"Picard loop did not converge (last update {trace[-1]:.3e})", trace)

    alpha = optimal_control(Y_hat, env.cadlag, agent.lam)
    alpha_end = optimal_control(Y_end, env.left_end, agent.lam)
    X = euler_state(batch, env, agent, alpha, start_index=start_index, x0=x0)
    return FbsdeSolution(X=X, Y=Y_hat, alpha=alpha, mode=CONVEX_PICARD,
                         picard_iters=len(trace), Y_end=Y_end, alpha_end=alpha_end,
                         response=response)


def solve_agent(batch, price, agent, buckets, bounds, informed_state: bool = True,
                **kw) -> FbsdeSolution:
    if agent.cost_mode == AFFINE:
        return solve_affine(batch, price, agent, buckets, bounds,
                            informed_state=informed_state, **kw)
    return solve_convex(batch, price, agent, buckets, bounds, **kw)


def per_sample_cost(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                    control: np.ndarray, buckets: TreeConditioner,
                    env: Optional[PriceEnv] = None,
                    control_end: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-sample realized cost of an arbitrary control (state re-integrated)."""
    spec = batch.spec
    if control.shape != (batch.count, spec.n_fine):
        raise ValueError(f"control array must have shape {(batch.count, spec.n_fine)}")
    if env is None:
        env = materialize(price, buckets)
    if control_end is None:
        control_end = _interval_end_columns(control, spec)
    X = euler_state(batch, env, agent, control)
    t = _row_times(batch)
    te = _interval_end_times(batch)
    X_end = _interval_end_columns(X, spec)

    def fbar(tt, xx, pp, bb, cc):
        if agent.cost_mode == AFFINE:
            return xx * (np.asarray(agent.running_cost(tt, pp, bb, cc), dtype=float) + np.zeros_like(xx))
        return np.asarray(agent.running_cost(tt, xx, pp, cc), dtype=float) + np.zeros_like(xx)

    b_end = _interval_end_columns(batch.b, spec)
    c_end = _interval_end_columns(batch.c, spec)
    f = env.cadlag * control + 0.5 * agent.lam * control ** 2 \
        + fbar(t, X, env.cadlag, batch.b, batch.c)
    f_end = env.left_end * control_end + 0.5 * agent.lam * control_end ** 2 \
        + fbar(te, X_end, env.left_end, b_end, c_end)
    integral = backward_integral(f, f_end, spec)[:, 0]
    if agent.cost_mode == AFFINE:
        g = X[:, -1] * np.asarray(agent.terminal_cost(env.left_end[:, -1], batch.b[:, -1], batch.c[:, -1]), dtype=float)
    else:
        g = np.asarray(agent.terminal_cost(X[:, -1], env.left_end[:, -1], batch.c[:, -1]), dtype=float)
    return integral + np.broadcast_to(g, integral.shape)


def cost_functional(batch, price, agent, control, buckets, **kw) -> float:
    """Monte Carlo + trapezoid estimate of the cost functional."""
    return float(np.mean(per_sample_cost(batch, price, agent, control, buckets, **kw)))


def decoupling_probe(agent: AgentSpec, price: DiscretePrice, batch: ScenarioBatch,
                     buckets: TreeConditioner, bounds: ModelBounds,
                     t: float, x1: float, x2: float) -> dict:
    """Ratio max_samples |Y1_t - Y2_t| / |x1 - x2| for the t-initialized problem
    started from x1 and x2 on the same noise, against the analytic constant."""
    if x1 == x2:
        raise ValueError("probe requires x1 != x2")
    spec = batch.spec
    jt = int(round(t / spec.dt_fine))
    if abs(jt * spec.dt_fine - t) > 1e-12 or not 0 <= jt < spec.n_fine:
        raise ValueError("probe time must lie on the fine grid")
    sols = []
    for x0 in (x1, x2):
        sols.append(solve_agent(batch, price, agent, buckets, bounds,
                                start_index=jt, x0=float(x0)))
    gap = np.abs(sols[0].Y[:, jt] - sols[1].Y[:, jt])
    ratio = float(np.max(gap) / abs(x1 - x2))
    return {"ratio": ratio, "gamma_p": decoupling_gamma(bounds.T, bounds.L, agent.lam)}
