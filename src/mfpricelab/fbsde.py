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

Y and alpha are cadlag slabs (count, n_intervals, m+1), sub-time m the left
limit at the interval's end, as the materialized price is (see price.py); X,
the noises, the response and the regression state are continuous fine-grid
paths, read per interval through interval_view.  Each coefficient is
evaluated once per call site, on the slab layout.  Forward dynamics use
Euler-Maruyama on the fine grid, each step reading the slabs at its left
point; all time integrals use the trapezoid rule, interval by interval, so
every interval closes on its left limit.  Estimates of Y are clipped to the
envelope L*(1 + (T-t)), which the conditional-expectation representation
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditioning import TreeConditioner
from .errors import PicardError
from .models import AFFINE, GENERAL_CONVEX, AgentSpec, ModelBounds
from .price import DiscretePrice, PriceEnv, fine_path, interval_view, materialize
from .sampling import ScenarioBatch

_PICARD_DAMPING = 0.5
_PICARD_MAX = 60
_PICARD_TOL = 1e-6


@dataclass
class FbsdeSolution:
    """Per-sample state, adjoint and control of one population.

    `Y`, `alpha` are cadlag slabs (count, n_intervals, m+1) like the
    materialized price.  `response` is the raw per-sample
    conditional-expectation target (the bracket) on the fine grid, smoothed
    into `Y`, read by the price map and standard errors.
    `X` is None for affine costs: their adjoint does not depend on the state,
    so nothing needs the state path (per_sample_cost re-integrates it from a
    control).  A convex solution is its last Picard pass, `X` the state under `alpha`.
    """

    X: Optional[np.ndarray]
    Y: np.ndarray
    alpha: np.ndarray
    picard_iters: int = 0
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


def _times(batch: ScenarioBatch) -> np.ndarray:
    """Fine-grid times per interval, (1, n_intervals, m+1)."""
    return interval_view(batch.fine_grid[None, :], batch.spec.m)


def backward_integral(slab: np.ndarray, spec) -> np.ndarray:
    """I[:, j] = trapezoid of a cadlag slab over [t_j, T] on the fine grid,
    interval by interval, each closed by its left limit."""
    count = slab.shape[0]
    m, n_int = spec.m, spec.n_intervals
    pair = 0.5 * (slab[:, :, :-1] + slab[:, :, 1:]) * spec.dt_fine
    within = np.cumsum(pair[:, :, ::-1], axis=2)[:, :, ::-1]
    totals = within[:, :, 0]
    suffix = np.zeros((count, n_int + 1))
    suffix[:, :-1] = np.cumsum(totals[:, ::-1], axis=1)[:, ::-1]
    out = np.empty((count, spec.n_fine))
    out[:, :-1] = (within + suffix[:, 1:, None]).reshape(count, n_int * m)
    out[:, -1] = 0.0
    return out


def euler_state(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec,
                alpha: np.ndarray, start_index: int = 0, x0=None) -> np.ndarray:
    """Euler-Maruyama integration of the controlled state from start_index on.

    The increments (alpha + drift) dt + s0 dB + si dW do not depend on X, so
    the state is one running sum of them along time, started at x0.  A fine
    step's left point is one of its interval's sub-times 0..m-1, so the
    slabs are never read at their left limits.
    """
    spec = batch.spec
    count, m = batch.count, spec.m
    t, P = _times(batch)[:, :, :m], env.path[:, :, :m]
    drift = np.asarray(agent.drift(t, P), dtype=float) + np.zeros_like(P)
    s0 = np.asarray(agent.vol_common(t, P), dtype=float) + np.zeros_like(P)
    si = np.asarray(agent.vol_idio(t, P), dtype=float) + np.zeros_like(P)
    xi, w = batch.idiosyncratic(agent.population)
    if x0 is None:
        x0 = xi
    steps = ((alpha[:, :, :m] + drift) * spec.dt_fine
             + s0 * np.diff(batch.b, axis=1).reshape(P.shape)
             + si * np.diff(w, axis=1).reshape(P.shape))
    X = np.zeros((count, spec.n_fine))
    X[:, start_index] = x0
    X[:, start_index + 1:] = steps.reshape(count, -1)[:, start_index:]
    np.cumsum(X[:, start_index:], axis=1, out=X[:, start_index:])
    return X


def _affine_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec):
    """Per-sample bracket g(env_T) + int_t^T c(s, env_s) ds on the fine grid."""
    m = batch.spec.m
    P = env.path
    run = np.asarray(agent.running_cost(_times(batch), P, interval_view(batch.b, m),
                                        interval_view(batch.c, m)), dtype=float) + np.zeros_like(P)
    integral = backward_integral(run, batch.spec)
    terminal = np.asarray(agent.terminal_cost(P[:, -1, m], batch.b[:, -1], batch.c[:, -1]), dtype=float)
    return integral + terminal[:, None] + np.zeros_like(integral)


def _convex_response(batch: ScenarioBatch, env: PriceEnv, agent: AgentSpec, X: np.ndarray):
    m = batch.spec.m
    Xv = interval_view(X, m)
    run = np.asarray(agent.running_cost_dx(_times(batch), Xv, env.path, interval_view(batch.c, m)),
                     dtype=float) + np.zeros_like(Xv)
    integral = backward_integral(run, batch.spec)
    terminal = np.asarray(agent.terminal_cost_dx(X[:, -1], env.path[:, -1, m], batch.c[:, -1]), dtype=float)
    return integral + terminal[:, None] + np.zeros_like(integral)


def _smooth_response(response: np.ndarray, batch: ScenarioBatch, conditioner: TreeConditioner,
                     bounds: ModelBounds, state: np.ndarray, start_index: int = 0):
    """Per-sample conditional expectation of the response as a cadlag slab.

    Conditioning is the tree key of the enclosing interval, refined by least
    squares on the (count, n_fine, d) state (d = 0: bucket means); sub-time
    m of interval i is conditioned on interval i's key.
    """
    spec = batch.spec
    m = spec.m
    env_bound = bounds.envelope(_times(batch))[0]
    response, state = interval_view(response, m), interval_view(state, m)
    Y = np.zeros((batch.count, spec.n_intervals, m + 1))
    for i in range(start_index // m, spec.n_intervals):
        preds = conditioner.regress_slab(i, state[:, i], response[:, i])
        np.clip(preds, -env_bound[i], env_bound[i], out=Y[:, i])
    return Y


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
    Y = _smooth_response(response, batch, buckets, bounds, state, start_index=start_index)
    return FbsdeSolution(X=None, Y=Y, alpha=optimal_control(Y, env.path, agent.lam),
                         response=response)


def solve_convex(batch: ScenarioBatch, price: DiscretePrice, agent: AgentSpec,
                 buckets: TreeConditioner, bounds: ModelBounds,
                 start_index: int = 0, x0=None, env: Optional[PriceEnv] = None,
                 warm_start: Optional[np.ndarray] = None) -> FbsdeSolution:
    """Damped Picard iteration for general convex costs.  The first pass whose
    smoothed response Y_hat is within _PICARD_TOL of its iterate Y on the
    fine grid is the solution (Y_hat, response), plus one Euler pass under
    alpha(Y_hat)."""
    if agent.cost_mode != GENERAL_CONVEX:
        raise ValueError(f"solve_convex requires general convex costs, got {agent.cost_mode}")
    if env is None:
        env = materialize(price, buckets)
    fixed = [batch.b, batch.c] if agent.population == "I" and agent.reads_factor else [batch.b]
    state = np.empty((batch.count, batch.spec.n_fine, 1 + len(fixed)))  # (X, B[, C])
    state[:, :, 1:] = np.stack(fixed, axis=2)  # X is written on every pass

    Y = np.zeros_like(env.path) if warm_start is None else warm_start.copy()
    trace = []
    for _ in range(_PICARD_MAX):
        alpha = optimal_control(Y, env.path, agent.lam)
        X = euler_state(batch, env, agent, alpha, start_index=start_index, x0=x0)
        response = _convex_response(batch, env, agent, X)
        state[:, :, 0] = X
        Y_hat = _smooth_response(response, batch, buckets, bounds, state, start_index=start_index)
        delta = float(np.max(np.abs(fine_path(Y_hat - Y)[:, start_index:])))
        trace.append(delta)
        if delta <= _PICARD_TOL:
            break
        Y = (1.0 - _PICARD_DAMPING) * Y + _PICARD_DAMPING * Y_hat
    else:
        raise PicardError(f"Picard loop did not converge (last update {trace[-1]:.3e})", trace)

    alpha = optimal_control(Y_hat, env.path, agent.lam)
    X = euler_state(batch, env, agent, alpha, start_index=start_index, x0=x0)
    return FbsdeSolution(X=X, Y=Y_hat, alpha=alpha, picard_iters=len(trace),
                         response=response)


def solve_agent(batch, price, agent, buckets, bounds, informed_state: bool = True,
                **kw) -> FbsdeSolution:
    if agent.cost_mode == AFFINE:
        return solve_affine(batch, price, agent, buckets, bounds,
                            informed_state=informed_state, **kw)
    return solve_convex(batch, price, agent, buckets, bounds, **kw)


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
    t, Xv, P, c = _times(batch), interval_view(X, m), env.path, interval_view(batch.c, m)
    if agent.cost_mode == AFFINE:
        run = agent.running_cost(t, P, interval_view(batch.b, m), c)
        fbar = Xv * (np.asarray(run, dtype=float) + np.zeros_like(Xv))
        g = X[:, -1] * np.asarray(agent.terminal_cost(P[:, -1, m], batch.b[:, -1], batch.c[:, -1]), dtype=float)
    else:
        fbar = np.asarray(agent.running_cost(t, Xv, P, c), dtype=float) + np.zeros_like(Xv)
        g = np.asarray(agent.terminal_cost(X[:, -1], P[:, -1, m], batch.c[:, -1]), dtype=float)
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
    started from x1 and x2 on the same noise, against the analytic constant."""
    if x1 == x2:
        raise ValueError("probe requires x1 != x2")
    spec = batch.spec
    jt = int(round(t / spec.dt_fine))
    if abs(jt * spec.dt_fine - t) > 1e-12 or not 0 <= jt < spec.n_fine:
        raise ValueError("probe time must lie on the fine grid")
    sols = [solve_agent(batch, price, agent, buckets, bounds, start_index=jt, x0=float(x0))
            for x0 in (x1, x2)]
    gap = np.abs(fine_path(sols[0].Y)[:, jt] - fine_path(sols[1].Y)[:, jt])
    ratio = float(np.max(gap) / abs(x1 - x2))
    return {"ratio": ratio, "gamma_p": decoupling_gamma(bounds.T, bounds.L, agent.lam)}
