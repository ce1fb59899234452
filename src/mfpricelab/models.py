"""Declarative market specification: two subpopulations plus grid and factor.

Coefficients are vectorized callables.  Affine costs take the environment
(t, varpi, b, c) directly; general convex costs take (t, x, varpi, c) and must
come with their x-derivative.  Costs of an agent without reads_factor (every
standard agent) receive c = None for the informed factor; validate probes them,
and a solve in which one reads it raises ModelError.

Each population's adjoint is a conditional expectation given the tree key
(the projected common-noise path up to the interval) and, within the key:
- an affine standard agent: nothing more (the key only);
- an affine informed agent: (B_t[, C_t]), C when it reads the factor; the
  informed inference check conditions it on the key only;
- a convex agent: (X_t, B_t[, C_t]).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .conditioning import TreeConditioner
from .errors import ModelError
from .sampling import InformedFactorSpec, ScenarioBatch
from .tree import FULL_PREFIX, MARKOV, GridSpec

AFFINE = "affine"
GENERAL_CONVEX = "general-convex"

INFORMED = "I"
STANDARD = "S"


@dataclass(frozen=True)
class ModelBounds:
    """Assumption constants: coefficient bound L and the adjoint/price bound
    C_B = L(1+T) implied by the conditional-expectation representation."""

    L: float
    T: float

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"coefficient bound L must be > 0, got {self.L}")

    @property
    def C_B(self) -> float:
        return self.L * (1.0 + self.T)

    def envelope(self, t) -> np.ndarray:
        """Time-t bound on the adjoint, L*(1 + T - t); C_B at t = 0."""
        return self.L * (1.0 + self.T - np.asarray(t))


@dataclass(frozen=True)
class AgentSpec:
    """One subpopulation's coefficients and control penalty."""

    population: str
    lam: float
    weight: float
    drift: Callable = None
    vol_common: Callable = None
    vol_idio: Callable = None
    cost_mode: str = AFFINE
    running_cost: Callable = None       # affine: c(t,varpi,b,c); convex: f(t,x,varpi,c)
    terminal_cost: Callable = None      # affine: g(varpi,b,c);  convex: g(x,varpi,c)
    running_cost_dx: Callable = None    # convex only
    terminal_cost_dx: Callable = None   # convex only
    reads_factor: bool = False

    def __post_init__(self):
        if self.population not in (INFORMED, STANDARD):
            raise ValueError(f"population must be I or S, got {self.population!r}")
        if not self.lam > 0:
            raise ValueError("control penalty must be positive")
        if not 0.0 < self.weight < 1.0:
            raise ValueError("population weight must lie in (0,1)")
        if self.cost_mode not in (AFFINE, GENERAL_CONVEX):
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")
        if self.cost_mode == GENERAL_CONVEX and (self.running_cost_dx is None or self.terminal_cost_dx is None):
            raise ValueError("general convex mode requires x-derivatives of the costs")
        if self.population == STANDARD and self.reads_factor:
            raise ValueError("standard agents cannot observe the informed factor")

    @property
    def lam_bar(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class SolverDefaults:
    """The settings every solve reads (see MarketModel.with_solver).

    `tol` bounds the map residual max|Phi(theta) - theta| at the price
    solve_fixed_point returns.
    """

    samples: int = 4000
    seed: int = 20260809
    tol: float = 1e-3
    max_iter: int = 40
    mode: Optional[str] = None
    min_bucket: int = 30

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mode not in (None, FULL_PREFIX, MARKOV):
            raise ValueError(f"mode must be {FULL_PREFIX} or {MARKOV}, got {self.mode!r}")
        if self.min_bucket < 1:
            raise ValueError("min_bucket must be >= 1")

    def key_mode(self, n: int) -> str:
        """The set mode; if None, prefix for n <= 2 and Markov deeper, where
        prefix keys hold a sample or two each and nearly all of them are pooled."""
        if self.mode is not None:
            return self.mode
        return FULL_PREFIX if n <= 2 else MARKOV

    def conditioner(self, batch: ScenarioBatch, mode: Optional[str] = None) -> TreeConditioner:
        """The batch's conditioner at min_bucket, in `mode` (default key_mode)."""
        return TreeConditioner(batch.spec, batch.node_path,
                               mode=mode or self.key_mode(batch.spec.n), min_count=self.min_bucket)


@dataclass(frozen=True)
class MarketModel:
    name: str
    informed: AgentSpec
    standard: AgentSpec
    grid: GridSpec
    factor: InformedFactorSpec
    bounds: ModelBounds
    solver: SolverDefaults = field(default_factory=SolverDefaults)

    def __post_init__(self):
        if abs(self.informed.weight + self.standard.weight - 1.0) > 1e-12:
            raise ValueError("population weights must sum to 1")
        if abs(self.bounds.T - self.grid.T) > 1e-12:
            raise ValueError("bounds horizon must match the grid horizon")

    def agents(self) -> tuple[AgentSpec, AgentSpec]:
        return self.informed, self.standard

    def with_grid(self, grid: GridSpec) -> "MarketModel":
        return replace(self, grid=grid, bounds=ModelBounds(L=self.bounds.L, T=grid.T))

    def with_solver(self, **changes) -> "MarketModel":
        return replace(self, solver=replace(self.solver, **changes))


# ---------------------------------------------------------------------------
# coefficient catalog (used by config files; tests may pass raw callables)

def coeff_zero(_params, slot):
    if slot in ("drift", "vol_common", "vol_idio"):
        return lambda t, varpi: np.zeros_like(np.asarray(varpi, dtype=float))
    if slot == "running_cost_affine":
        return lambda t, varpi, b, c: np.zeros_like(np.asarray(varpi, dtype=float))
    if slot == "terminal_cost_affine":
        return lambda varpi, b, c: np.zeros_like(np.asarray(varpi, dtype=float))
    raise ModelError(f"zero coefficient unsupported for slot {slot}")


def coeff_constant(params, slot):
    v = float(params.get("value", 0.0))
    if slot in ("drift", "vol_common", "vol_idio"):
        return lambda t, varpi: np.full_like(np.asarray(varpi, dtype=float), v)
    if slot == "running_cost_affine":
        return lambda t, varpi, b, c: np.full_like(np.asarray(varpi, dtype=float), v)
    if slot == "terminal_cost_affine":
        return lambda varpi, b, c: np.full_like(np.asarray(varpi, dtype=float), v)
    raise ModelError(f"constant coefficient unsupported for slot {slot}")


def coeff_clipped_common_noise(params, slot):
    scale = float(params.get("scale", 1.0))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return lambda t, varpi, b, c: scale * np.clip(b, -bound, bound)
    if slot == "terminal_cost_affine":
        return lambda varpi, b, c: scale * np.clip(b, -bound, bound)
    raise ModelError(f"clipped-common-noise unsupported for slot {slot}")


def coeff_clipped_price(params, slot):
    kappa = float(params.get("kappa", 0.25))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return lambda t, varpi, b, c: kappa * np.clip(varpi, -bound, bound)
    if slot == "terminal_cost_affine":
        return lambda varpi, b, c: kappa * np.clip(varpi, -bound, bound)
    raise ModelError(f"clipped-price unsupported for slot {slot}")


def coeff_clipped_factor(params, slot):
    scale = float(params.get("scale", 1.0))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return lambda t, varpi, b, c: scale * np.clip(c, -bound, bound)
    if slot == "terminal_cost_affine":
        return lambda varpi, b, c: scale * np.clip(c, -bound, bound)
    raise ModelError(f"clipped-factor unsupported for slot {slot}")


def coeff_tanh_state(params, slot):
    scale = float(params.get("scale", 1.0))
    if slot == "running_cost_convex":
        f = lambda t, x, varpi, c: scale * np.log(np.cosh(x))
        df = lambda t, x, varpi, c: scale * np.tanh(x)
        return f, df
    if slot == "terminal_cost_convex":
        g = lambda x, varpi, c: scale * np.log(np.cosh(x))
        dg = lambda x, varpi, c: scale * np.tanh(x)
        return g, dg
    raise ModelError(f"tanh-state unsupported for slot {slot}")


def coeff_affine_state(params, slot):
    """Convex-mode coefficient that is actually affine in x (oracle instances)."""
    v = float(params.get("value", 0.0))
    if slot == "running_cost_convex":
        return (lambda t, x, varpi, c: v * x), (lambda t, x, varpi, c: np.full_like(np.asarray(x, float), v))
    if slot == "terminal_cost_convex":
        return (lambda x, varpi, c: v * x), (lambda x, varpi, c: np.full_like(np.asarray(x, float), v))
    raise ModelError(f"affine-state unsupported for slot {slot}")


COEFF_CATALOG = {
    "zero": coeff_zero,
    "constant": coeff_constant,
    "clipped-common-noise": coeff_clipped_common_noise,
    "clipped-price": coeff_clipped_price,
    "clipped-factor": coeff_clipped_factor,
    "tanh-state": coeff_tanh_state,
    "affine-state": coeff_affine_state,
}


def make_coefficient(name: str, params: dict, slot: str):
    if name not in COEFF_CATALOG:
        raise ModelError(f"unknown coefficient {name!r} (catalog: {sorted(COEFF_CATALOG)})")
    return COEFF_CATALOG[name](params, slot)


# ---------------------------------------------------------------------------
# validation

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    location: Optional[tuple]


@dataclass
class ValidationReport:
    agent: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"validation[{self.agent}]: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            loc = "" if c.location is None else f" at {tuple(round(float(v), 4) for v in c.location)}"
            lines.append(f"  {'ok ' if c.passed else 'BAD'} {c.name}: worst slack {c.worst:+.3e}{loc}")
        return "\n".join(lines)


def validate(agent: AgentSpec, bounds: ModelBounds, probe_budget: int = 2000) -> ValidationReport:
    """Numerically probe the standing coefficient assumptions on a random box
    of half-width max(2*C_B, 10), at a fixed seed."""
    if probe_budget < 1:
        raise ValueError("probe budget must be >= 1")
    box = max(2.0 * bounds.C_B, 10.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 11))))
    t = rng.random(probe_budget) * bounds.T
    x = box * (2 * rng.random(probe_budget) - 1)
    varpi = box * (2 * rng.random(probe_budget) - 1)
    b = box * (2 * rng.random(probe_budget) - 1)
    cfac = box * (2 * rng.random(probe_budget) - 1)
    L = bounds.L
    checks = []

    def record(name, slack, idx):
        worst = float(np.max(slack))
        j = int(np.argmax(slack))
        loc = tuple(float(v[j]) for v in idx)
        checks.append(CheckResult(name, worst <= 1e-9, worst, loc))

    def finite(name, arr, idx):
        if not np.all(np.isfinite(arr)):
            j = int(np.argmin(np.isfinite(arr)))
            raise ModelError(f"non-finite {name} output", point=tuple(float(v[j]) for v in idx))

    growth = np.zeros(probe_budget)
    for fn in (agent.drift, agent.vol_common, agent.vol_idio):
        vals = np.asarray(fn(t, varpi), dtype=float)
        finite("coefficient", vals, (t, varpi))
        growth = growth + np.abs(vals)
    record("coefficient growth |l|+|s|+|s0| <= L(1+|w|)", growth - L * (1 + np.abs(varpi)), (t, varpi))

    if agent.cost_mode == AFFINE:
        rc = np.asarray(agent.running_cost(t, varpi, b, cfac), dtype=float)
        tc = np.asarray(agent.terminal_cost(varpi, b, cfac), dtype=float)
        finite("running cost", rc, (t, varpi, b, cfac))
        finite("terminal cost", tc, (t, varpi, b, cfac))
        record("|running cost| <= L", np.abs(rc) - L, (t, varpi, b, cfac))
        record("|terminal cost| <= L", np.abs(tc) - L, (t, varpi, b, cfac))
        costs = [(agent.running_cost, (t, varpi, b)), (agent.terminal_cost, (varpi, b))]
    else:
        dfx = np.asarray(agent.running_cost_dx(t, x, varpi, cfac), dtype=float)
        dgx = np.asarray(agent.terminal_cost_dx(x, varpi, cfac), dtype=float)
        finite("cost derivative", dfx, (t, x, varpi, cfac))
        finite("cost derivative", dgx, (t, x, varpi, cfac))
        record("|d_x running cost| <= L", np.abs(dfx) - L, (t, x, varpi, cfac))
        record("|d_x terminal cost| <= L", np.abs(dgx) - L, (t, x, varpi, cfac))
        h = np.maximum(1e-3, 1e-3 * np.abs(x))
        df_hi = np.asarray(agent.running_cost_dx(t, x + h, varpi, cfac), dtype=float)
        df_lo = np.asarray(agent.running_cost_dx(t, x - h, varpi, cfac), dtype=float)
        dg_hi = np.asarray(agent.terminal_cost_dx(x + h, varpi, cfac), dtype=float)
        dg_lo = np.asarray(agent.terminal_cost_dx(x - h, varpi, cfac), dtype=float)
        record("Lipschitz(d_x costs) <= L",
               np.maximum(np.abs(df_hi - df_lo), np.abs(dg_hi - dg_lo)) / (2 * h) - L,
               (t, x, varpi, cfac))
        # convexity: the derivative must be nondecreasing in x
        record("convexity (monotone d_x)", np.maximum(df_lo - df_hi, dg_lo - dg_hi), (t, x, varpi, cfac))
        costs = [(agent.running_cost, (t, x, varpi)), (agent.running_cost_dx, (t, x, varpi)),
                 (agent.terminal_cost, (x, varpi)), (agent.terminal_cost_dx, (x, varpi))]
    if not agent.reads_factor:  # a solve hands such an agent's costs c = None
        gap = sum(np.abs(np.asarray(fn(*args, cfac + 1.0), dtype=float)
                         - np.asarray(fn(*args, cfac), dtype=float)) for fn, args in costs)
        record("factor independence", gap, costs[0][1] + (cfac,))
    return ValidationReport(agent=agent.population, checks=checks)


# ---------------------------------------------------------------------------
# presets

def _agent(pop, vol_common=0.2, vol_idio=0.3, **costs):
    """A preset agent: Lambda = 1, weight 1/2, zero drift, constant volatilities."""
    return AgentSpec(population=pop, lam=1.0, weight=0.5, drift=coeff_zero({}, "drift"),
                     vol_common=coeff_constant({"value": vol_common}, "vol_common"),
                     vol_idio=coeff_constant({"value": vol_idio}, "vol_idio"), **costs)


def _market(name, informed, standard, L=1.0, grid=GridSpec(n=2, l=1, m=8, T=1.0), **solver):
    return MarketModel(name=name, informed=informed, standard=standard, grid=grid,
                       factor=InformedFactorSpec(rho=0.5), bounds=ModelBounds(L=L, T=grid.T),
                       solver=SolverDefaults(**solver))


def preset(name: str) -> MarketModel:
    """Canned market instances used by the demos and the acceptance suite."""
    if name in ("zero", "deterministic", "terminal-common-noise"):
        if name == "deterministic":
            run = coeff_constant({"value": 0.25}, "running_cost_affine")
            term = coeff_constant({"value": 0.5}, "terminal_cost_affine")
        else:
            run = coeff_zero({}, "running_cost_affine")
            term = (coeff_zero({}, "terminal_cost_affine") if name == "zero" else
                    coeff_clipped_common_noise({"scale": 1.0, "bound": 8.0}, "terminal_cost_affine"))
        costs = dict(cost_mode=AFFINE, running_cost=run, terminal_cost=term)
        L, samples = (8.0, 20000) if name == "terminal-common-noise" else (1.0, 2000)
        return _market(name, _agent(INFORMED, **costs), _agent(STANDARD, **costs), L=L,
                       samples=samples)
    if name in ("general-convex", "clearing"):
        f, df = coeff_tanh_state({"scale": 1.0}, "running_cost_convex")
        g, dg = coeff_tanh_state({"scale": 1.0}, "terminal_cost_convex")
        costs = dict(cost_mode=GENERAL_CONVEX, running_cost=f, running_cost_dx=df,
                     terminal_cost=g, terminal_cost_dx=dg)
        if name == "general-convex":
            return _market(name, _agent(INFORMED, **costs), _agent(STANDARD, **costs),
                           grid=GridSpec(n=2, l=1, m=4, T=1.0), samples=4000, tol=5e-4)
        # x-cost market driven by idiosyncratic noise only: the equilibrium
        # price is deterministic in time, so the tree carries no common-noise
        # discretization gap and the finite-market residual decays cleanly.
        return _market(name, _agent(INFORMED, 0.0, **costs), _agent(STANDARD, 0.0, **costs),
                       grid=GridSpec(n=1, l=1, m=8, T=1.0), samples=30000, tol=2e-4,
                       max_iter=60)
    if name == "single-informed":
        informed = _agent(INFORMED, vol_idio=0.0, cost_mode=AFFINE,
                          running_cost=coeff_zero({}, "running_cost_affine"),
                          terminal_cost=coeff_clipped_common_noise(
                              {"scale": 1.0, "bound": 8.0}, "terminal_cost_affine"))
        standard = _agent(STANDARD, cost_mode=AFFINE,
                          running_cost=coeff_clipped_price({"kappa": 0.25, "bound": 8.0},
                                                           "running_cost_affine"),
                          terminal_cost=coeff_constant({"value": 0.5}, "terminal_cost_affine"))
        return _market(name, informed, standard, L=8.0, samples=20000, tol=1e-4, max_iter=60)
    raise ModelError(f"unknown preset {name!r}")


PRESET_NAMES = ("zero", "deterministic", "terminal-common-noise", "general-convex",
                "single-informed", "clearing")
