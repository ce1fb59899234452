"""Declarative market specification: two subpopulations plus grid and factor.

Coefficients are vectorized callables.  Affine costs take the environment
(t, varpi, b, c) directly; general convex costs take (t, x, varpi, c) and must
come with their x-derivative.

Each catalog coefficient declares, as its `reads` set, the arguments its value
depends on: `zero` and `constant` read none, `clipped-common-noise` reads b,
`clipped-price` varpi, `clipped-factor` c, and the convex `tanh-state` and
`affine-state` x (affine-state's derivative none).  A raw callable declares
nothing and counts as reading every argument but the factor c
(declared_reads): a varpi read only picks a slower path to the same answer,
while a c read changes what the agent observes, so it must be declared.  An
affine agent whose two costs declare no varpi read (AgentSpec.reads_price
False) has an adjoint the price does not move: a solve fits it once, at its
first price-map evaluation, and validate probes the claim.  An affine agent
that reads the price through a running cost declaring no read beyond
(t, varpi) (clipped-price, zero, constant) is integrated on the price's key
tables in a solve's loop (fbsde.solved_on_keys); the cost is then given
b = c = None, so one that reads them raises ModelError.  The catalog's drift
and volatility entries (drift, vol_common, vol_idio take (t, varpi)) are
`zero` and `constant`, which read neither: an agent none of whose three
declares a varpi read (AgentSpec.dynamics_read_price False) has control-free
Euler increments the price does not move, so a solve builds a convex agent's
once, at its first price-map evaluation, and validate probes the claim.

An informed agent with a cost the solver reads that declares a c read
(AgentSpec.reads_factor) has C drawn; the costs of any other agent get
c = None, validate probes that they do not read it, and a solve in which one
does raises ModelError.  Each population's adjoint is a conditional
expectation given the tree key (the projected common-noise path up to the
interval) and, within the key:
- an affine standard agent: nothing more (the key only);
- an affine informed agent: (B_t[, C_t]), C when it reads the factor; the
  informed inference check conditions it on the key only;
- a convex agent: (X_t, B_t[, C_t]), C likewise.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"coefficient bound L must be finite and > 0, got {self.L}")

    @property
    def C_B(self) -> float:
        return self.L * (1.0 + self.T)

    def envelope(self, t) -> np.ndarray:
        """Time-t bound on the adjoint, L*(1 + T - t); C_B at t = 0."""
        return self.L * (1.0 + self.T - np.asarray(t))


def declared_reads(fn) -> frozenset:
    """fn.reads; a raw callable declares nothing and counts as reading all but c."""
    return getattr(fn, "reads", frozenset({"t", "x", "varpi", "b"}))


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

    def __post_init__(self):
        if self.population not in (INFORMED, STANDARD):
            raise ValueError(f"population must be I or S, got {self.population!r}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"control penalty must be finite and positive, got {self.lam}")
        if not 0.0 < self.weight < 1.0:
            raise ValueError("population weight must lie in (0,1)")
        if self.cost_mode not in (AFFINE, GENERAL_CONVEX):
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")
        if self.cost_mode == GENERAL_CONVEX and (self.running_cost_dx is None or self.terminal_cost_dx is None):
            raise ValueError("general convex mode requires x-derivatives of the costs")
        if self.population == STANDARD and self.reads_factor:
            raise ValueError("standard agents cannot observe the informed factor (a cost declares a c read)")

    @property
    def lam_bar(self) -> float:
        return 1.0 / self.lam

    @property
    def reads_price(self) -> bool:
        """False only for an affine agent neither of whose costs declares a
        varpi read (see the module docstring): its response and adjoint are
        the same at every price."""
        costs = (self.running_cost, self.terminal_cost)
        return self.cost_mode != AFFINE or any("varpi" in declared_reads(fn) for fn in costs)

    @property
    def reads_factor(self) -> bool:
        """Whether a cost the solver reads declares a c read (see the module docstring)."""
        dx = () if self.cost_mode == AFFINE else (self.running_cost_dx, self.terminal_cost_dx)
        return any("c" in declared_reads(fn) for fn in (self.running_cost, self.terminal_cost, *dx))

    @property
    def dynamics_read_price(self) -> bool:
        """False only when none of drift, vol_common and vol_idio declares a
        varpi read (see the module docstring): the control-free Euler
        increments are the same at every price."""
        return any("varpi" in declared_reads(fn) for fn in (self.drift, self.vol_common, self.vol_idio))


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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
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

def _reading(fn, *names):
    """fn, declaring as fn.reads the only arguments its value depends on."""
    fn.reads = frozenset(names)
    return fn


def coeff_zero(_params, slot):
    return coeff_constant({}, slot)


def coeff_constant(params, slot):
    v = float(params.get("value", 0.0))
    if slot in ("drift", "vol_common", "vol_idio"):
        return _reading(lambda t, varpi: np.full_like(np.asarray(varpi, dtype=float), v))
    if slot == "running_cost_affine":
        return _reading(lambda t, varpi, b, c: np.full_like(np.asarray(varpi, dtype=float), v))
    if slot == "terminal_cost_affine":
        return _reading(lambda varpi, b, c: np.full_like(np.asarray(varpi, dtype=float), v))


def coeff_clipped_common_noise(params, slot):
    scale = float(params.get("scale", 1.0))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return _reading(lambda t, varpi, b, c: scale * np.clip(b, -bound, bound), "b")
    if slot == "terminal_cost_affine":
        return _reading(lambda varpi, b, c: scale * np.clip(b, -bound, bound), "b")


def coeff_clipped_price(params, slot):
    kappa = float(params.get("kappa", 0.25))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return _reading(lambda t, varpi, b, c: kappa * np.clip(varpi, -bound, bound), "varpi")
    if slot == "terminal_cost_affine":
        return _reading(lambda varpi, b, c: kappa * np.clip(varpi, -bound, bound), "varpi")


def coeff_clipped_factor(params, slot):
    scale = float(params.get("scale", 1.0))
    bound = float(params.get("bound", 1.0))
    if slot == "running_cost_affine":
        return _reading(lambda t, varpi, b, c: scale * np.clip(c, -bound, bound), "c")
    if slot == "terminal_cost_affine":
        return _reading(lambda varpi, b, c: scale * np.clip(c, -bound, bound), "c")


def coeff_tanh_state(params, slot):
    scale = float(params.get("scale", 1.0))
    if slot == "running_cost_convex":
        f = _reading(lambda t, x, varpi, c: scale * np.log(np.cosh(x)), "x")
        df = _reading(lambda t, x, varpi, c: scale * np.tanh(x), "x")
        return f, df
    if slot == "terminal_cost_convex":
        g = _reading(lambda x, varpi, c: scale * np.log(np.cosh(x)), "x")
        dg = _reading(lambda x, varpi, c: scale * np.tanh(x), "x")
        return g, dg


def coeff_affine_state(params, slot):
    """Convex-mode coefficient that is actually affine in x (oracle instances)."""
    v = float(params.get("value", 0.0))
    if slot == "running_cost_convex":
        return (_reading(lambda t, x, varpi, c: v * x, "x"),
                _reading(lambda t, x, varpi, c: np.full_like(np.asarray(x, float), v)))
    if slot == "terminal_cost_convex":
        return (_reading(lambda x, varpi, c: v * x, "x"),
                _reading(lambda x, varpi, c: np.full_like(np.asarray(x, float), v)))


COEFF_CATALOG = {  # name -> (builder, None off its slots; the parameters it takes)
    "zero": (coeff_zero, ()),
    "constant": (coeff_constant, ("value",)),
    "clipped-common-noise": (coeff_clipped_common_noise, ("scale", "bound")),
    "clipped-price": (coeff_clipped_price, ("kappa", "bound")),
    "clipped-factor": (coeff_clipped_factor, ("scale", "bound")),
    "tanh-state": (coeff_tanh_state, ("scale",)),
    "affine-state": (coeff_affine_state, ("value",)),
}


def make_coefficient(name: str, params: dict, slot: str):
    """The catalog coefficient `name` for `slot`; a slot or parameter it does not take is refused."""
    if name not in COEFF_CATALOG:
        raise ModelError(f"unknown coefficient {name!r} (catalog: {sorted(COEFF_CATALOG)})")
    build, takes = COEFF_CATALOG[name]
    extra = set(params) - set(takes)
    if extra:
        raise ModelError(f"{name} takes no parameter {min(extra)!r} (it takes: {', '.join(takes) or 'none'})")
    if (coefficient := build(params, slot)) is None:
        raise ModelError(f"{name} unsupported for slot {slot}")
    return coefficient


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
    of half-width max(2*C_B, 10), at a fixed seed, and the declarations a
    solve relies on: that the costs of an agent declaring no factor read (not
    reads_factor) do not read it, and that those of a price-free agent (not
    reads_price), and each drift or volatility that declares no varpi read,
    give the same values, bit for bit, with varpi moved by 1."""
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

    def record(name, slack, idx, tol=1e-9):
        worst = float(np.max(slack))
        j = int(np.argmax(slack))
        loc = tuple(float(v[j]) for v in idx)
        checks.append(CheckResult(name, worst <= tol, worst, loc))

    def finite(name, arr, idx):
        if not np.all(np.isfinite(arr)):
            j = int(np.argmin(np.isfinite(arr)))
            raise ModelError(f"non-finite {name} output", point=tuple(float(v[j]) for v in idx))

    growth = np.zeros(probe_budget)
    moved = []  # a solve builds the Euler noise once when no coefficient reads varpi
    for fn in (agent.drift, agent.vol_common, agent.vol_idio):
        vals = np.asarray(fn(t, varpi), dtype=float)
        finite("coefficient", vals, (t, varpi))
        growth = growth + np.abs(vals)
        if "varpi" not in declared_reads(fn):
            moved.append(np.abs(np.asarray(fn(t, varpi + 1.0), dtype=float) - vals))
    record("coefficient growth |l|+|s|+|s0| <= L(1+|w|)", growth - L * (1 + np.abs(varpi)), (t, varpi))
    if moved:
        record("dynamics price independence", np.broadcast_to(sum(moved), t.shape), (t, varpi),
               tol=0.0)

    if agent.cost_mode == AFFINE:
        rc = np.asarray(agent.running_cost(t, varpi, b, cfac), dtype=float)
        tc = np.asarray(agent.terminal_cost(varpi, b, cfac), dtype=float)
        finite("running cost", rc, (t, varpi, b, cfac))
        finite("terminal cost", tc, (t, varpi, b, cfac))
        record("|running cost| <= L", np.abs(rc) - L, (t, varpi, b, cfac))
        record("|terminal cost| <= L", np.abs(tc) - L, (t, varpi, b, cfac))
        costs = [(agent.running_cost, (t, varpi, b)), (agent.terminal_cost, (varpi, b))]
        if not agent.reads_price:  # a solve fits such an agent once and reuses it at every price
            moved = varpi + 1.0
            gap = (np.abs(np.asarray(agent.running_cost(t, moved, b, cfac), dtype=float) - rc)
                   + np.abs(np.asarray(agent.terminal_cost(moved, b, cfac), dtype=float) - tc))
            record("price independence", gap, (t, varpi, b, cfac), tol=0.0)
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
