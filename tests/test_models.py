import numpy as np
import pytest

from mfpricelab.errors import ModelError
from mfpricelab.models import (AFFINE, GENERAL_CONVEX, AgentSpec, MarketModel,
                               ModelBounds, PRESET_NAMES, coeff_constant,
                               coeff_zero, make_coefficient, preset, validate)
from mfpricelab.sampling import InformedFactorSpec
from mfpricelab.tree import GridSpec


def affine_agent(pop="S", weight=0.5, lam=1.0, run=None, term=None, **kw):
    return AgentSpec(
        population=pop, lam=lam, weight=weight,
        drift=coeff_zero({}, "drift"),
        vol_common=coeff_constant({"value": 0.2}, "vol_common"),
        vol_idio=coeff_constant({"value": 0.3}, "vol_idio"),
        cost_mode=AFFINE,
        running_cost=run or coeff_zero({}, "running_cost_affine"),
        terminal_cost=term or coeff_zero({}, "terminal_cost_affine"), **kw)


class TestModelBounds:
    def test_adjoint_bound_formula(self):
        b = ModelBounds(L=2.0, T=1.5)
        assert b.C_B == 2.0 * 2.5
        assert b.envelope(1.5) == pytest.approx(2.0)
        assert b.envelope(0.0) == pytest.approx(b.C_B)


class TestAgentSpec:
    def test_weight_normalization_enforced(self):
        grid = GridSpec(n=2, l=1, m=2, T=1.0)
        with pytest.raises(ValueError, match="sum to 1"):
            MarketModel(name="x", informed=affine_agent("I", weight=0.6),
                        standard=affine_agent("S", weight=0.6),
                        grid=grid, factor=InformedFactorSpec(),
                        bounds=ModelBounds(L=1.0, T=1.0))

    def test_positive_penalty(self):
        with pytest.raises(ValueError):
            affine_agent(lam=0.0)

    def test_standard_cannot_read_factor(self):
        with pytest.raises(ValueError):
            affine_agent(pop="S", reads_factor=True)

    def test_convex_requires_derivatives(self):
        with pytest.raises(ValueError):
            AgentSpec(population="S", lam=1.0, weight=0.5,
                      drift=coeff_zero({}, "drift"),
                      vol_common=coeff_zero({}, "vol_common"),
                      vol_idio=coeff_zero({}, "vol_idio"),
                      cost_mode=GENERAL_CONVEX,
                      running_cost=lambda t, x, w, c: x,
                      terminal_cost=lambda x, w, c: x)


class TestValidation:
    def test_zero_costs_pass_with_zero_slack(self):
        agent = affine_agent()
        report = validate(agent, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        assert report.passed
        growth = next(c for c in report.checks if "growth" in c.name)
        # 0.5 of the L(1+|w|) budget is used at varpi = 0 (constant vols)
        assert growth.worst <= -0.5

    def test_every_preset_validates(self):
        for name in PRESET_NAMES:
            model = preset(name)
            for agent in model.agents():
                report = validate(agent, model.bounds, probe_budget=800)
                assert report.passed, f"{name}/{agent.population}:\n{report.summary()}"

    def test_quadratic_cost_flagged(self):
        # f(x) = x^2 has derivative 2|x| > L = 1 on the probe box
        f = lambda t, x, w, c: x ** 2
        df = lambda t, x, w, c: 2.0 * x
        g = lambda x, w, c: np.zeros_like(x)
        dg = lambda x, w, c: np.zeros_like(x)
        agent = AgentSpec(population="S", lam=1.0, weight=0.5,
                          drift=coeff_zero({}, "drift"),
                          vol_common=coeff_zero({}, "vol_common"),
                          vol_idio=coeff_zero({}, "vol_idio"),
                          cost_mode=GENERAL_CONVEX,
                          running_cost=f, running_cost_dx=df,
                          terminal_cost=g, terminal_cost_dx=dg)
        report = validate(agent, ModelBounds(L=1.0, T=1.0), probe_budget=2000)
        bad = next(c for c in report.checks if "d_x running" in c.name)
        assert not bad.passed and bad.worst > 0
        assert abs(bad.location[1]) > 0.5  # flagged point has |x| > L/2

    def test_derivative_matches_finite_difference(self):
        # analytic d_x vs central differences, 1e3 probes, <= 1e-6 relative
        model = preset("general-convex")
        agent = model.standard
        rng = np.random.default_rng(2)
        t = rng.random(1000)
        x = 4.0 * (2 * rng.random(1000) - 1)
        w = 2.0 * (2 * rng.random(1000) - 1)
        c = np.zeros(1000)
        h = 1e-5
        fd = (agent.running_cost(t, x + h, w, c) - agent.running_cost(t, x - h, w, c)) / (2 * h)
        exact = agent.running_cost_dx(t, x, w, c)
        rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-3)
        assert np.max(rel) <= 1e-6

    def test_nonfinite_coefficient_reported_with_point(self):
        bad = affine_agent(run=lambda t, w, b, c: np.where(w > 0, np.inf, 0.0))
        with pytest.raises(ModelError) as err:
            validate(bad, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        assert err.value.point is not None

    def test_factor_independence_probed(self):
        # informed agent whose costs read c but claims otherwise
        leaky = AgentSpec(population="I", lam=1.0, weight=0.5,
                          drift=coeff_zero({}, "drift"),
                          vol_common=coeff_zero({}, "vol_common"),
                          vol_idio=coeff_zero({}, "vol_idio"),
                          cost_mode=AFFINE,
                          running_cost=lambda t, w, b, c: np.clip(c, -1, 1),
                          terminal_cost=coeff_zero({}, "terminal_cost_affine"),
                          reads_factor=False)
        report = validate(leaky, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        dep = next(c for c in report.checks if "factor independence" in c.name)
        assert not dep.passed


    def test_convex_factor_independence_probed(self):
        # a convex informed agent whose terminal cost reads c, undeclared; its
        # x-derivatives do not, so only the probe of the cost itself sees it
        zero = lambda t, x, w, c: np.zeros_like(x)
        leaky = AgentSpec(population="I", lam=1.0, weight=0.5,
                          drift=coeff_zero({}, "drift"),
                          vol_common=coeff_zero({}, "vol_common"),
                          vol_idio=coeff_zero({}, "vol_idio"),
                          cost_mode=GENERAL_CONVEX, running_cost=zero, running_cost_dx=zero,
                          terminal_cost=lambda x, w, c: 0.5 * x + 0.5 * np.clip(c, -1, 1),
                          terminal_cost_dx=lambda x, w, c: np.full_like(x, 0.5))
        report = validate(leaky, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        dep = next(c for c in report.checks if "factor independence" in c.name)
        assert not dep.passed

    def test_price_independence_probed(self):
        # a cost that declares it reads b only, but reads varpi, claims a
        # price-free agent: the probe at varpi + 1 fails it
        liar = make_coefficient("clipped-price", {"kappa": 0.25}, "running_cost_affine")
        liar.reads = frozenset({"b"})
        agent = affine_agent(run=liar)
        assert not agent.reads_price
        report = validate(agent, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        dep = next(c for c in report.checks if c.name == "price independence")
        assert not dep.passed and dep.worst > 0.0 and not report.passed
        # declared honestly, the agent reads the price and is not probed
        honest = affine_agent(run=make_coefficient("clipped-price", {"kappa": 0.25},
                                                   "running_cost_affine"))
        assert honest.reads_price
        report = validate(honest, ModelBounds(L=1.0, T=1.0), probe_budget=500)
        assert report.passed and all(c.name != "price independence" for c in report.checks)

    def test_price_independence_is_exact(self):
        # a price read far below the other checks' 1e-9 slack still fails
        run = lambda t, w, b, c: 1e-12 * np.clip(w, -1, 1)
        run.reads = frozenset()
        report = validate(affine_agent(run=run), ModelBounds(L=1.0, T=1.0), probe_budget=500)
        dep = next(c for c in report.checks if c.name == "price independence")
        assert 0.0 < dep.worst < 1e-9 and not dep.passed

    def test_reads_price(self):
        # only an affine agent whose two costs declare no varpi read is
        # price-free; a raw callable declares nothing, so it reads everything
        assert [a.reads_price for a in preset("single-informed").agents()] == [False, True]
        assert all(a.reads_price for a in preset("general-convex").agents())
        raw = affine_agent(term=lambda w, b, c: np.zeros_like(w))
        assert raw.reads_price and not affine_agent().reads_price

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_pass(self, name):
        model = preset(name)
        for agent in model.agents():
            assert validate(agent, model.bounds).passed


class TestSolverDefaults:
    @pytest.mark.parametrize("change", [{"samples": 0}, {"tol": 0.0}, {"max_iter": 0},
                                        {"mode": "bogus"}, {"min_bucket": 0},
                                        {"min_bucket": -5}])
    def test_rejects_bad_settings(self, change):
        with pytest.raises(ValueError, match=next(iter(change))):
            preset("zero").with_solver(**change)

    def test_automatic_key_mode(self):
        solver = preset("zero").solver
        assert solver.mode is None
        assert [solver.key_mode(n) for n in (1, 2, 3)] == ["prefix", "prefix", "markov"]
        assert solver.key_mode(4) == "markov"
        assert preset("zero").with_solver(mode="prefix").solver.key_mode(4) == "prefix"

    def test_with_solver_keeps_the_rest(self):
        model = preset("single-informed")
        changed = model.with_solver(samples=10)
        assert changed.solver.samples == 10 and changed.solver.tol == model.solver.tol
        assert changed.grid == model.grid and changed.informed is model.informed


class TestPresets:
    def test_zero_preset_zero_costs(self):
        model = preset("zero")
        t = np.zeros(3)
        w = np.array([-1.0, 0.0, 2.0])
        for agent in model.agents():
            assert np.all(agent.running_cost(t, w, w, w) == 0.0)
            assert np.all(agent.terminal_cost(w, w, w) == 0.0)

    def test_deterministic_preset_constants(self):
        model = preset("deterministic")
        w = np.linspace(-1, 1, 5)
        for agent in model.agents():
            assert np.all(agent.running_cost(0.1, w, w, w) == 0.25)
            assert np.all(agent.terminal_cost(w, w, w) == 0.5)

    def test_single_informed_scaling_fields(self):
        model = preset("single-informed")
        assert model.informed.vol_idio(0.0, np.zeros(2)).tolist() == [0.0, 0.0]
        assert not model.informed.reads_factor  # section-6 structural condition

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            preset("nope")

    def test_unknown_coefficient(self):
        with pytest.raises(ModelError):
            make_coefficient("nope", {}, "drift")
