import numpy as np
import pytest
from dataclasses import replace

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.fbsde import (backward_integral, cost_functional, decoupling_gamma,
                              decoupling_probe, euler_state, optimal_control,
                              per_sample_cost, solve_affine, solve_convex)
from mfpricelab.models import (AFFINE, GENERAL_CONVEX, AgentSpec, ModelBounds,
                               coeff_constant, coeff_zero, preset)
from mfpricelab.price import constant_price, materialize, zero_price
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import FULL_PREFIX, GridSpec

SPEC = GridSpec(n=2, l=1, m=4, T=1.0)
BOUNDS = ModelBounds(L=1.0, T=1.0)


@pytest.fixture(scope="module")
def batch():
    return sample_batch(SPEC, 77, 3000)


@pytest.fixture(scope="module")
def buckets(batch):
    return TreeConditioner(SPEC, batch.node_path, FULL_PREFIX, min_count=30)


def affine_agent(run=None, term=None, pop="S", lam=1.0, vol_common=0.2, vol_idio=0.3,
                 reads_factor=False):
    return AgentSpec(
        population=pop, lam=lam, weight=0.5,
        drift=coeff_zero({}, "drift"),
        vol_common=coeff_constant({"value": vol_common}, "vol_common"),
        vol_idio=coeff_constant({"value": vol_idio}, "vol_idio"),
        cost_mode=AFFINE,
        running_cost=run or coeff_zero({}, "running_cost_affine"),
        terminal_cost=term or coeff_zero({}, "terminal_cost_affine"),
        reads_factor=reads_factor)


def convex_agent(f, df, g, dg, pop="S", lam=1.0):
    return AgentSpec(
        population=pop, lam=lam, weight=0.5,
        drift=coeff_zero({}, "drift"),
        vol_common=coeff_constant({"value": 0.2}, "vol_common"),
        vol_idio=coeff_constant({"value": 0.3}, "vol_idio"),
        cost_mode=GENERAL_CONVEX,
        running_cost=f, running_cost_dx=df, terminal_cost=g, terminal_cost_dx=dg)


class TestOptimalControl:
    def test_zero(self):
        assert optimal_control(0.0, 0.0, 3.7) == 0.0

    def test_hand_value(self):
        assert optimal_control(1.0, 3.0, 2.0) == pytest.approx(-2.0)

    def test_minimizer_property(self):
        # brute-force grid search of y*a + w*a + Lambda*a^2/2
        rng = np.random.default_rng(1)
        grid = np.linspace(-20, 20, 20001)
        for _ in range(1000):
            y, w = rng.normal(size=2) * 3
            lam = rng.uniform(0.2, 4.0)
            a_hat = optimal_control(y, w, lam)
            cost = lambda a: y * a + w * a + 0.5 * lam * a ** 2
            assert cost(a_hat) <= np.min(cost(grid)) + 1e-12

    def test_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            optimal_control(0.0, 0.0, 0.0)


class TestBackwardIntegral:
    def test_constant_integrand(self, batch):
        vals = np.ones((5, SPEC.n_fine))
        ends = np.ones((5, SPEC.n_intervals))
        got = backward_integral(vals, ends, SPEC)
        assert np.allclose(got, (SPEC.T - batch.fine_grid)[None, :])

    def test_linear_integrand_exact(self, batch):
        # trapezoid integrates piecewise-linear functions exactly
        t = batch.fine_grid
        vals = np.tile(t, (3, 1))
        ends = np.tile(SPEC.interval_times()[1:], (3, 1))
        got = backward_integral(vals, ends, SPEC)
        assert np.allclose(got, (SPEC.T ** 2 - t ** 2)[None, :] / 2.0, atol=1e-12)


class TestSolveAffine:
    def test_zero_costs(self, batch, buckets):
        agent = affine_agent()
        price = constant_price(SPEC, buckets, 0.7)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        assert np.all(sol.Y == 0.0)
        assert np.allclose(sol.alpha, -agent.lam_bar * 0.7)

    def test_constant_costs_closed_form(self, batch, buckets):
        c0, g0 = 0.25, 0.5
        agent = affine_agent(run=coeff_constant({"value": c0}, "running_cost_affine"),
                             term=coeff_constant({"value": g0}, "terminal_cost_affine"))
        price = zero_price(SPEC, buckets)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        expect = g0 + c0 * (SPEC.T - batch.fine_grid)
        assert np.allclose(sol.Y, expect[None, :], atol=1e-12)
        ends = g0 + c0 * (SPEC.T - SPEC.interval_times()[1:])
        assert np.allclose(sol.Y_end, ends[None, :], atol=1e-12)

    def test_martingale_tower(self, batch, buckets):
        # terminal cost = clipped B_T: Y at t_i is the bucket mean of B_T,
        # which matches the bucket mean of B_{t_i} within 3 standard errors
        L = 8.0
        agent = affine_agent(term=lambda w, b, c: np.clip(b, -L, L))
        bounds = ModelBounds(L=L, T=1.0)
        price = zero_price(SPEC, buckets)
        sol = solve_affine(batch, price, agent, buckets, bounds, informed_state=False)
        for i in (1, 2, 3):
            j = i * SPEC.m
            stats_T = buckets.bucket_stats(i, batch.b[:, -1])
            stats_t = buckets.bucket_stats(i, batch.b[:, j])
            keep = ~stats_T.fallback
            se = np.sqrt(stats_T.se[keep, 0] ** 2 + stats_t.se[keep, 0] ** 2)
            gap = np.abs(stats_T.mean[keep, 0] - stats_t.mean[keep, 0])
            assert np.all(gap <= 3 * se + 1e-12)
            # and the solver's Y at t_i equals the bucket mean of B_T
            ymeans = buckets.bucket_stats(i, sol.Y[:, j]).mean[keep, 0]
            assert np.allclose(ymeans, stats_T.mean[keep, 0], atol=1e-10)

    def test_mode_error(self, batch, buckets):
        model = preset("general-convex")
        price = zero_price(SPEC, buckets)
        with pytest.raises(ValueError, match="affine"):
            solve_affine(batch, price, model.standard, buckets, BOUNDS)

    def test_no_state_path(self, batch, buckets):
        # the affine adjoint does not depend on the state: no Euler pass runs
        agent = affine_agent(run=coeff_constant({"value": 0.3}, "running_cost_affine"))
        sol = solve_affine(batch, constant_price(SPEC, buckets, -0.2), agent, buckets, BOUNDS)
        assert sol.X is None

    def test_no_bucket_stats_call(self, batch, buckets, monkeypatch):
        # every adjoint is a regress_slab fit (the degree-0 bucket mean when
        # there is no state), so no solve computes standard errors
        calls = []
        real = TreeConditioner.bucket_stats

        def spy(self, *args, **kwargs):
            calls.append(args[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TreeConditioner, "bucket_stats", spy)
        price = constant_price(SPEC, buckets, -0.2)
        for pop, reads_factor, informed_state in [("S", False, True), ("I", False, True),
                                                  ("I", True, True), ("I", False, False)]:
            agent = affine_agent(term=lambda w, b, c: np.clip(b + c, -1, 1), pop=pop,
                                 reads_factor=reads_factor)
            solve_affine(batch, price, agent, buckets, BOUNDS, informed_state=informed_state)
        assert calls == []

    def test_control_identity(self, batch, buckets):
        agent = affine_agent(term=lambda w, b, c: np.clip(b, -1, 1))
        price = constant_price(SPEC, buckets, 0.1)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        env = materialize(price, buckets)
        assert np.array_equal(sol.alpha, optimal_control(sol.Y, env.cadlag, agent.lam))

    def test_envelope_bound(self, batch, buckets):
        agent = affine_agent(run=coeff_constant({"value": 1.0}, "running_cost_affine"),
                             term=lambda w, b, c: np.clip(b, -1, 1))
        price = zero_price(SPEC, buckets)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        env_bound = BOUNDS.L * (1 + BOUNDS.T - batch.fine_grid)
        assert np.all(np.abs(sol.Y) <= env_bound[None, :] + 1e-12)
        assert np.max(np.abs(sol.Y)) <= BOUNDS.C_B


class TestSolveConvex:
    def test_zero_derivatives_one_pass(self, batch, buckets):
        z = lambda t, x, w, c: np.zeros_like(x)
        zt = lambda x, w, c: np.zeros_like(x)
        agent = convex_agent(z, z, zt, zt)
        price = constant_price(SPEC, buckets, 0.4)
        sol = solve_convex(batch, price, agent, buckets, BOUNDS)
        assert sol.picard_iters == 1
        assert np.all(sol.Y == 0.0)

    def test_affine_instance_matches_affine_solver(self, batch, buckets):
        c0, g0 = 0.25, 0.5
        f = lambda t, x, w, c: c0 * x
        df = lambda t, x, w, c: np.full_like(np.asarray(x, float), c0)
        g = lambda x, w, c: g0 * x
        dg = lambda x, w, c: np.full_like(np.asarray(x, float), g0)
        agent = convex_agent(f, df, g, dg)
        price = zero_price(SPEC, buckets)
        sol = solve_convex(batch, price, agent, buckets, BOUNDS)
        expect = g0 + c0 * (SPEC.T - batch.fine_grid)
        # deterministic response: the regression is exact up to ridge dust
        assert np.allclose(sol.Y, expect[None, :], atol=1e-5)

    def test_affine_instance_with_price_dependence(self, batch, buckets):
        # response depends on the (stochastic) price path; the convex route's
        # regression must agree with the affine bucket means within 3 SEs
        kap = 0.5
        f = lambda t, x, w, c: kap * np.clip(w, -1, 1) * x
        df = lambda t, x, w, c: kap * np.clip(w, -1, 1) + 0.0 * x
        g = lambda x, w, c: np.zeros_like(x)
        dg = lambda x, w, c: np.zeros_like(x)
        conv = convex_agent(f, df, g, dg)
        aff = affine_agent(run=lambda t, w, b, c: kap * np.clip(w, -1, 1))
        # a price that actually varies across keys: use the common-noise tracker
        tracker = affine_agent(term=lambda w, b, c: np.clip(b, -8, 8))
        base = solve_affine(batch, zero_price(SPEC, buckets), tracker, buckets,
                            ModelBounds(L=8.0, T=1.0), informed_state=False)
        from mfpricelab.price import DiscretePrice
        price = DiscretePrice.from_tables(buckets, [
            -buckets.bucket_stats(i, base.response[:, i * SPEC.m:(i + 1) * SPEC.m + 1]).mean
            for i in range(SPEC.n_intervals)])

        sol_c = solve_convex(batch, price, conv, buckets, BOUNDS)
        sol_a = solve_affine(batch, price, aff, buckets, BOUNDS)
        for i in range(SPEC.n_intervals):
            sl = slice(i * SPEC.m, (i + 1) * SPEC.m + 1)
            stats_c = buckets.bucket_stats(i, sol_c.response[:, sl])
            stats_a = buckets.bucket_stats(i, sol_a.response[:, sl])
            keep = ~stats_a.fallback
            se = np.sqrt(stats_c.se[keep] ** 2 + stats_a.se[keep] ** 2) + 1e-12
            gap = np.abs(stats_c.mean[keep] - stats_a.mean[keep])
            assert np.all(gap <= 3 * se)

    def test_short_horizon_contracts(self, buckets, monkeypatch):
        # halving T shrinks the first Picard update; non-convergence under an
        # unreachable tolerance raises the diagnostic error carrying the trace
        from mfpricelab import fbsde
        from mfpricelab.errors import PicardError
        monkeypatch.setattr(fbsde, "_PICARD_MAX", 3)
        monkeypatch.setattr(fbsde, "_PICARD_TOL", 0.0)
        model = preset("general-convex")
        agent = model.standard
        norms = {}
        for spec in (SPEC, GridSpec(n=2, l=1, m=4, T=0.5)):
            b = sample_batch(spec, 88, 2000)
            cond = TreeConditioner(spec, b.node_path, FULL_PREFIX, min_count=30)
            price = constant_price(spec, cond, 0.2)
            bounds = ModelBounds(L=1.0, T=spec.T)
            with pytest.raises(PicardError) as err:
                solve_convex(b, price, agent, cond, bounds)
            norms[spec.T] = err.value.trace[0]
        assert norms[0.5] < norms[1.0]

    def test_euler_state_recompute(self, batch, buckets):
        agent = preset("general-convex").standard
        price = constant_price(SPEC, buckets, -0.2)
        sol = solve_convex(batch, price, agent, buckets, BOUNDS)
        env = materialize(price, buckets)
        again = euler_state(batch, env, agent, sol.alpha)
        scale = np.maximum(np.abs(sol.X), 1.0)
        assert np.max(np.abs(again - sol.X) / scale) <= 1e-10

    def test_last_pass_is_the_solution(self, batch, buckets, monkeypatch):
        # N Picard passes cost N smoothings and N+1 Euler passes: the
        # converged pass is returned, plus one Euler pass under its control
        from mfpricelab import fbsde
        calls = {"_smooth_response": 0, "euler_state": 0}
        for name in calls:
            def counted(*args, _inner=getattr(fbsde, name), _name=name, **kw):
                calls[_name] += 1
                return _inner(*args, **kw)
            monkeypatch.setattr(fbsde, name, counted)
        agent = preset("general-convex").standard
        sol = solve_convex(batch, constant_price(SPEC, buckets, -0.2), agent, buckets, BOUNDS)
        assert sol.picard_iters > 1
        assert calls == {"_smooth_response": sol.picard_iters,
                         "euler_state": sol.picard_iters + 1}

    def test_boundedness(self, batch, buckets):
        model = preset("general-convex")
        price = zero_price(SPEC, buckets)
        sol = solve_convex(batch, price, model.standard, buckets, BOUNDS)
        assert np.max(np.abs(sol.Y)) <= BOUNDS.C_B


class TestCostFunctional:
    def test_zero_everything(self, batch, buckets):
        agent = affine_agent()
        price = zero_price(SPEC, buckets)
        control = np.zeros((batch.count, SPEC.n_fine))
        assert cost_functional(batch, price, agent, control, buckets) == 0.0

    def test_pure_quadratic_closed_form(self, batch, buckets):
        a0 = 0.8
        agent = affine_agent(vol_common=0.0, vol_idio=0.0)
        price = zero_price(SPEC, buckets)
        control = np.full((batch.count, SPEC.n_fine), a0)
        got = cost_functional(batch, price, agent, control, buckets)
        assert got == pytest.approx(0.5 * agent.lam * a0 ** 2 * SPEC.T, rel=1e-12)

    def test_shape_mismatch(self, batch, buckets):
        agent = affine_agent()
        price = zero_price(SPEC, buckets)
        with pytest.raises(ValueError):
            cost_functional(batch, price, agent, np.zeros((3, 3)), buckets)

    def test_perturbation_optimality(self, batch, buckets):
        # J(a_hat + eps*eta) >= J(a_hat) - 3 SE for bounded adapted eta
        agent = affine_agent(run=coeff_constant({"value": 0.3}, "running_cost_affine"),
                             term=lambda w, b, c: np.clip(b, -1, 1))
        price = constant_price(SPEC, buckets, -0.1)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        base = per_sample_cost(batch, price, agent, sol.alpha, buckets,
                               control_end=sol.alpha_end)
        rng = np.random.default_rng(10)
        eps = 0.1
        _, w = batch.idiosyncratic(agent.population)
        for _ in range(20):
            a1, a2, a3 = rng.normal(size=3)
            eta = np.sin(a1 * batch.b + a2 * w + a3 * batch.fine_grid[None, :])
            pert = per_sample_cost(batch, price, agent, sol.alpha + eps * eta, buckets)
            diff = pert - base
            se = diff.std(ddof=1) / np.sqrt(batch.count)
            assert diff.mean() >= -3 * se


class TestDecouplingProbe:
    def test_gamma_constant_value(self):
        # frozen from the closed form: C(1,1)=22+2e, c=C, gamma=sqrt(c)/(sqrt(1+c)-sqrt(c))
        assert decoupling_gamma(1.0, 1.0, 1.0) == pytest.approx(55.368652532, rel=1e-9)

    def test_affine_ratio_is_zero(self, batch, buckets):
        agent = affine_agent(term=lambda w, b, c: np.clip(b, -1, 1))
        price = zero_price(SPEC, buckets)
        out = decoupling_probe(agent, price, batch, buckets, BOUNDS, t=0.0, x1=-1.0, x2=1.0)
        assert out["ratio"] == 0.0

    def test_convex_ratio_below_gamma(self, batch, buckets):
        model = preset("general-convex")
        price = zero_price(SPEC, buckets)
        out = decoupling_probe(model.standard, price, batch, buckets, BOUNDS,
                               t=0.0, x1=-0.5, x2=0.5)
        assert 0.0 < out["ratio"] <= out["gamma_p"]

    def test_equal_starts_rejected(self, batch, buckets):
        agent = affine_agent()
        price = zero_price(SPEC, buckets)
        with pytest.raises(ValueError):
            decoupling_probe(agent, price, batch, buckets, BOUNDS, t=0.0, x1=1.0, x2=1.0)

    def test_off_grid_time_rejected(self, batch, buckets):
        agent = affine_agent()
        price = zero_price(SPEC, buckets)
        with pytest.raises(ValueError):
            decoupling_probe(agent, price, batch, buckets, BOUNDS, t=0.123, x1=0.0, x2=1.0)
