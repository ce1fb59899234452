import numpy as np
import pytest
from dataclasses import replace

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.errors import ModelError
from mfpricelab.fbsde import (_aitken_factor, _euler_noise, _slab, _smooth_response, _times,
                              backward_integral,
                              cost_functional, decoupling_gamma, decoupling_probe,
                              optimal_control, per_sample_cost, solve_affine, solve_agent,
                              solve_convex)
from mfpricelab.models import (AFFINE, GENERAL_CONVEX, AgentSpec, ModelBounds,
                               coeff_constant, coeff_zero, preset)
from mfpricelab.price import constant_price, fine_path, interval_view, materialize, zero_price
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


class TestCoefficientSlab:
    def test_negative_zero_scalar_gives_positive_zero(self, batch, buckets):
        # -0.0 slabs would leave -0.0 in zero Euler increments (and in CSV cells)
        assert not np.signbit(_slab(-0.0, (3, 2, 4))).any()
        negative_zero = lambda t, varpi: -0.0
        agent = AgentSpec(population="S", lam=1.0, weight=0.5, drift=negative_zero,
                          vol_common=negative_zero, vol_idio=negative_zero, cost_mode=AFFINE,
                          running_cost=coeff_zero({}, "running_cost_affine"),
                          terminal_cost=coeff_zero({}, "terminal_cost_affine"))
        noise = _euler_noise(batch, materialize(zero_price(SPEC, buckets), buckets), agent)
        assert noise.shape == (batch.count, SPEC.n_intervals, SPEC.m)
        assert np.all(noise == 0.0) and not np.signbit(noise).any()

    def test_broadcasts_like_a_zero_slab(self):
        value = np.array([[[1.5], [-0.0]]])
        assert np.array_equal(_slab(value, (3, 2, 4)), value + np.zeros((3, 2, 4)))


class TestBackwardIntegral:
    def test_constant_integrand(self, batch):
        vals = np.ones((5, SPEC.n_intervals, SPEC.m + 1))
        got = backward_integral(vals, SPEC)
        assert np.allclose(got, (SPEC.T - batch.fine_grid)[None, :])

    def test_linear_integrand_exact(self, batch):
        # trapezoid integrates piecewise-linear functions exactly
        t = batch.fine_grid
        vals = interval_view(np.tile(t, (3, 1)), SPEC.m)
        got = backward_integral(vals, SPEC)
        assert np.allclose(got, (SPEC.T ** 2 - t ** 2)[None, :] / 2.0, atol=1e-12)

    @pytest.mark.parametrize("count, n, m", [(4000, 2, 4), (10000, 4, 4), (20000, 2, 8),
                                             (30000, 1, 8)])
    def test_matches_cumsum_reference(self, count, n, m):
        # the in-place suffix sums add in the order of reversed cumulative
        # sums, so the result is bit for bit the reference's
        spec = GridSpec(n=n, l=1, m=m, T=1.0)
        slab = np.random.default_rng(count).normal(size=(count, spec.n_intervals, m + 1))
        got, want = backward_integral(slab, spec), _backward_integral_cumsum(slab, spec)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def _backward_integral_cumsum(slab, spec):
    """Reference backward_integral: reversed cumulative sums along the sub-time
    and interval axes of the sample-major slab."""
    count = slab.shape[0]
    m, n_int = spec.m, spec.n_intervals
    pair = 0.5 * (slab[:, :, :-1] + slab[:, :, 1:]) * spec.dt_fine
    within = np.cumsum(pair[:, :, ::-1], axis=2)[:, :, ::-1]
    suffix = np.zeros((count, n_int + 1))
    suffix[:, :-1] = np.cumsum(within[:, :, 0][:, ::-1], axis=1)[:, ::-1]
    out = np.empty((count, spec.n_fine))
    out[:, :-1] = (within + suffix[:, 1:, None]).reshape(count, n_int * m)
    out[:, -1] = 0.0
    return out


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
        assert np.allclose(fine_path(sol.Y), expect[None, :], atol=1e-12)
        ends = g0 + c0 * (SPEC.T - SPEC.interval_times()[1:])
        assert np.allclose(sol.Y[:, :, SPEC.m], ends[None, :], atol=1e-12)

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
            ymeans = buckets.bucket_stats(i, fine_path(sol.Y)[:, j]).mean[keep, 0]
            assert np.allclose(ymeans, stats_T.mean[keep, 0], atol=1e-10)

    def test_mode_error(self, batch, buckets):
        model = preset("general-convex")
        price = zero_price(SPEC, buckets)
        with pytest.raises(ValueError, match="affine"):
            solve_affine(batch, price, model.standard, buckets, BOUNDS)

    def test_no_state_path(self, batch, buckets, monkeypatch):
        # the affine adjoint does not depend on the state: no Euler pass runs
        from mfpricelab import fbsde
        calls = []
        monkeypatch.setattr(fbsde, "euler_state", lambda *a, **kw: calls.append(1))
        agent = affine_agent(run=coeff_constant({"value": 0.3}, "running_cost_affine"))
        solve_affine(batch, constant_price(SPEC, buckets, -0.2), agent, buckets, BOUNDS)
        assert calls == []

    def test_undeclared_factor_read_is_a_model_error(self, batch, buckets):
        # an agent without reads_factor is given c = None: a cost reading it names itself
        agent = affine_agent(term=lambda w, b, c: np.clip(c, -1, 1))
        with pytest.raises(ModelError, match="population S: terminal_cost") as info:
            solve_affine(batch, zero_price(SPEC, buckets), agent, buckets, BOUNDS)
        assert isinstance(info.value.__cause__, TypeError)

    def test_start_index_does_not_change_adjoint(self, batch, buckets):
        # solve_agent hands start_index to the convex solve only: an affine
        # adjoint does not depend on the state or its start time
        agent = affine_agent(run=coeff_constant({"value": 0.3}, "running_cost_affine"),
                             term=lambda w, b, c: np.clip(b, -1, 1))
        price = constant_price(SPEC, buckets, -0.2)
        base = solve_agent(batch, price, agent, buckets, BOUNDS)
        late = solve_agent(batch, price, agent, buckets, BOUNDS, start_index=2 * SPEC.m + 1)
        assert np.array_equal(late.Y, base.Y)

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
            agent = affine_agent(term=lambda w, b, c: np.clip(b + (0.0 if c is None else c), -1, 1),
                                 pop=pop, reads_factor=reads_factor)
            solve_affine(batch, price, agent, buckets, BOUNDS, informed_state=informed_state).Y
        assert calls == []

    def test_late_adjoint_is_the_smoothed_response(self, batch, buckets):
        agent = affine_agent(term=lambda w, b, c: np.clip(b, -1, 1), pop="I")
        sol = solve_affine(batch, constant_price(SPEC, buckets, -0.2), agent, buckets, BOUNDS)
        expect = _smooth_response(sol.response, batch, buckets,
                                  BOUNDS.envelope(_times(batch))[0], batch.b[:, :, None])
        assert sol.Y.tobytes() == expect.tobytes()

    def test_control_identity(self, batch, buckets):
        agent = affine_agent(term=lambda w, b, c: np.clip(b, -1, 1))
        price = constant_price(SPEC, buckets, 0.1)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        env = materialize(price, buckets)
        assert np.array_equal(sol.alpha, optimal_control(sol.Y, env.path, agent.lam))

    def test_envelope_bound(self, batch, buckets):
        agent = affine_agent(run=coeff_constant({"value": 1.0}, "running_cost_affine"),
                             term=lambda w, b, c: np.clip(b, -1, 1))
        price = zero_price(SPEC, buckets)
        sol = solve_affine(batch, price, agent, buckets, BOUNDS)
        env_bound = BOUNDS.L * (1 + BOUNDS.T - batch.fine_grid)
        assert np.all(np.abs(sol.Y) <= interval_view(env_bound[None, :], SPEC.m) + 1e-12)
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
        assert np.allclose(fine_path(sol.Y), expect[None, :], atol=1e-5)

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
        # and naming the population, tolerance, passes and last update
        from mfpricelab import fbsde
        from mfpricelab.errors import PicardError
        monkeypatch.setattr(fbsde, "_PICARD_MAX", 3)
        model = preset("general-convex")
        agent = model.standard
        norms = {}
        for spec in (SPEC, GridSpec(n=2, l=1, m=4, T=0.5)):
            b = sample_batch(spec, 88, 2000)
            cond = TreeConditioner(spec, b.node_path, FULL_PREFIX, min_count=30)
            price = constant_price(spec, cond, 0.2)
            bounds = ModelBounds(L=1.0, T=spec.T)
            with pytest.raises(PicardError) as err:
                solve_convex(b, price, agent, cond, bounds, tol=0.0)
            norms[spec.T] = err.value.trace[0]
            msg = str(err.value)
            assert "population S" in msg and "tol 0 " in msg and "3 passes" in msg
            assert f"last update {err.value.trace[-1]:.3e}" in msg
        assert norms[0.5] < norms[1.0]

    def test_cold_start_passes(self, batch, buckets):
        # the relaxed loop converges from Y = 0 in at most 14 passes (the
        # plain 0.5 damping takes 21-22 here)
        model = preset("general-convex")
        for value in (-0.2, 0.0, 0.4):
            price = constant_price(SPEC, buckets, value)
            for agent in (model.standard, model.informed):
                sol = solve_convex(batch, price, agent, buckets, BOUNDS)
                assert sol.picard_iters <= 14, (value, agent.population, sol.picard_iters)

    def test_last_pass_is_the_solution(self, batch, buckets, monkeypatch):
        # N Picard passes cost N smoothings and N Euler passes: the
        # converged pass is returned as it is
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
                         "euler_state": sol.picard_iters}

    def test_euler_noise_built_once(self, batch, buckets, monkeypatch):
        # the control-free increments do not depend on the iterate
        from mfpricelab import fbsde
        calls = []
        real = fbsde._euler_noise
        monkeypatch.setattr(fbsde, "_euler_noise", lambda *a: calls.append(1) or real(*a))
        sol = solve_convex(batch, constant_price(SPEC, buckets, -0.2),
                           preset("general-convex").standard, buckets, BOUNDS)
        assert sol.picard_iters > 1 and len(calls) == 1

    def test_row_subset_batch_solves(self):
        # a replace that takes rows gives every late path, so the solve sees one count
        batch, keep = sample_batch(SPEC, 81, 1000), slice(0, 400)
        sub = replace(batch, b=batch.b[keep], c=batch.c[keep], xi_I=batch.xi_I[keep],
                      xi_S=batch.xi_S[keep], w_I=batch.w_I[keep], w_S=batch.w_S[keep])
        cond = TreeConditioner(SPEC, sub.node_path, FULL_PREFIX, min_count=30)
        sol = solve_convex(sub, zero_price(SPEC, cond), preset("general-convex").standard,
                           cond, BOUNDS)
        assert sol.Y.shape == (400, SPEC.n_intervals, SPEC.m + 1)

    def test_boundedness(self, batch, buckets):
        model = preset("general-convex")
        price = zero_price(SPEC, buckets)
        sol = solve_convex(batch, price, model.standard, buckets, BOUNDS)
        assert np.max(np.abs(sol.Y)) <= BOUNDS.C_B


class TestAitkenFactor:
    # on a scalar linear map G(y) = a*y + b the residual f = G(y) - y is
    # linear in y, so one update gives the exact step 1/(1 - a)
    @staticmethod
    def factor_after_one_step(a, b=0.3, y0=1.0):
        f0 = np.array([a * y0 + b - y0])
        y1 = y0 + 0.5 * f0[0]
        f1 = np.array([a * y1 + b - y1])
        return _aitken_factor(0.5, f0, f1)

    @pytest.mark.parametrize("a", [-2.0, -0.5])
    def test_exact_step(self, a):
        assert self.factor_after_one_step(a) == pytest.approx(1.0 / (1.0 - a), rel=1e-12)

    def test_capped_at_one(self):
        # a = 0.5 asks for w = 2: capped, not reset
        assert self.factor_after_one_step(0.5) == 1.0

    def test_negative_falls_back(self):
        assert self.factor_after_one_step(2.0) == 0.5

    def test_zero_difference_falls_back(self):
        f = np.array([0.7, -0.2])
        assert _aitken_factor(0.9, f, f.copy()) == 0.5


class TestCostFunctional:
    def test_zero_everything(self, batch, buckets):
        agent = affine_agent()
        price = zero_price(SPEC, buckets)
        control = np.zeros((batch.count, SPEC.n_intervals, SPEC.m + 1))
        assert cost_functional(batch, price, agent, control, buckets) == 0.0

    def test_pure_quadratic_closed_form(self, batch, buckets):
        a0 = 0.8
        agent = affine_agent(vol_common=0.0, vol_idio=0.0)
        price = zero_price(SPEC, buckets)
        control = np.full((batch.count, SPEC.n_intervals, SPEC.m + 1), a0)
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
        base = per_sample_cost(batch, price, agent, sol.alpha, buckets)
        rng = np.random.default_rng(10)
        eps = 0.1
        _, w = batch.idiosyncratic(agent.population)
        for _ in range(20):
            a1, a2, a3 = rng.normal(size=3)
            eta = np.sin(a1 * batch.b + a2 * w + a3 * batch.fine_grid[None, :])
            # a continuous perturbed path: its left limits are the next interval's starts
            pert_path = interval_view(fine_path(sol.alpha) + eps * eta, SPEC.m)
            pert = per_sample_cost(batch, price, agent, pert_path, buckets)
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

    def test_starts_from_batch_initial_state(self, monkeypatch):
        # at t = 0.5 both solves start their state at x1 and x2 at the fine
        # index of t, on copies of one batch that draw each noise stream once
        from mfpricelab import fbsde, sampling
        draws = []
        real_brownian, real_euler = sampling._brownian, fbsde.euler_state
        monkeypatch.setattr(sampling, "_brownian",
                            lambda rng, count, times: draws.append(count)
                            or real_brownian(rng, count, times))
        starts = []

        def spy(b, env, agent, alpha, start_index=0, noise=None):
            X = real_euler(b, env, agent, alpha, start_index=start_index, noise=noise)
            starts.append((start_index, np.unique(X[:, start_index]).tolist()))
            return X

        monkeypatch.setattr(fbsde, "euler_state", spy)
        b = sample_batch(SPEC, 78, 600)
        cond = TreeConditioner(SPEC, b.node_path, FULL_PREFIX, min_count=30)
        model = preset("general-convex")
        draws.clear()  # sample_batch drew the common noises
        decoupling_probe(model.standard, zero_price(SPEC, cond), b, cond, BOUNDS,
                         t=0.5, x1=-0.5, x2=0.25)
        jt = int(0.5 / SPEC.dt_fine)
        assert {(j, tuple(x)) for j, x in starts} == {(jt, (-0.5,)), (jt, (0.25,))}
        assert draws == [600]  # the standard agent reads w_S only, drawn once
        assert [k for k, p in b.late_paths.paths.items() if not callable(p)] == ["w_S"]

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
