from dataclasses import replace

import numpy as np
import pytest

from mfpricelab import equilibrium, fbsde
from mfpricelab.equilibrium import solve_fixed_point
from mfpricelab.errors import ModelError
from mfpricelab.market import (clearing_bound, clearing_residual, informed_inference_check,
                               rate_study, _agent_controls, _population_batch,
                               _residual_from_controls)
from mfpricelab.models import ModelBounds, preset
from mfpricelab.price import fine_path
from mfpricelab.sampling import idiosyncratic_copies, sample_batch


@pytest.fixture(scope="module")
def det_price():
    model = preset("deterministic")
    batch = sample_batch(model.grid, 21, 2000, model.factor)
    report = solve_fixed_point(batch, model)
    return model, report.price


@pytest.fixture(scope="module")
def clearing_price():
    model = preset("clearing")
    batch = sample_batch(model.grid, 22, 8000, model.factor)
    report = solve_fixed_point(batch, model.with_solver(tol=5e-4))
    return model, report.price


@pytest.fixture
def solve_reports(monkeypatch):
    """The report of every equilibrium.solve_fixed_point call made while the
    test runs (the informed check looks the solve up at call time)."""
    solve, reports = equilibrium.solve_fixed_point, []

    def captured(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(equilibrium, "solve_fixed_point", captured)
    return reports


class TestStandardError:
    def test_one_scenario_has_no_standard_error(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError, match=">= 2 per-scenario values"):
            clearing_residual(price, model, 2, 2, seed=5, n_scenarios=1)

    def test_one_value_per_size_rejected(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError, match=">= 2 per-scenario values"):
            rate_study(price, model, [8, 16, 32, 64], seeds=[1], n_scenarios=1)


def test_population_batch_repeats_the_factor_rows():
    model = preset("terminal-common-noise")
    common = sample_batch(model.grid, 23, 6, model.factor)
    xi, w = idiosyncratic_copies(model.grid, 24, 6, 3, "I")
    batch = _population_batch(common, xi, w)
    assert callable(common.late_paths.paths["c"])
    reps = np.repeat(np.arange(6), 3)
    assert batch.c.tobytes() == common.c[reps].tobytes()
    assert batch.b.tobytes() == common.b[reps].tobytes()


class TestBoundConstant:
    def test_frozen_value(self):
        # 8*T*C_B^2*sum(1/Lambda^2)/N with T=1, C_B=2, Lambda=1: 64/N
        model = preset("clearing")
        assert model.bounds.C_B == 2.0
        assert clearing_bound(model, 64) == pytest.approx(1.0)
        assert clearing_bound(model, 8) == pytest.approx(8.0)


class TestClearingResidual:
    def test_deterministic_exact_zero(self, det_price):
        # adjoints are deterministic and equal across agents; each optimal
        # control is exactly zero at the equilibrium price
        model, price = det_price
        for N in (2, 8, 32):
            est = clearing_residual(price, model, N // 2, N - N // 2, seed=5,
                                    n_scenarios=8)
            assert est.value == 0.0

    def test_zero_preset(self):
        model = preset("zero")
        batch = sample_batch(model.grid, 23, 1000, model.factor)
        report = solve_fixed_point(batch, model)
        est = clearing_residual(report.price, model, 2, 2, seed=6, n_scenarios=4)
        assert est.value == 0.0

    def test_doubling_halves(self, clearing_price):
        model, price = clearing_price
        a = clearing_residual(price, model, 16, 16, seed=7, n_scenarios=64)
        b = clearing_residual(price, model, 32, 32, seed=8, n_scenarios=64)
        combined_se = np.hypot(a.se, 2.0 * b.se)
        assert abs(a.value - 2.0 * b.value) <= 3 * combined_se

    def test_permutation_invariance(self, clearing_price):
        # the residual is a symmetric function of the agents: re-indexing the
        # same idiosyncratic draws changes nothing, exactly
        model, price = clearing_price
        common = sample_batch(model.grid, 900, 8, model.factor)
        controls = {
            "I": _agent_controls(price, model, common, "I", 6, 901),
            "S": _agent_controls(price, model, common, "S", 6, 902),
        }
        vals = _residual_from_controls(controls, model.grid, {"I": 6, "S": 6})
        perm = np.random.default_rng(0).permutation(6)
        permuted = {p: a[:, perm] for p, a in controls.items()}
        vals_p = _residual_from_controls(permuted, model.grid, {"I": 6, "S": 6})
        assert np.array_equal(vals, vals_p)

    def test_conditionally_iid_adjoints(self, clearing_price):
        # cross-agent covariance of (Y - bucket mean) within 5 SE of zero
        from mfpricelab.conditioning import TreeConditioner
        from mfpricelab.fbsde import solve_agent
        from mfpricelab.market import _population_batch
        from mfpricelab.sampling import idiosyncratic_copies
        model, price = clearing_price
        M, n_agents = 256, 2
        common = sample_batch(model.grid, 903, M, model.factor)
        xi, w = idiosyncratic_copies(model.grid, 904, M, n_agents, "S")
        flat = _population_batch(common, xi, w)
        buckets = TreeConditioner(flat.spec, flat.node_path, price.mode, min_count=30)
        sol = solve_agent(flat, price, model.standard, buckets, model.bounds)
        j = model.grid.m  # time t_1
        i = 1
        Y = fine_path(sol.Y)
        means = buckets.bucket_stats(i, Y[:, j]).mean[buckets.inverse(i), 0]
        dev = (Y[:, j] - means).reshape(M, n_agents)
        prod = dev[:, 0] * dev[:, 1]
        se = prod.std(ddof=1) / np.sqrt(M)
        assert abs(prod.mean()) <= 5 * se

    def test_invalid_counts(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError):
            clearing_residual(price, model, 0, 4, seed=1)


class TestRateStudy:
    def test_preconditions(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError):
            rate_study(price, model, [8, 16, 32], seeds=[1])
        with pytest.raises(ValueError):
            rate_study(price, model, [8, 10, 12, 14], seeds=[1])
        # at informed weight 0.5 a market of one agent has no standard agent
        with pytest.raises(ValueError, match="N=1"):
            rate_study(price, model, [1, 2, 4, 8], seeds=[1])
        # a repeated size is one size: two distinct sizes are too few
        with pytest.raises(ValueError, match="4 market sizes"):
            rate_study(price, model, [8, 8, 8, 32], seeds=[1])

    def test_deterministic_reports_exact_clearing(self, det_price):
        model, price = det_price
        report = rate_study(price, model, [8, 16, 32, 64], seeds=[1], n_scenarios=4)
        assert report.exact_clearing and report.slope is None
        assert "exact clearing" in report.summary()

    def test_stochastic_rate(self, clearing_price):
        model, price = clearing_price
        report = rate_study(price, model, [8, 16, 32, 64, 128], seeds=[31, 32, 33],
                            n_scenarios=32)
        assert not report.exact_clearing
        assert np.all(report.bound_ok)
        assert -1.25 <= report.slope <= -0.75
        # residuals decrease monotonically across octaves
        assert np.all(np.diff(report.residuals) < 0)


class TestInformedInference:
    def test_precondition_affine(self):
        model = preset("general-convex")
        batch = sample_batch(model.grid, 41, 500, model.factor)
        with pytest.raises(ModelError):
            informed_inference_check(model, batch)

    def test_precondition_no_factor_dependence(self):
        from dataclasses import replace
        model = preset("single-informed")
        leaky = replace(model, informed=replace(
            model.informed, reads_factor=True,
            terminal_cost=lambda w, b, c: np.clip(c, -8, 8)))
        batch = sample_batch(model.grid, 42, 500, model.factor)
        with pytest.raises(ModelError):
            informed_inference_check(leaky, batch)

    def test_deterministic_identity_exact(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 43, 1500, model.factor)
        res = informed_inference_check(model.with_solver(tol=1e-9), batch)
        assert res.max_gap <= 1e-9 and res.passed

    def test_one_conditioner(self, conditioner_builds):
        # the solve and the check at its equilibrium share one partition
        model = preset("deterministic").with_solver(min_bucket=12)
        batch = sample_batch(model.grid, 46, 500, model.factor)
        informed_inference_check(model, batch)
        assert conditioner_builds == [12]

    def test_no_map_evaluation_after_the_solve(self, monkeypatch, solve_reports):
        # the check reads the solve's stopping evaluation: it adds no
        # price-map evaluation beyond the solve's (the loop evaluates
        # through equilibrium._phi, apply_phi and the solve's stop through
        # equilibrium._sampled_map), and the standard agent, integrated on
        # key tables in the solve's loop, is solved per sample once, at the
        # solve's stop
        model = preset("single-informed").with_solver(tol=1e-4)
        batch = sample_batch(model.grid, 44, 4000, model.factor)
        evaluate, calls = equilibrium._phi, []
        sampled, stops = equilibrium._sampled_map, []
        respond, responses = fbsde._affine_response, []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        def stop(*args, **kwargs):
            stops.append(1)
            return sampled(*args, **kwargs)

        def spy(batch, env, agent):
            responses.append(agent.population)
            return respond(batch, env, agent)

        monkeypatch.setattr(equilibrium, "_phi", counted)
        monkeypatch.setattr(equilibrium, "_sampled_map", stop)
        monkeypatch.setattr(fbsde, "_affine_response", spy)
        informed_inference_check(model, batch)
        (report,) = solve_reports
        assert len(calls) == report.iterations and len(stops) == 1
        assert responses.count("S") == 1

    @pytest.mark.parametrize("seed", [44, 45])
    def test_convex_standard_agent(self, seed, solve_reports):
        # the check reads the stopping Picard pass of the convex standard
        # agent, where the gap is (w_bar/n_I)*|Phi(theta) - theta| <= fp_slack
        convex = preset("general-convex")
        model = replace(convex, informed=preset("single-informed").informed)
        batch = sample_batch(model.grid, seed, 4000, model.factor)
        res = informed_inference_check(model, batch)
        assert res.passed
        assert res.max_gap <= res.fp_slack
        (report,) = solve_reports
        w_bar_over_n_I = res.fp_slack / model.solver.tol
        assert res.max_gap == pytest.approx(w_bar_over_n_I * report.residual_trace[-1], rel=1e-6)

    def test_single_informed_preset(self):
        model = preset("single-informed")
        batch = sample_batch(model.grid, 44, 8000, model.factor)
        res = informed_inference_check(model.with_solver(tol=1e-4), batch)
        assert res.passed
        assert res.max_gap <= res.fp_slack

