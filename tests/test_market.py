import numpy as np
import pytest

from mfpricelab.equilibrium import solve_fixed_point
from mfpricelab.errors import ModelError
from mfpricelab.market import (clearing_bound, clearing_residual, informed_inference_check,
                               rate_study, _agent_controls, _residual_from_controls)
from mfpricelab.models import ModelBounds, preset
from mfpricelab.price import fine_path
from mfpricelab.sampling import sample_batch


@pytest.fixture(scope="module")
def det_price():
    model = preset("deterministic")
    batch = sample_batch(model.grid, 21, 2000, model.factor)
    report = solve_fixed_point(batch, model.with_solver(damping=1.0))
    return model, report.price


@pytest.fixture(scope="module")
def clearing_price():
    model = preset("clearing")
    batch = sample_batch(model.grid, 22, 8000, model.factor)
    report = solve_fixed_point(batch, model.with_solver(tol=5e-4))
    return model, report.price


class TestStandardError:
    def test_one_scenario_has_no_standard_error(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError, match=">= 2 per-scenario values"):
            clearing_residual(price, model, 2, 2, seed=5, n_scenarios=1)

    def test_one_value_per_size_rejected(self, det_price):
        model, price = det_price
        with pytest.raises(ValueError, match=">= 2 per-scenario values"):
            rate_study(price, model, [8, 16, 32, 64], seeds=[1], n_scenarios=1)


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
        res = informed_inference_check(model.with_solver(damping=1.0, tol=1e-9), batch)
        assert res.max_gap <= 1e-9 and res.passed

    def test_one_conditioner(self, conditioner_builds):
        # the solve and the check at its equilibrium share one partition
        model = preset("deterministic").with_solver(min_bucket=12)
        batch = sample_batch(model.grid, 46, 500, model.factor)
        informed_inference_check(model, batch)
        assert conditioner_builds == [12]

    def test_single_informed_preset(self):
        model = preset("single-informed")
        batch = sample_batch(model.grid, 44, 8000, model.factor)
        res = informed_inference_check(model.with_solver(tol=1e-4), batch)
        assert res.passed
        assert res.max_gap <= res.fp_slack

