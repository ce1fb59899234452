import numpy as np
import pytest
from dataclasses import fields, is_dataclass, replace

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import (apply_phi, consistency_residual, diagnostics,
                                    mz_distance, refinement_study, solve_fixed_point)
from mfpricelab.errors import DivergenceError
from mfpricelab.models import preset
from mfpricelab.price import (constant_price, fine_path, materialize, price_metric,
                              price_to_csv, zero_price)
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import FULL_PREFIX, GridSpec


@pytest.fixture(scope="module")
def det_setup():
    model = preset("deterministic")
    batch = sample_batch(model.grid, 1, 2000, model.factor)
    buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
    return model, batch, buckets


class TestPriceMetric:
    def test_identity(self, det_setup):
        model, batch, buckets = det_setup
        a = constant_price(model.grid, buckets, 0.3)
        assert price_metric(a, a) == 0.0

    def test_constant_offset(self, det_setup):
        model, batch, buckets = det_setup
        a = zero_price(model.grid, buckets)
        b = constant_price(model.grid, buckets, 0.3)
        assert price_metric(a, b) == pytest.approx(0.3)

    def test_symmetry_and_triangle(self, det_setup):
        model, batch, buckets = det_setup
        rng = np.random.default_rng(3)
        base = zero_price(model.grid, buckets)

        def noisy():
            return replace(base, tables=[rng.normal(size=t.shape) for t in base.tables])

        for _ in range(100):
            x, y, z = noisy(), noisy(), noisy()
            assert price_metric(x, y) == price_metric(y, x)
            assert price_metric(x, z) <= price_metric(x, y) + price_metric(y, z) + 1e-12

    def test_shape_mismatch(self, det_setup):
        model, batch, buckets = det_setup
        a = zero_price(model.grid, buckets)
        other = GridSpec(n=1, l=1, m=4, T=1.0)
        cond = TreeConditioner(other, batch.node_path[:, 1:2], FULL_PREFIX)
        with pytest.raises(ValueError):
            price_metric(a, zero_price(other, cond))


class TestMzDistance:
    GRID = np.linspace(0.0, 1.0, 33)

    def test_identical(self):
        x = np.sin(self.GRID)
        assert mz_distance(x, x, self.GRID) == 0.0

    def test_saturation(self):
        x = np.zeros_like(self.GRID)
        y = np.full_like(self.GRID, 2.0)
        assert mz_distance(x, y, self.GRID) == pytest.approx(1.0)

    def test_below_saturation(self):
        x = np.zeros_like(self.GRID)
        y = np.full_like(self.GRID, 0.5)
        assert mz_distance(x, y, self.GRID) == pytest.approx(0.5)

    def test_bounded_by_horizon(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, 10, 33)) * 10
        assert np.all(mz_distance(x, y, self.GRID) <= 1.0 + 1e-12)


class TestApplyPhi:
    def test_zero_map_image(self):
        model = preset("zero")
        batch = sample_batch(model.grid, 2, 1000, model.factor)
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        theta = constant_price(model.grid, buckets, 0.9)
        out = apply_phi(theta, batch, model, buckets=buckets)
        assert out.sup_norm() == 0.0

    def test_deterministic_weights_cancel(self, det_setup):
        model, batch, buckets = det_setup
        theta = zero_price(model.grid, buckets)
        out = apply_phi(theta, batch, model, buckets=buckets)
        spec = model.grid
        sub = np.linspace(0, spec.interval_length, spec.m + 1)
        for key, vals in out.values.items():
            t = key.interval * spec.interval_length + sub
            assert np.allclose(vals, -(0.5 + 0.25 * (1.0 - t)), atol=1e-12)

    def test_image_bounded_by_C_B(self):
        model = preset("terminal-common-noise")
        batch = sample_batch(model.grid, 3, 5000, model.factor)
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        for level in (0.0, 5.0, -16.0):
            theta = constant_price(model.grid, buckets, level)
            out = apply_phi(theta, batch, model, buckets=buckets)
            assert out.sup_norm() <= model.bounds.C_B


class TestSolveFixedPoint:
    def test_zero_one_iteration(self):
        model = preset("zero")
        batch = sample_batch(model.grid, 4, 1000, model.factor)
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations == 1
        assert report.residual_trace == [0.0]
        assert report.price.sup_norm() == 0.0

    def test_deterministic_two_iterations(self, det_setup):
        model, batch, _ = det_setup
        report = solve_fixed_point(batch, model.with_solver(damping=1.0))
        assert report.converged and report.iterations <= 2
        assert report.residual_trace[-1] <= 1e-10
        spec = model.grid
        sub = np.linspace(0, spec.interval_length, spec.m + 1)
        for key, vals in report.price.values.items():
            t = key.interval * spec.interval_length + sub
            assert np.allclose(vals, -(0.5 + 0.25 * (1.0 - t)), atol=1e-10)

    def test_divergence_error(self, det_setup):
        model, batch, _ = det_setup
        # an artificial map explosion: impossible tolerance with zero damping
        # is legal, so force divergence via a huge init far outside 10*C_B
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        init = constant_price(model.grid, buckets, 1e6)
        with pytest.raises(DivergenceError) as err:
            solve_fixed_point(batch, model.with_solver(damping=1.0), init=init)
        assert len(err.value.trace) >= 1

    def test_option_validation(self, det_setup):
        model, batch, _ = det_setup
        with pytest.raises(ValueError):
            model.with_solver(damping=0.0)
        with pytest.raises(ValueError):
            model.with_solver(tol=0.0)

    def test_markov_mode_warns_in_report(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 5, 1000, model.factor)
        report = solve_fixed_point(batch, model.with_solver(damping=1.0, mode="markov"))
        assert any("markov" in w for w in report.warnings)

    def test_pooling_warning_states_share(self):
        # a deep prefix tree: every key of the last interval holds a sample or
        # two, so all of that interval's samples sit in pooled keys
        spec = GridSpec(n=3, l=2, m=2, T=1.0)
        model = preset("deterministic").with_grid(spec).with_solver(damping=1.0, mode=FULL_PREFIX)
        report = solve_fixed_point(sample_batch(spec, 5, 600, model.factor), model)
        [warning] = [w for w in report.warnings if "pooled via kernel fallback" in w]
        assert f"at interval {spec.n_intervals - 1} they hold a share 1 of the samples" in warning


def _arrays(obj):
    """Every ndarray reachable from obj through dataclass fields and containers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


@pytest.mark.parametrize("name", ["single-informed", "general-convex"])
def test_report_holds_no_per_sample_array(name):
    # the report keeps per-key tables and scalars only: the solutions'
    # per-sample slabs are released when the solve returns
    model = preset(name)
    batch = sample_batch(model.grid, 8, 777, model.factor)
    report = solve_fixed_point(batch, model.with_solver(tol=1e-2))
    arrays = list(_arrays(report))
    assert arrays and all(a.shape[:1] != (batch.count,) for a in arrays)


class TestContinuityProbe:
    def test_shrinking_perturbations(self):
        # d(Phi(theta_k), Phi(theta)) decreases as theta_k -> theta
        model = preset("single-informed")
        batch = sample_batch(model.grid, 6, 8000, model.factor)
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        report = solve_fixed_point(batch, model.with_solver(tol=1e-3))
        theta = report.price
        base = apply_phi(theta, batch, model, buckets=buckets)
        dists = []
        for eps in (0.8, 0.4, 0.2, 0.1):
            pert = replace(theta, tables=[t + eps for t in theta.tables])
            dists.append(price_metric(apply_phi(pert, batch, model, buckets=buckets), base))
        assert all(b <= a + 1e-9 for a, b in zip(dists[:-1], dists[1:]))
        assert dists[-1] < dists[0]


class TestConsistencyResidual:
    def test_deterministic_out_of_sample(self, det_setup):
        model, batch, _ = det_setup
        model = model.with_solver(damping=1.0)
        report = solve_fixed_point(batch, model)
        res = consistency_residual(report.price, model.with_solver(samples=1500), seed=999)
        assert res.max_residual <= 1e-10

    def test_zero_preset(self):
        model = preset("zero")
        batch = sample_batch(model.grid, 7, 1000, model.factor)
        report = solve_fixed_point(batch, model)
        res = consistency_residual(report.price, model.with_solver(samples=1000), seed=1000)
        assert res.max_residual == 0.0

    def test_stochastic_within_monte_carlo_noise(self):
        model = preset("terminal-common-noise")
        batch = sample_batch(model.grid, 8, 40000, model.factor)
        report = solve_fixed_point(batch, model)
        res = consistency_residual(report.price, model.with_solver(samples=40000), seed=1001)
        # every eligible key: gap <= tol + 3*sqrt(2)*bucket SE
        assert res.worst_ratio <= 1.0
        assert res.skipped_keys > 0  # rare fresh prefixes are reported, not judged


class TestDiagnosticsExamples:
    def test_zero_preset_all_zero(self):
        model = preset("zero")
        batch = sample_batch(model.grid, 9, 1000, model.factor)
        report = solve_fixed_point(batch, model)
        d = report.diagnostics
        assert d.sup_price == 0.0 and d.sup_Y_I == 0.0 and d.sup_Y_S == 0.0
        assert d.time_lipschitz_max == 0.0
        assert d.cond_variation_price == 0.0

    def test_deterministic_closed_forms(self, det_setup):
        model, batch, _ = det_setup
        report = solve_fixed_point(batch, model.with_solver(damping=1.0))
        d = report.diagnostics
        assert d.time_lipschitz_max == pytest.approx(0.25, abs=1e-12)  # |c0|
        assert d.cond_variation_price == pytest.approx(0.25, abs=1e-12)  # |c0| T
        assert d.cond_variation_price <= 2 * model.bounds.L * model.grid.T

    def test_martingale_variation_near_zero(self):
        # conditional variation estimate of B itself: each increment has zero
        # conditional mean, so the estimate is pure |noise|
        model = preset("terminal-common-noise")
        batch = sample_batch(model.grid, 10, 50000, model.factor)
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        from mfpricelab.equilibrium import _conditional_variation
        v, se = _conditional_variation(batch.b, buckets)
        # mean of |N(0,s)| is s*sqrt(2/pi); allow 5 sigma over the folded mean
        spec = model.grid
        null = 0.0
        for j in range(spec.n_intervals):
            counts = buckets.counts(j)
            frac = counts / batch.count
            inc_sd = np.sqrt(spec.interval_length)
            null += np.sum(frac * inc_sd / np.sqrt(np.maximum(counts, 1)) * np.sqrt(2 / np.pi))
        assert v <= null + 5 * se + 0.01


class TestRefinement:
    def test_same_level_zero(self):
        # a level solved twice on one batch gives the same price, so the
        # coupling distance of a level to itself is 0
        model = preset("terminal-common-noise").with_grid(GridSpec(n=2, l=1, m=4, T=1.0))
        batch = sample_batch(model.grid, 11, 3000, model.factor)
        a, b = (refinement_study(model.with_solver(damping=1.0, tol=1e-3, max_iter=5),
                                 [1, 2], batch, level_resolution=lambda n: 1) for _ in range(2))
        assert price_metric(a.level_reports[2].price, b.level_reports[2].price) == 0.0
        assert a.medians() == b.medians()

    def test_deterministic_level_independent(self):
        model = preset("deterministic").with_grid(GridSpec(n=2, l=1, m=4, T=1.0))
        batch = sample_batch(model.grid, 12, 2000, model.factor)
        table = refinement_study(model.with_solver(damping=1.0, tol=1e-6, max_iter=5),
                                 [1, 2], batch)
        # price depends on t only through -(g0 + c0(T-t)): levels agree exactly
        assert table.rows[0].median_dm <= 1e-10

    def test_one_conditioner_per_level(self, conditioner_builds):
        model = preset("deterministic").with_grid(GridSpec(n=2, l=1, m=4, T=1.0))
        batch = sample_batch(model.grid, 16, 500, model.factor)
        refinement_study(model.with_solver(min_bucket=12), [1, 2], batch)
        assert conditioner_builds == [12, 12]

    def test_explicit_mode(self):
        model = preset("terminal-common-noise")
        batch = sample_batch(model.grid, 17, 1500, model.factor)
        for mode in ("prefix", "markov"):
            table = refinement_study(model.with_solver(mode=mode), [1, 2], batch)
            assert {rep.price.mode for rep in table.level_reports.values()} == {mode}

    def test_levels_must_ascend(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 13, 100, model.factor)
        with pytest.raises(ValueError):
            refinement_study(model, [2, 1], batch)

    def test_repeated_levels_rejected(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 13, 100, model.factor)
        with pytest.raises(ValueError, match="strictly ascending"):
            refinement_study(model, [1, 1], batch)

    def test_batch_too_coarse(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 14, 100, model.factor)
        with pytest.raises(ValueError):
            refinement_study(model, [1, 2, 3], batch)


class TestTowerConsistency:
    def test_parent_mean_matches_kernel_weighted_children(self):
        # affine mode: bucket mean of Y at a parent key vs transition-kernel
        # weighted mean over realized children, within 3 multinomial SEs
        from mfpricelab.fbsde import solve_affine
        from mfpricelab.models import ModelBounds
        from mfpricelab.tree import Lattice, transition_matrix
        model = preset("terminal-common-noise")
        spec = model.grid
        batch = sample_batch(spec, 15, 60000, model.factor)
        buckets = TreeConditioner(spec, batch.node_path, FULL_PREFIX, min_count=30)
        price = zero_price(spec, buckets)
        sol = solve_affine(batch, price, model.standard, buckets, model.bounds,
                           informed_state=False)
        kern = transition_matrix(spec)
        lat = kern.lattice
        i = 1
        j_child = (i + 1) * spec.m
        Y = fine_path(sol.Y)
        parent_stats = buckets.bucket_stats(i, Y[:, j_child])
        child_stats = buckets.bucket_stats(i + 1, Y[:, j_child])
        child_keys = {k.prefix: idx for idx, k in enumerate(buckets.keys(i + 1))}
        checked = 0
        for kp, key in enumerate(buckets.keys(i)):
            if parent_stats.fallback[kp] or parent_stats.counts[kp] < 2000:
                continue
            v_idx = key.prefix[-1]
            row = kern.matrix[v_idx]
            total_w, acc, var_kids = 0.0, 0.0, 0.0
            for w_idx in range(lat.size):
                child = child_keys.get(key.prefix + (w_idx,))
                if child is None:
                    continue
                p = row[w_idx]
                m_child = child_stats.mean[child, 0]
                acc += p * m_child
                var_kids += p * (1 - p) / parent_stats.counts[kp] * m_child ** 2
                total_w += p
            if total_w < 0.999:
                continue
            expect = acc / total_w
            got = parent_stats.mean[kp, 0]
            se = np.sqrt(var_kids + parent_stats.se[kp, 0] ** 2)
            assert abs(got - expect) <= 3 * se + 1e-3
            checked += 1
        assert checked >= 3


def test_price_csv_round_values(tmp_path, det_setup):
    model, batch, buckets = det_setup
    price = constant_price(model.grid, buckets, -0.125)
    out = tmp_path / "eq.csv"
    price_to_csv(out, price)
    lines = out.read_text().splitlines()
    assert lines[0] == "interval,key,sub_time,price"
    assert all(line.endswith("-0.125") for line in lines[1:])
