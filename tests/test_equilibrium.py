import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, is_dataclass, replace

from mfpricelab import equilibrium, fbsde, sampling
from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import (_conditional_variation, _node_values, _sup_fine,
                                    apply_phi, consistency_residual, diagnostics,
                                    mz_distance, refinement_study, solve_fixed_point)
from mfpricelab.errors import DivergenceError, ModelError
from mfpricelab.fbsde import solve_affine, solve_on_keys, solved_on_keys
from mfpricelab.models import _reading, preset, validate
from mfpricelab.price import (DiscretePrice, constant_price, fine_path, interval_view, key_rows,
                              materialize, price_metric, price_to_csv, zero_price)
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import FULL_PREFIX, MARKOV, GridSpec


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
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations <= 2
        assert report.residual_trace[-1] <= 1e-10
        spec = model.grid
        sub = np.linspace(0, spec.interval_length, spec.m + 1)
        for key, vals in report.price.values.items():
            t = key.interval * spec.interval_length + sub
            assert np.allclose(vals, -(0.5 + 0.25 * (1.0 - t)), atol=1e-10)

    def test_divergence_error(self, det_setup):
        model, batch, _ = det_setup
        # an artificial map explosion: force divergence via a huge init far
        # outside 10*C_B
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        init = constant_price(model.grid, buckets, 1e6)
        with pytest.raises(DivergenceError) as err:
            solve_fixed_point(batch, model, init=init)
        assert len(err.value.trace) >= 1

    def test_option_validation(self, det_setup):
        model, _, _ = det_setup
        for tol in (0.0, -1e-3):
            with pytest.raises(ValueError, match="tol"):
                model.with_solver(tol=tol)
        # the damping setting is gone: the plain map step is the only first step
        with pytest.raises(TypeError, match="damping"):
            model.with_solver(damping=1.0)

    def test_markov_mode_warns_in_report(self):
        model = preset("deterministic")
        batch = sample_batch(model.grid, 5, 1000, model.factor)
        report = solve_fixed_point(batch, model.with_solver(mode="markov"))
        assert any("markov" in w for w in report.warnings)

    def test_pooling_warning_states_share(self):
        # a deep prefix tree: every key of the last interval holds a sample or
        # two, so all of that interval's samples sit in pooled keys
        spec = GridSpec(n=3, l=2, m=2, T=1.0)
        model = preset("deterministic").with_grid(spec).with_solver(mode=FULL_PREFIX)
        report = solve_fixed_point(sample_batch(spec, 5, 600, model.factor), model)
        [warning] = [w for w in report.warnings if "pooled via kernel fallback" in w]
        assert f"at interval {spec.n_intervals - 1} they hold a share 1 of the samples" in warning

    @pytest.mark.parametrize("name", ["general-convex", "single-informed", "clearing"])
    def test_returned_price_meets_tol(self, name):
        # the stop test reads the map residual of the iterate it returns
        # plus the largest move of its convex passes, which bounds the exact
        # map's residual (cold inner solves to 1e-6) at that price by tol.
        # With one Picard pass per convex agent and evaluation, the convex
        # presets take 8-9 evaluations here
        model = preset(name)
        sd = model.solver
        batch = sample_batch(model.grid, sd.seed, sd.samples, model.factor)
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations <= 13
        phi = apply_phi(report.price, batch, model)
        assert price_metric(phi, report.price) <= sd.tol

    def test_unconverged_returns_last_evaluated_iterate(self):
        model = preset("single-informed").with_solver(tol=1e-12, max_iter=2)
        batch = sample_batch(model.grid, 3, 2000, model.factor)
        report = solve_fixed_point(batch, model)
        assert not report.converged and report.iterations == 2
        phi = apply_phi(report.price, batch, model)
        assert price_metric(phi, report.price) == report.residual_trace[-1]

    def test_growing_residual_restarts(self, det_setup, monkeypatch):
        # the second map evaluation is pushed away from the fixed point, so its
        # residual grows: the history is cleared and the plain map step retaken
        from mfpricelab import equilibrium
        model, batch, _ = det_setup
        calls, evaluate = [], equilibrium._phi

        def bumped(*args, **kwargs):
            phi, sols = evaluate(*args, **kwargs)
            calls.append(phi)
            if len(calls) == 2:
                phi = replace(phi, tables=[t + 1.2 for t in phi.tables])
            return phi, sols

        monkeypatch.setattr(equilibrium, "_phi", bumped)
        report = solve_fixed_point(batch, model)
        assert report.residual_trace[1] > report.residual_trace[0]
        assert report.restarts == 1 and "restarts=1" in report.summary()
        assert report.converged and report.residual_trace[-1] <= model.solver.tol
        assert max(report.iterate_sup_price) <= model.bounds.C_B


def _recorded_solve(monkeypatch, model, batch, patch=None, init=None):
    """solve_fixed_point with every map evaluation's (theta, iterates,
    pass updates) recorded, the iterates copied and each update
    max|fine_path(Y_hat - Y)| of a convex agent; `patch(k, theta, result)`
    may replace the k-th evaluation's result."""
    from mfpricelab import equilibrium
    calls = []
    evaluate = equilibrium._phi

    def recording(theta, *args, **kwargs):
        iterates = {p: Y.copy() for p, Y in kwargs["iterates"].items()}
        out = evaluate(theta, *args, **kwargs)
        updates = {p: float(np.max(np.abs(fine_path(out[1][p].Y - Y))))
                   for p, Y in iterates.items()}
        calls.append((theta, iterates, updates))
        return out if patch is None else patch(len(calls), theta, out)

    monkeypatch.setattr(equilibrium, "_phi", recording)
    return solve_fixed_point(batch, model, init=init), calls


class TestJointStop:
    def test_stops_at_first_exact_evaluation(self, monkeypatch):
        # the loop stops at the first evaluation whose map residual plus its
        # convex agents' largest pass update meets tol, and at no earlier one
        model = preset("general-convex")
        sd = model.solver
        batch = sample_batch(model.grid, 1, sd.samples, model.factor)
        report, calls = _recorded_solve(monkeypatch, model, batch)
        met = [r + max(u.values()) <= sd.tol
               for r, (_, _, u) in zip(report.residual_trace, calls)]
        assert report.converged and len(calls) == report.iterations
        assert met[-1] and not any(met[:-1])
        assert all(set(iterates) == {"I", "S"} for _, iterates, _ in calls)
        assert all(np.all(Y == 0.0) for Y in calls[0][1].values())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_residual_within_tol(self, seed):
        # the stop bounds the exact map's residual (cold inner solves to
        # 1e-6) at the returned price by tol, and is reached within 9
        # evaluations
        model = preset("general-convex")
        sd = model.solver
        batch = sample_batch(model.grid, seed, sd.samples, model.factor)
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations <= 9
        assert price_metric(apply_phi(report.price, batch, model), report.price) <= sd.tol

    def test_affine_trace_unchanged(self, det_setup, monkeypatch):
        # with affine agents only the iterate is the price: no agent takes an
        # iterate, and the map residual alone stops the loop
        model, batch, _ = det_setup
        report, calls = _recorded_solve(monkeypatch, model, batch)
        assert all(iterates == {} for _, iterates, _ in calls)
        assert report.iterations == 2 and report.residual_trace == [0.75, 0.0]

    def test_price_fixed_point_alone_does_not_stop(self, monkeypatch):
        # started at an equilibrium price with cold adjoints Y = 0, the first
        # evaluation is made to report a price fixed point (residual 0); its
        # agents' pass updates are far from 0, so the loop may not stop there
        model = preset("general-convex")
        sd = model.solver
        batch = sample_batch(model.grid, sd.seed, 2000, model.factor)
        init = solve_fixed_point(batch, model).price

        def patch(k, theta, out):
            return (theta,) + out[1:] if k == 1 else out

        report, calls = _recorded_solve(monkeypatch, model, batch, patch, init=init)
        trace = report.residual_trace
        assert trace[0] == 0.0 and min(calls[0][2].values()) > sd.tol
        assert report.converged and report.iterations > 1 and trace[-1] <= sd.tol


class TestStopPass:
    @pytest.mark.parametrize("name", ["zero", "deterministic", "terminal-common-noise",
                                      "single-informed"])
    def test_phi_stats_are_apply_phis(self, name):
        # the stop evaluates the map per sample on apply_phi's path: at the
        # returned price its PhiStats are apply_phi's, bit for bit
        model = preset(name)
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        buckets = model.solver.conditioner(batch)
        report = solve_fixed_point(batch, model, buckets=buckets)
        stats = apply_phi(report.price, batch, model, buckets=buckets, return_internals=True)[1]
        got = report.phi_stats
        assert len(got.se) == len(stats.se) == batch.spec.n_intervals
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.se, stats.se))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.fallback, stats.fallback))
        assert got.clip_excess == stats.clip_excess

    @pytest.mark.parametrize("name", ["single-informed", "terminal-common-noise",
                                      "general-convex"])
    def test_one_combined_response_per_interval_at_the_stop(self, name, monkeypatch):
        # after the loop's last evaluation, each interval's combined response
        # is built once: the standard errors and the time-Lipschitz
        # increments are both taken from it
        model = preset(name)
        batch = sample_batch(model.grid, 5, 2000, model.factor)
        events, evaluate, combine = [], equilibrium._phi, equilibrium._combined_response

        def phi(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            events.append("phi")
            return out

        def combined(*args, **kwargs):
            events.append("combined")
            return combine(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "_phi", phi)
        monkeypatch.setattr(equilibrium, "_combined_response", combined)
        report = solve_fixed_point(batch, model)
        assert events.count("phi") == report.iterations
        after = events[len(events) - events[::-1].index("phi"):]
        assert after == ["combined"] * batch.spec.n_intervals


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


@pytest.fixture
def path_draws(monkeypatch):
    """The row count of every Brownian path drawn while the test runs."""
    drawn = []
    real = sampling._brownian

    def spy(rng, count, times):
        drawn.append(count)
        return real(rng, count, times)

    monkeypatch.setattr(sampling, "_brownian", spy)
    return drawn


class TestLazyReads:
    def test_affine_solve_reads_no_noise_and_no_control(self, monkeypatch):
        # the price and an affine adjoint are conditional expectations given
        # the key and the common noise: nothing reads W_I, W_S or alpha, and
        # no agent of the preset reads the informed factor C
        model = preset("single-informed")
        batch = sample_batch(model.grid, 9, 2000, model.factor)
        controls = []
        real = fbsde.optimal_control
        monkeypatch.setattr(fbsde, "optimal_control",
                            lambda *args: controls.append(1) or real(*args))
        report = solve_fixed_point(batch, model)
        assert report.converged
        assert all(map(callable, batch.late_paths.paths.values())) and controls == []

    def test_convex_solve_draws_both_paths(self, path_draws):
        model = preset("general-convex")
        batch = sample_batch(model.grid, 9, 600, model.factor)
        path_draws.clear()
        solve_fixed_point(batch, model.with_solver(tol=1e-2))
        assert sorted(k for k, p in batch.late_paths.paths.items() if not callable(p)) == [
            "w_I", "w_S"]
        assert path_draws == [600, 600]

    def test_convex_refinement_draws_each_path_once(self, path_draws):
        # the levels' sub-batches come from dataclasses.replace and share the draws
        model = preset("general-convex")
        batch = sample_batch(model.grid, 10, 600, model.factor)
        path_draws.clear()
        refinement_study(model.with_solver(tol=1e-2, max_iter=4), [1, 2], batch)
        assert sorted(k for k, p in batch.late_paths.paths.items() if not callable(p)) == [
            "w_I", "w_S"]
        assert path_draws == [600, 600]


def test_consistency_check_regresses_no_affine_adjoint(monkeypatch):
    # the price map reads the affine agents' responses, not their adjoints
    model = preset("single-informed").with_solver(samples=2000)
    batch = sample_batch(model.grid, 11, 2000, model.factor)
    price = solve_fixed_point(batch, model).price
    dims = []
    real = TreeConditioner.regress_slab

    def spy(self, interval, state, *args, **kwargs):
        dims.append(state.shape[-1])
        return real(self, interval, state, *args, **kwargs)

    monkeypatch.setattr(TreeConditioner, "regress_slab", spy)
    consistency_residual(price, model, seed=12)
    assert [d for d in dims if d > 0] == []


def _sup_fine_slab(slab):
    """Reference sup of a slab over its fine-grid points, read on the whole slab at once."""
    inner, last = slab[:, :, :-1], slab[:, -1, -1]
    return abs(float(np.max([inner.max(), -inner.min(), last.max(), -last.min()])))


def _conditional_variation_fine(path, buckets):
    """Reference conditional variation, read off a whole fine-grid path at the node columns."""
    m = buckets.spec.m
    total = var = 0.0
    for j in range(buckets.spec.n_intervals):
        stats = buckets.bucket_stats(j, path[:, (j + 1) * m] - path[:, j * m])
        frac = stats.counts / buckets.count
        total += float(np.sum(frac * np.abs(stats.mean[:, 0])))
        se = np.where(np.isfinite(stats.se[:, 0]), stats.se[:, 0], 0.0)
        var += float(np.sum((frac * se) ** 2))
    return total, float(np.sqrt(var))


class TestWorkingSet:
    @pytest.fixture(scope="class")
    def key_solution(self):
        model = preset("single-informed")
        batch = sample_batch(model.grid, 21, 3000, model.factor)
        buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX, min_count=30)
        sol = solve_affine(batch, constant_price(model.grid, buckets, -0.3), model.standard,
                           buckets, model.bounds)
        return batch, buckets, sol

    def test_table_sup_is_the_slab_sup(self, key_solution):
        _, buckets, sol = key_solution
        assert isinstance(sol.fit(), DiscretePrice)
        sup = sol.sup_Y
        assert sup == _sup_fine_slab(sol.Y) == _sup_fine(np.moveaxis(sol.Y, 1, 0)) > 0.0
        # -0.0 tables read 0.0, as the all -0.0 slab gathered from them does
        tables = [np.full_like(t, -0.0) for t in sol.fit().tables]
        zero = replace(sol, adjoint=DiscretePrice.from_tables(buckets, tables))
        assert not np.signbit(zero.sup_Y) and np.signbit(zero.Y).all()
        assert zero.sup_Y == _sup_fine_slab(zero.Y) == 0.0

    def test_conditional_variation_on_nodes(self, key_solution):
        # node values give the fine-path estimate bit for bit: a slab, key
        # tables read at the nodes, and a continuous path's [:, ::m]
        batch, buckets, sol = key_solution
        m = batch.spec.m
        want = _conditional_variation_fine(fine_path(sol.Y), buckets)
        assert _conditional_variation(_node_values(sol.Y, buckets), buckets) == want
        assert _conditional_variation(sol.nodes, buckets) == want
        want_b = _conditional_variation_fine(batch.b, buckets)
        assert _conditional_variation(batch.b[:, ::m], buckets) == want_b
        nodes = _node_values(sol.price_path, buckets)
        assert nodes.shape == (batch.count, batch.spec.n_intervals + 1)
        assert np.array_equal(nodes, fine_path(sol.price_path)[:, ::m])

    def test_key_adjoint_solve_working_set(self):
        # one single-informed solve with both adjoints on the tree key alone
        # keeps no per-sample adjoint and builds no full-batch combined
        # response: its traced peak stays under 6.75 arrays of (count, n_fine)
        # floats (5.8 measured; keeping both adjoints' slabs read 8.1)
        model = preset("single-informed")
        batch = sample_batch(model.grid, 3, 2000, model.factor)
        batch.node_path
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = solve_fixed_point(batch, model, informed_state=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 6.75 * batch.count * batch.spec.n_fine * 8


def _raw_costs(model):
    """The model with every agent's costs behind raw callables, which declare
    no reads: every agent then reads the price and is solved at every evaluation."""
    def raw(agent):
        run, term = agent.running_cost, agent.terminal_cost
        return replace(agent, running_cost=lambda *a: run(*a), terminal_cost=lambda *a: term(*a))
    return replace(model, informed=raw(model.informed), standard=raw(model.standard))


@pytest.fixture
def affine_responses(monkeypatch):
    """The population of every affine response computed while the test runs."""
    real, calls = fbsde._affine_response, []

    def spy(batch, env, agent):
        calls.append(agent.population)
        return real(batch, env, agent)

    monkeypatch.setattr(fbsde, "_affine_response", spy)
    return calls


class TestPriceFreeAgents:
    @pytest.mark.parametrize("informed_state", [True, False])
    def test_informed_solved_once(self, affine_responses, informed_state):
        # single-informed: the informed costs read b only, the standard
        # running cost reads the price
        model = preset("single-informed")
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        report = solve_fixed_point(batch, model, informed_state=informed_state)
        assert report.iterations > 2
        assert affine_responses.count("I") == 1
        # the standard agent's running cost reads (t, varpi) only: the loop
        # integrates it on key tables, and only the stop solves it per sample
        assert affine_responses.count("S") == 1

    def test_informed_state_fit_made_once(self, monkeypatch):
        # the informed (B) adjoint is fitted once per solve: one regression
        # on a state per interval, though every evaluation reads its sup; the
        # standard adjoint's degree-0 fit is made once too, at the stop (the
        # loop reads its sup off the pooled key means)
        model = preset("single-informed")
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        dims, real = [], TreeConditioner.regress_slab

        def spy(self, interval, state, *args, **kwargs):
            dims.append(state.shape[-1])
            return real(self, interval, state, *args, **kwargs)

        monkeypatch.setattr(TreeConditioner, "regress_slab", spy)
        report = solve_fixed_point(batch, model)
        assert report.iterations > 2 and len(report.iterate_sup_Y) == report.iterations
        assert dims.count(1) == batch.spec.n_intervals
        assert dims.count(0) == batch.spec.n_intervals

    def test_raw_callables_solved_every_evaluation(self, affine_responses):
        model = _raw_costs(preset("single-informed"))
        assert all(a.reads_price for a in model.agents())
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        report = solve_fixed_point(batch, model)
        assert affine_responses.count("I") == affine_responses.count("S") == report.iterations

    @pytest.mark.parametrize("name,informed_state", [
        ("single-informed", True), ("single-informed", False),
        ("terminal-common-noise", True), ("deterministic", True), ("zero", True)])
    def test_same_solve_as_solved_every_evaluation(self, name, informed_state):
        # holding a price-free agent's solution changes no number of the
        # solve; integrating a key-table agent's cost on the price's tables
        # (single-informed's standard agent) changes them by rounding only
        model = preset(name)
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        held = solve_fixed_point(batch, model, informed_state=informed_state)
        every = solve_fixed_point(batch, _raw_costs(model), informed_state=informed_state)
        on_keys = any(solved_on_keys(a, informed_state) for a in model.agents())
        assert on_keys == (name == "single-informed")

        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if not on_keys:
                return np.array_equal(a, b)
            return a.shape == b.shape and np.array_equal(np.isfinite(a), np.isfinite(b)) and (
                np.max(np.abs(np.where(np.isfinite(a), a - b, 0.0)), initial=0.0) <= 1e-13)

        assert held.iterations == every.iterations and held.restarts == every.restarts
        assert held.summary(bounds=model.bounds) == every.summary(bounds=model.bounds)
        assert same(held.residual_trace, every.residual_trace)
        assert same([[d[p] for p in "IS"] for d in held.iterate_sup_Y],
                    [[d[p] for p in "IS"] for d in every.iterate_sup_Y])
        assert all(same(a, b) for a, b in zip(held.price.tables, every.price.tables))
        assert same([getattr(held.diagnostics, f.name) for f in fields(held.diagnostics)],
                    [getattr(every.diagnostics, f.name) for f in fields(every.diagnostics)])
        for p in "IS":
            assert all(same(a.mean, b.mean) and same(a.se, b.se)
                       for a, b in zip(held.response_stats[p], every.response_stats[p]))


def _standard_running_cost(model, cost):
    return replace(model, standard=replace(model.standard, running_cost=cost))


class TestKeyTableAgents:
    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("grid", [None, GridSpec(n=4, l=2, m=4, T=1.0)])
    def test_key_means_are_the_bucket_means(self, grid, mode):
        # the standard agent's response integrated on key tables has, per
        # key, the mean of its per-sample response up to rounding, with
        # prefix keys (pooled keys among them) and with Markov keys, on a
        # price that the clipped-price cost clips in places
        model = preset("single-informed")
        if grid is not None:
            model = model.with_grid(grid)
        spec = model.grid
        batch = sample_batch(spec, 9, 3000, model.factor)
        buckets = TreeConditioner(spec, batch.node_path, mode, min_count=30)
        if mode == FULL_PREFIX:
            assert buckets.n_fallback_keys() > 0
        rng = np.random.default_rng(4)
        price = DiscretePrice.from_tables(buckets, [
            rng.uniform(-12.0, 12.0, (buckets.counts(i).size, spec.m + 1))
            for i in range(spec.n_intervals)])
        on_keys = solve_on_keys(batch, price, model.standard, buckets, model.bounds)
        per_sample = solve_affine(batch, price, model.standard, buckets, model.bounds)
        assert on_keys.response is None and on_keys.price_path is None
        response = interval_view(per_sample.response, spec.m)
        for i in range(spec.n_intervals):
            pooled = on_keys.key_means[i].copy()
            buckets.pool_means(i, pooled)
            assert np.max(np.abs(pooled - buckets.bucket_stats(i, response[:, i]).mean)) <= 1e-13
            assert np.max(np.abs(on_keys.fit().tables[i] - per_sample.fit().tables[i])) <= 1e-13

    def test_loop_builds_no_price_slab(self, affine_responses, monkeypatch):
        # single-informed: the price is materialized twice per solve, at the
        # first evaluation for the held informed agent's one solve and at the
        # stop for the standard agent's one per-sample solve
        model = preset("single-informed")
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        real, calls = materialize, []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "materialize", spy)
        monkeypatch.setattr(fbsde, "materialize", spy)
        report = solve_fixed_point(batch, model, informed_state=False)
        assert report.iterations > 2 and len(calls) == 2
        assert affine_responses == ["I", "S"]

    @pytest.mark.parametrize("declared", [None, ("varpi", "b")])
    def test_other_running_costs_solved_per_sample(self, affine_responses, monkeypatch, declared):
        # a raw callable declares nothing, and a cost that reads b is not a
        # function of the key: both keep the per-sample path at every evaluation
        model = preset("single-informed")
        run = model.standard.running_cost

        def cost(t, varpi, b, c):
            return run(t, varpi, b, c) + 0.0 * np.clip(b, -1.0, 1.0)

        if declared is not None:
            cost = _reading(cost, *declared)
        model = _standard_running_cost(model, cost)
        assert model.standard.reads_price and not solved_on_keys(model.standard)
        real, keyed = equilibrium.solve_on_keys, []
        monkeypatch.setattr(equilibrium, "solve_on_keys",
                            lambda *args: keyed.append(1) or real(*args))
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        report = solve_fixed_point(batch, model, informed_state=False)
        assert report.iterations > 2 and not keyed
        assert affine_responses.count("S") == report.iterations

    @pytest.mark.parametrize("cost", [
        lambda t, varpi, b, c: 0.25 * np.clip(varpi, -8.0, 8.0) + 0.1 * np.clip(b, -1.0, 1.0),
        lambda t, varpi, b, c: np.where(varpi > 0.0, b, 0.0),
    ])
    def test_declared_key_cost_reading_b_refused(self, cost):
        # a cost that declares (t, varpi) but reads b is given b = None on
        # key tables: it fails with a ModelError, never a silent wrong price
        # (np.asarray(None, dtype=float) would read nan)
        model = _standard_running_cost(preset("single-informed"), _reading(cost, "t", "varpi"))
        assert solved_on_keys(model.standard)
        batch = sample_batch(model.grid, 5, 500, model.factor)
        with pytest.raises(ModelError, match="running_cost declares"):
            solve_fixed_point(batch, model)


def _raw_dynamics(model):
    """The model with every agent's drift and volatilities behind raw
    callables, which declare no reads: every convex agent's Euler noise is
    then rebuilt at every evaluation."""
    def raw(fn):
        return lambda t, varpi: fn(t, varpi)

    def agent(a):
        return replace(a, drift=raw(a.drift), vol_common=raw(a.vol_common),
                       vol_idio=raw(a.vol_idio))
    return replace(model, informed=agent(model.informed), standard=agent(model.standard))


@pytest.fixture
def euler_noises(monkeypatch):
    """The population of every Euler noise built while the test runs."""
    real, calls = fbsde._euler_noise, []

    def spy(batch, env, agent):
        calls.append(agent.population)
        return real(batch, env, agent)

    monkeypatch.setattr(fbsde, "_euler_noise", spy)
    monkeypatch.setattr(equilibrium, "_euler_noise", spy)
    return calls


def _same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b, strict=True))


class TestHeldEulerNoise:
    @pytest.mark.parametrize("name", ["general-convex", "clearing"])
    def test_built_once_per_convex_agent(self, name, euler_noises):
        # the catalog's drift and volatilities read no price, so each convex
        # agent's noise is built at the solve's first evaluation only
        model = preset(name)
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations > 2
        assert sorted(euler_noises) == ["I", "S"]

    @pytest.mark.parametrize("name", ["general-convex", "clearing"])
    def test_same_solve_as_rebuilt_every_evaluation(self, name, euler_noises):
        model = preset(name)
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        held = solve_fixed_point(batch, model)
        del euler_noises[:]
        every = solve_fixed_point(batch, _raw_dynamics(model))
        assert len(euler_noises) == 2 * every.iterations
        assert held.iterations == every.iterations and held.restarts == every.restarts
        assert held.summary(bounds=model.bounds) == every.summary(bounds=model.bounds)
        assert held.residual_trace == every.residual_trace
        assert held.iterate_sup_price == every.iterate_sup_price
        assert held.iterate_sup_Y == every.iterate_sup_Y
        assert _same_arrays(held.price.tables, every.price.tables)
        assert _same_arrays([getattr(held.diagnostics, f.name) for f in fields(held.diagnostics)],
                            [getattr(every.diagnostics, f.name) for f in fields(every.diagnostics)])
        assert _same_arrays(held.phi_stats.se, every.phi_stats.se)
        for p in "IS":
            for a, b in zip(held.response_stats[p], every.response_stats[p], strict=True):
                assert _same_arrays([a.counts, a.mean, a.se, a.fallback],
                                    [b.counts, b.mean, b.se, b.fallback])

    def test_price_reading_drift_rebuilt_every_evaluation(self, euler_noises):
        # a raw-callable drift that reads the price (within L) moves the
        # noise: that agent's is rebuilt at every evaluation, the other's held
        model = preset("general-convex")
        model = replace(model, standard=replace(model.standard,
                                                drift=lambda t, varpi: 0.1 * np.tanh(varpi)))
        assert model.standard.dynamics_read_price and not model.informed.dynamics_read_price
        assert validate(model.standard, model.bounds).passed
        batch = sample_batch(model.grid, 5, 3000, model.factor)
        report = solve_fixed_point(batch, model)
        assert report.converged and report.iterations > 2
        assert euler_noises.count("S") == report.iterations
        assert euler_noises.count("I") == 1


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

    def test_cold_solves_at_solver_tol(self, monkeypatch):
        # the check's cold convex solves stop at the solver's tol; the exact
        # map's default, the finite market's controls and the decoupling
        # probe keep solving to 1e-6
        import inspect
        from mfpricelab import fbsde
        from mfpricelab.market import clearing_residual
        model = preset("general-convex").with_solver(samples=800)
        batch = sample_batch(model.grid, 4, 800, model.factor)
        buckets = model.solver.conditioner(batch)
        price = constant_price(model.grid, buckets, -0.2)
        solve, tols = fbsde.solve_convex, []

        def spy(*args, **kwargs):
            call = inspect.signature(solve).bind(*args, **kwargs)
            call.apply_defaults()
            tols.append(call.arguments["tol"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(fbsde, "solve_convex", spy)
        consistency_residual(price, model, seed=1003)
        assert tols == [model.solver.tol] * 2
        tols.clear()
        apply_phi(price, batch, model, buckets=buckets)
        clearing_residual(price, model, N_I=1, N_S=1, seed=1004, n_scenarios=64)
        fbsde.decoupling_probe(model.standard, price, batch, buckets, model.bounds,
                               t=0.5, x1=0.0, x2=1.0)
        assert tols == [1e-6] * 6

    def test_solve_pooled_keys_skipped(self):
        # a key the solve pooled holds a kernel estimate whose bias the bucket
        # SE cannot calibrate: it is skipped even where the fresh batch fills it
        model = preset("terminal-common-noise")
        batch = sample_batch(model.grid, 9, 2000, model.factor)
        price = solve_fixed_point(batch, model).price
        check = model.with_solver(samples=8000)
        res = consistency_residual(price, check, seed=1002)
        unmasked = replace(price, pooled=[np.zeros_like(p) for p in price.pooled])
        judged_pooled = consistency_residual(unmasked, check, seed=1002)
        fresh = sample_batch(model.grid, 1002, 8000, model.factor)
        buckets = check.solver.conditioner(fresh, price.mode)
        pinned = 0  # stored, pooled by the solve, well-populated fresh
        for i in range(model.grid.n_intervals):
            rows = key_rows(price, buckets, i)
            pinned += int(np.sum((rows >= 0) & price.pooled[i][rows] & ~buckets.pooled(i)))
        assert pinned > 0
        assert res.skipped_keys == judged_pooled.skipped_keys + pinned


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
        report = solve_fixed_point(batch, model)
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
        spec = model.grid
        v, se = _conditional_variation(batch.b[:, ::spec.m], buckets)
        # mean of |N(0,s)| is s*sqrt(2/pi); allow 5 sigma over the folded mean
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
        a, b = (refinement_study(model.with_solver(tol=1e-3, max_iter=5),
                                 [1, 2], batch, level_resolution=lambda n: 1) for _ in range(2))
        assert price_metric(a.level_reports[2].price, b.level_reports[2].price) == 0.0
        assert a.medians() == b.medians()

    def test_deterministic_level_independent(self):
        model = preset("deterministic").with_grid(GridSpec(n=2, l=1, m=4, T=1.0))
        batch = sample_batch(model.grid, 12, 2000, model.factor)
        table = refinement_study(model.with_solver(tol=1e-6, max_iter=5),
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
