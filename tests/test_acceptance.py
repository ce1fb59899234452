"""Acceptance suite: one test per quantitative acceptance criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output).  Thresholds are fixed here, not tuned at runtime:

  1  zero preset:            1 iteration, residual 0, < 1 s
  2  deterministic preset:   price = -(g0 + c0(T-t)) within 1e-10, clearing 0
  3  common-noise tracking:  |price(t_i) + V_i| <= i*2^-l + 3 bucket SE, 1e5
  4  boundedness:            sup|Y|, sup|price| <= C_B at every iterate
  5  time-Lipschitz:         within-interval slopes <= 2L + 10 bucket SE
  6  conditional variation:  V(price) <= 2LT + 3 SE, V(Y) <= TL + 3 SE
  7  decoupling Lipschitz:   observed ratio <= Gamma_p (55.37 at L=T=Lam=1)
  8  clearing rate:          residual <= 8*T*C_B^2*sum(Lam^-2)/N + 3 SE,
                             log-log slope in [-1.25, -0.75], 10 seeds
  9  informed inference:     |beta_direct - inferred| within 3 bucket SE
                             (+ the exact fixed-point displacement slack)
  10 refinement:             median coupled d_M decreasing for >= 4/5 seeds
  11 oracle equivalences:    kernel vs MC, convex vs affine route, analytic
                             vs finite-difference d_x, perturbed-cost optimality
"""

import time

import numpy as np
import pytest

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import refinement_study, solve_fixed_point
from mfpricelab.fbsde import (decoupling_gamma, decoupling_probe, per_sample_cost,
                              solve_affine, solve_convex)
from mfpricelab.market import (clearing_bound, clearing_residual,
                               informed_inference_check, rate_study)
from mfpricelab.models import (AgentSpec, ModelBounds, coeff_constant, coeff_zero,
                               preset)
from mfpricelab.price import fine_path, interval_matrix, interval_view, zero_price
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import (FULL_PREFIX, GridSpec, Lattice, project_scalar,
                             transition_matrix)


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def solves():
    """Converged equilibria for every preset, reused across criteria."""
    out = {}
    for name, samples in (
        ("zero", 2000),
        ("deterministic", 2000),
        ("terminal-common-noise", 100_000),
        ("general-convex", 4000),
        ("single-informed", 20_000),
        ("clearing", 30_000),
    ):
        model = preset(name)
        t0 = time.monotonic()
        batch = sample_batch(model.grid, model.solver.seed, samples, model.factor)
        rep = solve_fixed_point(batch, model)
        out[name] = dict(model=model, batch=batch, report=rep,
                         elapsed=time.monotonic() - t0)
    return out


def test_criterion_01_trivial_equilibrium(solves):
    s = solves["zero"]
    rep = s["report"]
    ok = (rep.converged and rep.iterations == 1 and rep.residual_trace == [0.0]
          and rep.price.sup_norm() == 0.0 and s["elapsed"] < 1.0)
    report("criterion 1 (trivial equilibrium)",
           ok, f"iterations={rep.iterations} residual={rep.residual_trace[-1]} "
               f"runtime={s['elapsed']:.2f}s")


def test_criterion_02_deterministic_closed_form(solves):
    s = solves["deterministic"]
    model, rep = s["model"], s["report"]
    spec = model.grid
    sub = np.linspace(0, spec.interval_length, spec.m + 1)
    worst = 0.0
    for key, vals in rep.price.values.items():
        t = key.interval * spec.interval_length + sub
        worst = max(worst, float(np.max(np.abs(vals + 0.5 + 0.25 * (1.0 - t)))))
    t0 = time.monotonic()
    clearing_zero = all(
        clearing_residual(rep.price, model, N // 2, N - N // 2, seed=77 + N,
                          n_scenarios=8).value == 0.0
        for N in (2, 8, 32, 128))
    elapsed = s["elapsed"] + (time.monotonic() - t0)
    ok = rep.converged and rep.iterations <= 2 and worst <= 1e-10 \
        and clearing_zero and elapsed < 5.0
    report("criterion 2 (deterministic closed form)",
           ok, f"price error={worst:.2e} clearing exactly 0={clearing_zero} "
               f"runtime={elapsed:.2f}s")


def test_criterion_03_common_noise_tracking(solves):
    s = solves["terminal-common-noise"]
    model, batch, rep = s["model"], s["batch"], s["report"]
    spec = model.grid
    lat = Lattice(spec.l)
    buckets = TreeConditioner(spec, batch.node_path, FULL_PREFIX,
                              min_count=model.solver.min_bucket)
    worst = 0.0
    checked = skipped = 0
    for i in range(1, spec.n_intervals):
        mat, _ = interval_matrix(rep.price, buckets, i)
        se = rep.phi_stats.se[i]
        counts = buckets.counts(i)
        for k, key in enumerate(buckets.keys(i)):
            if counts[k] < model.solver.min_bucket:
                skipped += 1  # kernel-pooled fallback keys are reported only
                continue
            v_i = lat.value_of(key.prefix[-1])
            tol = i * 2.0 ** (-spec.l) + 3.0 * se[k][0]
            worst = max(worst, abs(mat[k, 0] + v_i) / tol)
            checked += 1
    ok = rep.converged and worst <= 1.0 and s["elapsed"] < 120.0
    report("criterion 3 (common-noise tracking)",
           ok, f"worst |price+V_i|/(i*2^-l + 3SE)={worst:.3f} over {checked} keys "
               f"({skipped} undersized reported) runtime={s['elapsed']:.1f}s")


def test_criterion_04_boundedness(solves):
    worst_name, worst_margin = "", -np.inf
    for name, s in solves.items():
        C_B = s["model"].bounds.C_B
        sup_p = max(s["report"].iterate_sup_price)
        sup_y = max(max(d.values()) for d in s["report"].iterate_sup_Y)
        margin = max(sup_p - C_B, sup_y - C_B)
        if margin > worst_margin:
            worst_name, worst_margin = name, margin
    report("criterion 4 (boundedness at every iterate)",
           worst_margin <= 0.0,
           f"worst sup - C_B = {worst_margin:.3e} ({worst_name}), exact bound")


def test_criterion_05_time_lipschitz(solves):
    worst = -np.inf
    for name, s in solves.items():
        d = s["report"].diagnostics
        worst = max(worst, d.time_lipschitz_bound_excess)
    report("criterion 5 (time-Lipschitz <= 2L + 10 SE)",
           worst <= 0.0, f"worst excess over all presets = {worst:.3e}")


def test_criterion_06_conditional_variation(solves):
    worst = -np.inf
    for name, s in solves.items():
        d = s["report"].diagnostics
        L, T = s["model"].bounds.L, s["model"].grid.T
        worst = max(worst,
                    d.cond_variation_price - (2 * L * T + 3 * d.cond_variation_price_se),
                    d.cond_variation_Y_I - (T * L + 3 * d.cond_variation_Y_I_se),
                    d.cond_variation_Y_S - (T * L + 3 * d.cond_variation_Y_S_se))
    report("criterion 6 (conditional variation bounds)",
           worst <= 0.0, f"worst excess over all presets = {worst:.3e}")


def test_criterion_07_decoupling_lipschitz(solves):
    s = solves["general-convex"]
    model = s["model"]
    gamma = decoupling_gamma(1.0, 1.0, 1.0)
    batch = sample_batch(model.grid, 505, 1000, model.factor)
    buckets = TreeConditioner(model.grid, batch.node_path, FULL_PREFIX,
                              min_count=model.solver.min_bucket)
    probe = decoupling_probe(model.standard, s["report"].price, batch, buckets,
                             model.bounds, t=0.0, x1=-0.5, x2=0.5)
    det = solves["deterministic"]
    aff = decoupling_probe(det["model"].standard, det["report"].price,
                           det["batch"],
                           TreeConditioner(det["model"].grid, det["batch"].node_path,
                                           FULL_PREFIX, min_count=30),
                           det["model"].bounds, t=0.0, x1=-1.0, x2=1.0)
    ok = (abs(gamma - 55.368652532) < 1e-6 and 0 < probe["ratio"] <= gamma
          and aff["ratio"] == 0.0)
    report("criterion 7 (decoupling Lipschitz)",
           ok, f"Gamma_p={gamma:.2f} observed={probe['ratio']:.3f} affine={aff['ratio']}")


def test_criterion_08_clearing_rate(solves):
    s = solves["clearing"]
    model, rep = s["model"], s["report"]
    t0 = time.monotonic()
    study = rate_study(rep.price, model, [8, 16, 32, 64, 128, 256, 512],
                       seeds=list(range(600, 610)), n_scenarios=48)
    elapsed = s["elapsed"] + (time.monotonic() - t0)
    bound_ok = bool(np.all(study.residuals
                           <= study.bound_constants + 3 * study.stderrs))
    slope_ok = study.slope is not None and -1.25 <= study.slope <= -0.75
    assert clearing_bound(model, 64) == pytest.approx(1.0)  # 8*1*4*2/64
    ok = bound_ok and slope_ok and elapsed < 600.0
    report("criterion 8 (market clearing rate)",
           ok, f"slope={study.slope:.3f}+-{study.slope_stderr:.3f} "
               f"bounds ok={bound_ok} runtime={elapsed:.0f}s")


def test_criterion_09_informed_inference(solves):
    s = solves["single-informed"]
    model, batch = s["model"], s["batch"]
    res = informed_inference_check(model, batch)
    report("criterion 9 (informed inference identity)",
           res.passed,
           f"max gap={res.max_gap:.3e} worst gap/(3SE + fp slack)={res.max_gap_over_tol:.3f}")


def test_criterion_10_refinement():
    model = preset("terminal-common-noise").with_grid(GridSpec(n=3, l=1, m=4, T=1.0))
    decreasing = 0
    medians_log = []
    for seed in range(1, 6):
        batch = sample_batch(model.grid, seed, 10_000, model.factor)
        table = refinement_study(model.with_solver(tol=1e-3, max_iter=8),
                                 [1, 2, 3], batch)
        med = table.medians()
        medians_log.append([round(m, 4) for m in med])
        decreasing += int(all(b < a for a, b in zip(med[:-1], med[1:])))
    report("criterion 10 (refinement diagnostic)",
           decreasing >= 4, f"{decreasing}/5 seeds strictly decreasing: {medians_log}")


def test_criterion_11_oracle_equivalences():
    # (a) transition kernel vs Monte Carlo, 3 sigma on cells with >= 100 hits
    spec = GridSpec(n=1, l=0, m=1, T=2.0)
    kern = transition_matrix(spec)
    lat = kern.lattice
    rng = np.random.default_rng(606)
    n = 1_000_000
    kernel_ok = True
    for v in lat.points():
        draws = project_scalar(v + rng.standard_normal(n) * kern.sigma, spec.l)
        counts = np.bincount(lat.index_of(draws), minlength=lat.size)
        p = kern.matrix[lat.index_of(np.array([v]))[0]]
        mask = p * n >= 100
        se = np.sqrt(p[mask] * (1 - p[mask]) / n)
        kernel_ok &= bool(np.all(np.abs(counts[mask] / n - p[mask]) <= 3 * se))

    # (b) convex route on an affine instance vs the affine solver, 3 SEs
    spec2 = GridSpec(n=2, l=1, m=4, T=1.0)
    bounds = ModelBounds(L=1.0, T=1.0)
    batch = sample_batch(spec2, 607, 4000)
    buckets = TreeConditioner(spec2, batch.node_path, FULL_PREFIX, min_count=30)
    kap = 0.5

    def mk(mode):
        base = dict(population="S", lam=1.0, weight=0.5,
                    drift=coeff_zero({}, "drift"),
                    vol_common=coeff_constant({"value": 0.2}, "vol_common"),
                    vol_idio=coeff_constant({"value": 0.3}, "vol_idio"))
        if mode == "affine":
            return AgentSpec(cost_mode="affine",
                             running_cost=lambda t, w, b, c: kap * np.clip(w, -1, 1),
                             terminal_cost=lambda w, b, c: np.full_like(np.asarray(w, float), 0.5),
                             **base)
        return AgentSpec(cost_mode="general-convex",
                         running_cost=lambda t, x, w, c: kap * np.clip(w, -1, 1) * x,
                         running_cost_dx=lambda t, x, w, c: kap * np.clip(w, -1, 1) + 0.0 * x,
                         terminal_cost=lambda x, w, c: 0.5 * x,
                         terminal_cost_dx=lambda x, w, c: np.full_like(np.asarray(x, float), 0.5),
                         **base)

    tracker = AgentSpec(population="S", lam=1.0, weight=0.5,
                        drift=coeff_zero({}, "drift"),
                        vol_common=coeff_constant({"value": 0.2}, "vol_common"),
                        vol_idio=coeff_constant({"value": 0.3}, "vol_idio"),
                        cost_mode="affine",
                        running_cost=coeff_zero({}, "running_cost_affine"),
                        terminal_cost=lambda w, b, c: np.clip(b, -8, 8))
    base_sol = solve_affine(batch, zero_price(spec2, buckets), tracker, buckets,
                            ModelBounds(L=8.0, T=1.0), informed_state=False)
    from mfpricelab.price import DiscretePrice
    price = DiscretePrice.from_tables(buckets, [
        -buckets.bucket_stats(i, base_sol.response[:, i * spec2.m:(i + 1) * spec2.m + 1]).mean
        for i in range(spec2.n_intervals)])
    sol_c = solve_convex(batch, price, mk("convex"), buckets, bounds)
    sol_a = solve_affine(batch, price, mk("affine"), buckets, bounds)
    route_ok = True
    for i in range(spec2.n_intervals):
        sl = slice(i * spec2.m, (i + 1) * spec2.m + 1)
        st_c = buckets.bucket_stats(i, sol_c.response[:, sl])
        st_a = buckets.bucket_stats(i, sol_a.response[:, sl])
        keep = ~st_a.fallback
        se = np.sqrt(st_c.se[keep] ** 2 + st_a.se[keep] ** 2) + 1e-12
        route_ok &= bool(np.all(np.abs(st_c.mean[keep] - st_a.mean[keep]) <= 3 * se))

    # (c) analytic x-derivatives vs central finite differences, 1e3 probes
    model = preset("general-convex")
    t = rng.random(1000)
    x = 4.0 * (2 * rng.random(1000) - 1)
    w = 2.0 * (2 * rng.random(1000) - 1)
    c = rng.random(1000)
    h = 1e-5
    fd_ok = True
    for agent in model.agents():
        fd = (agent.running_cost(t, x + h, w, c) - agent.running_cost(t, x - h, w, c)) / (2 * h)
        rel = np.abs(fd - agent.running_cost_dx(t, x, w, c)) / np.maximum(
            np.abs(agent.running_cost_dx(t, x, w, c)), 1e-3)
        fd_ok &= bool(np.max(rel) <= 1e-6)
        fd = (agent.terminal_cost(x + h, w, c) - agent.terminal_cost(x - h, w, c)) / (2 * h)
        rel = np.abs(fd - agent.terminal_cost_dx(x, w, c)) / np.maximum(
            np.abs(agent.terminal_cost_dx(x, w, c)), 1e-3)
        fd_ok &= bool(np.max(rel) <= 1e-6)

    # (d) perturbed-cost optimality: J(a+eps*eta) >= J(a) - 3 SE, 20 trials
    agent = mk("affine")
    sol = solve_affine(batch, price, agent, buckets, bounds)
    base_cost = per_sample_cost(batch, price, agent, sol.alpha, buckets)
    _, wpath = batch.idiosyncratic(agent.population)
    opt_ok = True
    for _ in range(20):
        a1, a2, a3 = rng.normal(size=3)
        eta = np.sin(a1 * batch.b + a2 * wpath + a3 * batch.fine_grid[None, :])
        # a continuous perturbed path: its left limits are the next interval's starts
        pert_path = interval_view(fine_path(sol.alpha) + 0.1 * eta, batch.spec.m)
        pert = per_sample_cost(batch, price, agent, pert_path, buckets)
        diff = pert - base_cost
        opt_ok &= bool(diff.mean() >= -3 * diff.std(ddof=1) / np.sqrt(batch.count))

    ok = kernel_ok and route_ok and fd_ok and opt_ok
    report("criterion 11 (oracle equivalences)",
           ok, f"kernel MC={kernel_ok} convex-vs-affine={route_ok} "
               f"finite-diff={fd_ok} perturbation optimality={opt_ok}")
