import numpy as np
import pytest

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.tree import FULL_PREFIX, MARKOV, GridSpec, project_path

SPEC = GridSpec(n=2, l=1, m=2, T=1.0)


def make_nodes(count, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(count, SPEC.n_nodes)).cumsum(axis=1) * 0.5
    return project_path(b, SPEC.l), rng


def bucket_mean(cond, interval, vals):
    """Per-sample bucket mean of one value column."""
    return cond.bucket_stats(interval, vals).mean[cond.inverse(interval), 0]


def fit_one_column(cond, interval, state, vals):
    """Within-bucket least squares of one value column on a (count, d) state."""
    return cond.regress_slab(interval, state[:, None, :], vals[:, None])[:, 0]


class TestBucketStats:
    def test_matches_manual_group_means(self):
        nodes, rng = make_nodes(500)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=1)
        vals = rng.normal(size=500)
        stats = cond.bucket_stats(2, vals)
        inv = cond.inverse(2)
        for k in range(len(stats.keys)):
            members = vals[inv == k]
            assert stats.mean[k, 0] == pytest.approx(members.mean())
            if members.size > 1:
                expect_se = members.std(ddof=1) / np.sqrt(members.size)
                assert stats.se[k, 0] == pytest.approx(expect_se)

    def test_interval_zero_pools_everything(self):
        nodes, rng = make_nodes(100)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=1)
        vals = rng.normal(size=100)
        stats = cond.bucket_stats(0, vals)
        assert len(stats.keys) == 1
        assert stats.mean[0, 0] == pytest.approx(vals.mean())

    def test_smooth_is_projection(self):
        # smoothing twice changes nothing (bucket means are idempotent)
        nodes, rng = make_nodes(300)
        cond = TreeConditioner(SPEC, nodes, MARKOV, min_count=1)
        vals = rng.normal(size=300)
        once = bucket_mean(cond, 1, vals)
        assert np.allclose(bucket_mean(cond, 1, once), once)

    def test_undersized_keys_pooled_and_flagged(self):
        nodes, rng = make_nodes(4000, seed=3)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=30)
        assert cond.n_fallback_keys() > 0
        vals = rng.normal(size=4000)
        stats = cond.bucket_stats(3, vals)
        small = stats.counts < 30
        assert np.array_equal(stats.fallback, small)
        # pooled values stay inside the range of the healthy key means
        if small.any() and (~small).any():
            lo, hi = stats.mean[~small, 0].min(), stats.mean[~small, 0].max()
            pad = 0.5 * (hi - lo) + 1e-12
            assert np.all(stats.mean[small, 0] >= lo - pad)
            assert np.all(stats.mean[small, 0] <= hi + pad)


class TestRegression:
    def test_recovers_linear_function_exactly(self):
        nodes, rng = make_nodes(2000, seed=5)
        cond = TreeConditioner(SPEC, nodes, MARKOV, min_count=10)
        state = rng.normal(size=(2000, 2))
        vals = 1.5 + 2.0 * state[:, 0] - 0.5 * state[:, 1]
        preds = fit_one_column(cond, 1, state, vals)
        stats = cond.bucket_stats(1, vals)
        healthy = ~stats.fallback[cond.inverse(1)]  # pooled keys keep the fallback value
        # exact up to the 1e-9 relative ridge used to stabilize the normal equations
        assert np.allclose(preds[healthy], vals[healthy], atol=1e-6)

    def test_predictions_average_to_bucket_mean(self):
        nodes, rng = make_nodes(2000, seed=6)
        cond = TreeConditioner(SPEC, nodes, MARKOV, min_count=10)
        state = rng.normal(size=(2000, 2))
        vals = np.tanh(state[:, 0]) + rng.normal(size=2000)
        preds = fit_one_column(cond, 2, state, vals)
        inv = cond.inverse(2)
        stats = cond.bucket_stats(2, vals)
        for k in np.unique(inv):
            if stats.fallback[k]:
                continue
            assert preds[inv == k].mean() == pytest.approx(vals[inv == k].mean(), abs=1e-9)

    def test_constant_state_falls_back_to_mean(self):
        nodes, rng = make_nodes(1000, seed=7)
        cond = TreeConditioner(SPEC, nodes, MARKOV, min_count=10)
        state = np.zeros((1000, 1))
        vals = rng.normal(size=1000)
        preds = fit_one_column(cond, 1, state, vals)
        expect = bucket_mean(cond, 1, vals)
        assert np.allclose(preds, expect, atol=1e-6)

    def test_slab_consistent_with_single_column(self):
        nodes, rng = make_nodes(1500, seed=8)
        cond = TreeConditioner(SPEC, nodes, MARKOV, min_count=10)
        state = rng.normal(size=(1500, 3, 2))
        vals = rng.normal(size=(1500, 3))
        slab = cond.regress_slab(1, state, vals)
        for c in range(3):
            col = fit_one_column(cond, 1, state[:, c, :], vals[:, c])
            assert np.allclose(slab[:, c], col)
