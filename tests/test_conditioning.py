import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.tree import FULL_PREFIX, MARKOV, GridSpec, Lattice, project_path

SPEC = GridSpec(n=2, l=1, m=2, T=1.0)


def make_nodes(count, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(count, SPEC.n_nodes)).cumsum(axis=1) * 0.5
    return project_path(b, SPEC.l), rng


def bucket_mean(cond, interval, vals):
    """Per-sample bucket mean of one value column."""
    return cond.bucket_stats(interval, vals).mean[cond.inverse(interval), 0]


def regress(cond, interval, state, values):
    """regress_slab's fit, with no envelope to clip to, as a new slab."""
    out = np.empty(np.shape(values))
    cond.regress_slab(interval, state, values, bound=np.inf, out=out)
    return out


def fit_one_column(cond, interval, state, vals):
    """Within-bucket least squares of one value column on a (count, d) state."""
    return regress(cond, interval, state[:, None, :], vals[:, None])[:, 0]


class TestBucketStats:
    def test_unknown_key_mode_rejected(self):
        nodes, _ = make_nodes(10)
        with pytest.raises(ValueError, match="key mode"):
            TreeConditioner(SPEC, nodes, "nonsense")

    def test_matches_manual_group_means(self):
        nodes, rng = make_nodes(500)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=1)
        vals = rng.normal(size=500)
        stats = cond.bucket_stats(2, vals)
        inv = cond.inverse(2)
        for k in range(len(stats.counts)):
            members = vals[inv == k]
            assert stats.mean[k, 0] == pytest.approx(members.mean())
            if members.size > 1:
                expect_se = members.std(ddof=1) / np.sqrt(members.size)
                assert stats.se[k, 0] == pytest.approx(expect_se)

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("value", [0.1, 1 / 3, 0.7, 1e5 + 0.1])
    def test_constant_field_has_no_standard_error(self, mode, value):
        # the variance is centred, so a constant field leaves no rounding
        # residue of order sqrt(eps)*|value| in its own or its pooled SE
        nodes, _ = make_nodes(2000, seed=13)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=40)
        assert cond.n_fallback_keys() > 0
        for i in range(SPEC.n_intervals):
            se = cond.bucket_stats(i, np.full((2000, 2), value)).se
            assert np.all(se[np.isfinite(se)] <= 1e-15 * abs(value))

    def test_interval_zero_pools_everything(self):
        nodes, rng = make_nodes(100)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=1)
        vals = rng.normal(size=100)
        stats = cond.bucket_stats(0, vals)
        assert len(stats.counts) == 1
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


def reference_partition(spec, codes, mode, min_count):
    """The partition by whole-row sorts: per interval, np.unique of the code
    prefix rows (axis=0) for prefix keys, of the last code for Markov keys,
    then the counts, the stable order, the segment starts and the pooling
    arrays (undersized keys, key state ids, N_s, weights) derived from them."""
    lattice = Lattice(spec.l)
    sd = np.sqrt(spec.interval_length)
    out = []
    for i in range(spec.n_intervals):
        if i == 0:
            inv = np.zeros(len(codes), dtype=np.int64)
            uniq = np.zeros((1, 0), dtype=np.int64)
        elif mode == MARKOV:
            uniq, inv = np.unique(codes[:, i - 1], return_inverse=True)
            uniq = uniq[:, None]
        else:
            uniq, inv = np.unique(codes[:, :i], axis=0, return_inverse=True)
        counts = np.bincount(inv, minlength=len(uniq))
        order = np.argsort(inv, kind="stable")
        starts = np.searchsorted(inv[order], np.arange(len(uniq)))
        pool = None
        small = np.flatnonzero(counts < min_count)
        if small.size and len(uniq) > 1:
            state_codes, sid = np.unique(uniq[:, -1], return_inverse=True)
            n_s = np.bincount(sid, weights=counts)
            states = lattice.value_of(state_codes)
            w = np.exp(-0.5 * ((states[sid[small], None] - states[None, :]) / sd) ** 2)
            w /= (w @ n_s)[:, None]
            pool = (small, sid, n_s, w)
        out.append((uniq, inv, counts, order, starts, pool))
    return out


class TestPartition:
    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("n,l,count", [(2, 1, 2000), (3, 2, 3000), (4, 2, 3000),
                                           (4, 2, 1), (4, 2, 0)])
    def test_matches_row_sorts(self, mode, n, l, count):
        # one 1-D refinement per interval gives the partition of the whole-row
        # sorts; at n = 4, l = 2 a code for a whole prefix row overflows int64
        spec = GridSpec(n=n, l=l, m=2, T=1.0)
        b = np.random.default_rng(n + l).normal(size=(max(count, 1), spec.n_nodes)).cumsum(axis=1)
        nodes = project_path(b * np.sqrt(spec.interval_length), spec.l)[:count]
        cond = TreeConditioner(spec, nodes, mode)
        if n == 4:
            assert Lattice(l).size ** (spec.n_intervals - 1) > np.iinfo(np.int64).max
        pooled = 0
        for i, (uniq, inv, counts, order, starts, pool) in enumerate(
                reference_partition(spec, cond.codes, mode, cond.min_count)):
            for got, want in [(cond.key_codes(i), uniq), (cond.inverse(i), inv),
                              (cond.counts(i), counts), (cond._order[i], order),
                              (cond._starts[i], starts)]:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            mask = np.zeros(counts.size, dtype=bool)
            if pool is not None:
                mask[pool[0]] = True
                for got, want in zip(cond._pool[i], pool):
                    np.testing.assert_array_equal(got, want)
                pooled += 1
            assert (i in cond._pool) == (pool is not None)
            np.testing.assert_array_equal(cond.pooled(i), mask)
        assert (pooled > 0) == (count > 1)


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
        slab = regress(cond, 1, state, vals)
        for c in range(3):
            col = fit_one_column(cond, 1, state[:, c, :], vals[:, c])
            assert np.allclose(slab[:, c], col)


def reference_regress(cond, interval, state, values):
    """Naive within-bucket fit: one centred degree-2 least squares per bucket
    and column, with the 1e-9 * trace/p ridge; plain means for buckets too
    small for the basis, and the Gaussian-kernel pooled means, recomputed
    from the key states, for undersized keys."""
    inv, counts = cond.inverse(interval), cond.counts(interval)
    d = state.shape[2]
    quad = [state[:, :, a] * state[:, :, b] for a in range(d) for b in range(a, d)]
    basis = np.concatenate([state, np.stack(quad, axis=2)], axis=2)
    p = basis.shape[2]
    means = np.array([values[inv == b].mean(axis=0) for b in range(counts.size)])
    small = np.flatnonzero(counts < cond.min_count) if counts.size > 1 else []
    key_states = cond.lattice.value_of(cond.key_codes(interval)[:, -1]) if counts.size > 1 else None
    preds = np.empty_like(values)
    for b in range(counts.size):
        rows = np.flatnonzero(inv == b)
        if b in small:
            w = counts * np.exp(-0.5 * (key_states - key_states[b]) ** 2 / SPEC.interval_length)
            preds[rows] = means[b] + (w / w.sum()) @ (means - means[b])
            continue
        for c in range(values.shape[1]):
            y = values[rows, c]
            if counts[b] < max(cond.min_count, p + 2):
                preds[rows, c] = y.mean()
                continue
            cx = basis[rows, c] - basis[rows, c].mean(axis=0)
            gram = cx.T @ cx
            gram += 1e-9 * max(np.trace(gram) / p, 1e-30) * np.eye(p)
            beta = np.linalg.solve(gram, cx.T @ (y - y.mean()))
            preds[rows, c] = y.mean() + cx @ beta
    return preds


def reference_pooled_se(cond, interval, values):
    """Naive standard errors of the undersized keys' pooled means: per key,
    sqrt(sum_j w_j^2 * se_j^2) over all keys j with the normalized weights
    w_j ~ counts_j * gaussian(state distance), a single sample's se taken as 0."""
    inv, counts = cond.inverse(interval), cond.counts(interval)
    se = np.array([values[inv == b].std(axis=0, ddof=1) / np.sqrt(counts[b]) if counts[b] > 1
                   else np.zeros(values.shape[1]) for b in range(counts.size)])
    key_states = cond.lattice.value_of(cond.key_codes(interval)[:, -1])
    out = {}
    for b in np.flatnonzero(counts < cond.min_count):
        w = counts * np.exp(-0.5 * (key_states - key_states[b]) ** 2 / SPEC.interval_length)
        out[b] = np.sqrt((w / w.sum()) ** 2 @ se ** 2)
    return out


def slab_inputs(count, k, d, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(count, k, d))
    values = np.sin(state.sum(axis=2)) + state[:, :, 0] ** 2 + 0.3 * rng.normal(size=(count, k))
    return state, values


class TestRegressionReference:
    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("d,min_count", [(1, 30), (2, 30), (3, 6)])
    def test_matches_per_bucket_loop(self, mode, d, min_count):
        nodes, _ = make_nodes(1500, seed=11)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=min_count)
        state, values = slab_inputs(1500, 3, d, seed=d)
        p = d + d * (d + 1) // 2
        kinds = set()
        for i in range(SPEC.n_intervals):
            counts = cond.counts(i)
            kinds.update(np.where(counts < min_count, "pooled" if counts.size > 1 else "lone",
                                  np.where(counts < p + 2, "plain", "fitted")).tolist())
            np.testing.assert_allclose(regress(cond, i, state, values),
                                       reference_regress(cond, i, state, values), rtol=0, atol=1e-10)
        assert {"pooled", "fitted"} <= kinds
        if min_count < p + 2 and mode == FULL_PREFIX:
            assert "plain" in kinds

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("min_count", [30, 1])
    def test_empty_state_is_bucket_mean(self, mode, min_count):
        # d = 0: no basis, no fit; the degree-0 fit is the pooled bucket mean
        nodes, _ = make_nodes(1500, seed=11)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=min_count)
        state, values = slab_inputs(1500, 3, 1, seed=3)
        empty = state[:, :, :0]
        for i in range(SPEC.n_intervals):
            np.testing.assert_array_equal(regress(cond, i, empty, values),
                                          cond.bucket_stats(i, values).mean[cond.inverse(i)])
        assert (cond.n_fallback_keys() > 0) == (min_count > 1)

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    @pytest.mark.parametrize("d", [0, 2])
    def test_clips_into_destination_slab(self, mode, d):
        # the kernel clips at key level (d = 0) or in bucket order (d > 0) and
        # writes one interval of the caller's slab: bit for bit the per-sample
        # clip of its unclipped fit, the slab's other intervals untouched
        nodes, _ = make_nodes(1500, seed=11)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=30)
        state, values = slab_inputs(1500, SPEC.m + 1, 2, seed=7)
        state = state[:, :, :d]
        clipped = kept = 0
        for i in range(SPEC.n_intervals):
            fit = regress(cond, i, state, values)
            bound = 0.9 * np.median(np.abs(fit), axis=0)
            slab = np.full((1500, SPEC.n_intervals, SPEC.m + 1), np.nan)
            cond.regress_slab(i, state, values, bound=bound, out=slab[:, i])
            np.testing.assert_array_equal(slab[:, i], np.clip(fit, -bound, bound))
            assert np.isnan(np.delete(slab, i, axis=1)).all()
            clipped += int(np.sum(np.abs(fit) > bound))
            kept += int(np.sum(np.abs(fit) < bound))
        assert clipped > 0 and kept > 0

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    def test_failed_solve_keeps_bucket_means(self, mode, monkeypatch):
        nodes, _ = make_nodes(1500, seed=12)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=30)
        state, values = slab_inputs(1500, 3, 2, seed=4)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", singular)
        p = 5  # d = 2: two linear and three quadratic terms
        n_fitted = 0
        for i in range(SPEC.n_intervals):
            before = cond.rank_fallbacks
            preds = regress(cond, i, state, values)
            means = cond.bucket_stats(i, values).mean[cond.inverse(i)]
            np.testing.assert_array_equal(preds, means)
            fitted = int(np.sum(cond.counts(i) >= max(cond.min_count, p + 2)))
            assert cond.rank_fallbacks - before == fitted
            n_fitted += fitted
        assert n_fitted > 0

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    def test_pooled_se_matches_per_key_loop(self, mode):
        nodes, _ = make_nodes(1500, seed=11)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=30)
        _, values = slab_inputs(1500, 3, 1, seed=6)
        pooled = 0
        for i in range(1, SPEC.n_intervals):
            se = cond.bucket_stats(i, values).se
            for b, expect in reference_pooled_se(cond, i, values).items():
                np.testing.assert_allclose(se[b], expect, rtol=1e-12, atol=0)
                pooled += 1
        assert pooled > 0

    @pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
    def test_constant_field_is_exact(self, mode):
        nodes, rng = make_nodes(2000, seed=13)
        cond = TreeConditioner(SPEC, nodes, mode, min_count=40)
        assert cond.n_fallback_keys() > 0
        values = np.full((2000, 3), 1.25)
        for d in (0, 2):
            state = rng.normal(size=(2000, 3, d))
            for i in range(SPEC.n_intervals):
                assert np.all(cond.bucket_stats(i, values).mean == 1.25)
                assert np.all(regress(cond, i, state, values) == 1.25)

    def test_no_per_sample_outer_products(self):
        # the kernel's working set is a few (count, k, p+1) blocks, not
        # (count, k, p, p) per-sample products; with no state (d = 0) it is
        # one sorted copy of the values and the gathered means, no block
        import tracemalloc

        count, k = 20_000, 5
        nodes, _ = make_nodes(count, seed=14)
        cond = TreeConditioner(SPEC, nodes, FULL_PREFIX, min_count=30)
        for d in (3, 0):
            p = d + d * (d + 1) // 2
            arrays = 4 * (p + 1) if p else 2.5  # (count, k) float arrays
            state, values = slab_inputs(count, k, max(d, 1), seed=5)
            state = state[:, :, :d]
            tracemalloc.start()
            try:
                regress(cond, 2, state, values)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < arrays * count * k * 8, d


DEEP_PREFIX_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from mfpricelab.conditioning import TreeConditioner
from mfpricelab.tree import FULL_PREFIX, GridSpec, project_path
spec = GridSpec(n=4, l=2, m=4, T=1.0)
count = 20_000
b = np.random.default_rng(0).normal(size=(count, spec.n_nodes)).cumsum(axis=1)
cond = TreeConditioner(spec, project_path(b * np.sqrt(spec.interval_length), spec.l), FULL_PREFIX)
values = np.full((count, spec.m + 1), 1.25)
for i in range(spec.n_intervals):
    assert np.all(cond.bucket_stats(i, values).mean == 1.25), i
    out = np.empty_like(values)
    cond.regress_slab(i, np.empty((count, spec.m + 1, 0)), values, bound=np.inf, out=out)
    assert np.all(out == 1.25), i
# VmHWM: this process's own peak (ru_maxrss keeps the parent's peak across exec on Linux)
peak_kb = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(cond.n_fallback_keys(), peak_kb)
"""


def test_deep_prefix_memory():
    # pooling storage grows with keys and lattice states: a deep prefix tree
    # whose keys hold a sample or two each stays small; the subprocess's
    # address-space cap turns a regression into a MemoryError, not a host OOM
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", DEEP_PREFIX_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    pooled, peak_rss_kb = map(int, run.stdout.split())
    assert pooled > 100_000
    assert peak_rss_kb < 400 * 1024
