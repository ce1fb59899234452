"""Empirical conditional expectations on the noise tree.

A TreeConditioner is the one partition of a batch by tree key (full prefix
or Markov key): it precomputes, per interval, the bucket id of every sample,
the keys' lattice codes (one sorted row per key; keys() builds TreeKeys) and
the sample order that makes every bucket one contiguous slice.  The one
conditional-expectation kernel, regress_slab, is ridge-stabilized least
squares within each bucket on a total-degree-2 polynomial basis of a
continuous state (e.g. (X_t, B_t, C_t)); with no state the basis is empty
and the fit is the bucket mean (degree 0).  Undersized buckets (below
min_count) take a kernel-weighted average of the bucket means at the same
interval, weighted by bucket count and the Gaussian one-step transition
density in the current lattice state.  A weight depends on a key only
through its state and count, so the conditioner keeps one (undersized keys x
states) weight array per interval and pools through per-state sums: storage
grows with keys and lattice states, never with keys squared.  bucket_stats
adds standard errors to the pooled means, for the price map, diagnostics and
checks that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import FULL_PREFIX, MARKOV, GridSpec, Lattice, TreeKey

_RIDGE = 1e-9


@dataclass
class BucketStats:
    """Per-key estimates at one interval (rows in key-code order): mean/se (n_keys, k)."""

    counts: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    fallback: np.ndarray  # bool per key


class TreeConditioner:
    """Bucket structure of one batch for one key mode."""

    def __init__(self, spec: GridSpec, node_paths: np.ndarray, mode: str = FULL_PREFIX,
                 min_count: int = 30):
        if mode not in (FULL_PREFIX, MARKOV):
            raise ValueError(f"unknown key mode {mode!r}")
        self.spec = spec
        self.mode = mode
        self.min_count = int(min_count)
        self.lattice = Lattice(spec.l)
        self.codes = self.lattice.index_of(node_paths)  # samples x (2^n - 1) lattice indices
        self.count = self.codes.shape[0]
        self.rank_fallbacks = 0
        self._inverse: list[np.ndarray] = []
        self._key_codes: list[np.ndarray] = []  # (n_keys, prefix length), sorted rows
        self._counts: list[np.ndarray] = []
        self._order: list[np.ndarray] = []    # samples sorted by bucket id
        self._starts: list[np.ndarray] = []   # segment starts in the sorted order
        self._pool: dict = {}  # interval -> (undersized keys, key state ids, N_s, weights)
        sd = np.sqrt(spec.interval_length)
        for i in range(spec.n_intervals):
            if i == 0:
                inv = np.zeros(self.count, dtype=np.int64)
                uniq = np.zeros((1, 0), dtype=np.int64)
            elif mode == MARKOV:  # the 1-D unique is far faster than axis=0
                uniq, inv = np.unique(self.codes[:, i - 1], return_inverse=True)
                uniq = uniq[:, None]
            else:
                uniq, inv = np.unique(self.codes[:, :i], axis=0, return_inverse=True)
            n_keys = len(uniq)
            counts = np.bincount(inv, minlength=n_keys)
            order = np.argsort(inv, kind="stable")
            starts = np.searchsorted(inv[order], np.arange(n_keys))
            self._inverse.append(inv)
            self._key_codes.append(uniq)
            self._counts.append(counts)
            self._order.append(order)
            self._starts.append(starts)
            # undersized keys pool over lattice states: gaussian(state distance),
            # normalized so that sum_s w[a, s] * N_s = 1 (N_s: samples in state s)
            small = np.flatnonzero(counts < self.min_count)
            if small.size and n_keys > 1:
                codes, sid = np.unique(uniq[:, -1], return_inverse=True)
                n_s = np.bincount(sid, weights=counts)
                states = self.lattice.value_of(codes)
                w = np.exp(-0.5 * ((states[sid[small], None] - states[None, :]) / sd) ** 2)
                w /= (w @ n_s)[:, None]
                self._pool[i] = (small, sid, n_s, w)

    def key_codes(self, interval: int) -> np.ndarray:
        """Lattice codes of the keys at one interval, one sorted row per key."""
        return self._key_codes[interval]

    def keys(self, interval: int) -> list[TreeKey]:
        return [TreeKey(self.mode, interval, tuple(r)) for r in self._key_codes[interval].tolist()]

    def counts(self, interval: int) -> np.ndarray:
        return self._counts[interval]

    def inverse(self, interval: int) -> np.ndarray:
        return self._inverse[interval]

    def n_fallback_keys(self) -> int:
        return int(sum(pool[0].size for pool in self._pool.values()))

    def pooled_share(self, interval: int) -> float:
        """Share of the samples at one interval that sit in pooled keys."""
        small = self._pool[interval][0] if interval in self._pool else []
        return float(self._counts[interval][small].sum() / self.count)

    def n_lone_small_keys(self) -> int:
        """Undersized keys alone at their interval: nothing to pool them with."""
        return sum(int(c.size == 1 and c[0] < self.min_count) for c in self._counts)

    def _pool_means(self, interval: int, mean: np.ndarray) -> None:
        """Pool the undersized keys' rows of a (n_keys, k) mean array in place:
        own_a + sum_s w[a, s] * (S_s - N_s * own_a), S_s the count-weighted sum
        of the key means in state s (one bincount over (state, column) bins),
        so a field of identical values pools exactly."""
        if interval not in self._pool:
            return
        small, sid, n_s, w = self._pool[interval]
        k = mean.shape[1]
        bins = (sid[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(bins, (self._counts[interval][:, None] * mean).ravel(), n_s.size * k)
        own = mean[small]
        delta = sums.reshape(n_s.size, k) - n_s[:, None] * own[:, None, :]
        mean[small] = own + np.einsum("as,ask->ak", w, delta)

    def bucket_stats(self, interval: int, values: np.ndarray) -> BucketStats:
        """Bucket means with standard errors (one gather in bucket order); undersized keys pooled."""
        values = np.asarray(values, dtype=float)
        counts = self._counts[interval]
        starts = self._starts[interval]
        gathered = (values if values.ndim == 2 else values[:, None])[self._order[interval]]
        mean = np.add.reduceat(gathered, starts, axis=0) / counts[:, None]
        gathered -= np.repeat(mean, counts, axis=0)  # centred: no E[x^2] - mean^2 cancellation
        var = np.add.reduceat(np.square(gathered, out=gathered), starts, axis=0) / counts[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(var / np.maximum(counts[:, None] - 1, 0))
        se[counts < 2] = np.inf
        fallback = np.zeros(counts.size, dtype=bool)
        if interval in self._pool:
            small, sid, n_s, w = self._pool[interval]
            fallback[small] = True
            finite_se = np.where(np.isfinite(se), se, 0.0)
            # sqrt(sum_s w[a, s]^2 * sum over the state's keys of counts^2 * se^2)
            se_sums = [np.bincount(sid, np.square(counts * s), n_s.size) for s in finite_se.T]
            se[small] = np.sqrt(np.square(w) @ np.stack(se_sums, axis=1))
            self._pool_means(interval, mean)
        return BucketStats(counts=counts, mean=mean, se=se, fallback=fallback)

    def regress_slab(self, interval: int, state: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Within-bucket least squares, one fit per (bucket, value column).

        `state` has shape (count, k, d): the regression state per column;
        with d = 0 no bucket is fitted and the result is the pooled bucket
        mean, gathered per sample through the bucket ids.  Otherwise
        `[values | basis]` is written once, in bucket order, into one
        (count, k, 1+p) block, so every bucket is a contiguous slice and one
        reduceat gives all bucket means.  Each fitted bucket (count >=
        max(min_count, p+2)) is centred in place and its augmented Gram
        `[cy|cb]^T [cy|cb]` is one matmul batched over the k columns; the
        right-hand side is the Gram's first column.  All fitted buckets are
        solved in one batched call, with a ridge of 1e-9 * trace/p.
        Predictions equal the bucket mean plus the fitted centred-basis
        component, so they average back to the bucket mean exactly.
        Buckets between min_count and p+2 use the plain mean, undersized
        buckets the pooled mean; if the batched solve fails, every fitted
        bucket keeps its mean and counts in rank_fallbacks.
        """
        order, starts, counts = self._order[interval], self._starts[interval], self._counts[interval]
        values = np.asarray(values, dtype=float)
        state = np.asarray(state, dtype=float)
        d = state.shape[2]
        pairs = [(a, b) for a in range(d) for b in range(a, d)]
        p = d + len(pairs)
        if not p:
            mean_y = np.add.reduceat(values[order], starts, axis=0) / counts[:, None]
            self._pool_means(interval, mean_y)
            return mean_y[self._inverse[interval]]
        # basis: x_i, then x_i*x_j for i <= j (the constant is the centring)
        block = np.empty(values.shape + (1 + p,))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        block[rank, :, 0] = values
        block[rank, :, 1:1 + d] = state
        for c, (a, b) in enumerate(pairs, start=1 + d):
            np.multiply(block[:, :, 1 + a], block[:, :, 1 + b], out=block[:, :, c])
        k = block.shape[1]
        means = np.add.reduceat(block, starts, axis=0) / counts[:, None, None]
        mean_y = means[:, :, 0]
        self._pool_means(interval, mean_y)  # an undersized key is never fitted
        preds = np.repeat(mean_y, counts, axis=0)
        fit = np.flatnonzero(counts >= max(self.min_count, p + 2))
        if fit.size:
            rows = [slice(a, a + n) for a, n in zip(starts[fit].tolist(), counts[fit].tolist())]
            gram = np.empty((fit.size, k, p + 1, p + 1))
            for j, (b, r) in enumerate(zip(fit, rows)):
                seg = block[r]
                seg -= means[b]
                np.matmul(seg.transpose(1, 2, 0), seg.transpose(1, 0, 2), out=gram[j])
            rhs = gram[:, :, 1:, :1]
            lhs = gram[:, :, 1:, 1:]
            scale = np.maximum(np.trace(lhs, axis1=2, axis2=3) / p, 1e-30)
            lhs += (_RIDGE * scale)[:, :, None, None] * np.eye(p)
            try:
                beta = np.linalg.solve(lhs, rhs)[..., 0]
            except np.linalg.LinAlgError:
                # keep the bucket means of every fitted bucket
                self.rank_fallbacks += fit.size
            else:
                for j, r in enumerate(rows):
                    preds[r] += np.einsum("nkp,kp->nk", block[r, :, 1:], beta[j])
        out = np.empty_like(preds)
        out[order] = preds
        return out
