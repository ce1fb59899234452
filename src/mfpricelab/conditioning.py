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
density in the current lattice state.  bucket_stats adds standard errors to
the pooled means, for the price map, diagnostics and checks that read them.
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
        self._pool_w: list = []
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
            # pooling weights for undersized keys: counts * gaussian(state dist)
            small = counts < self.min_count
            if np.any(small) and n_keys > 1:
                states = self.lattice.value_of(uniq[:, -1])
                dist = states[small][:, None] - states[None, :]
                w = counts[None, :] * np.exp(-0.5 * (dist / sd) ** 2)
                w /= w.sum(axis=1, keepdims=True)
                self._pool_w.append((np.flatnonzero(small), w))
            else:
                self._pool_w.append((np.zeros(0, dtype=np.int64), None))

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
        return int(sum(len(small) for small, _ in self._pool_w))

    def n_lone_small_keys(self) -> int:
        """Undersized keys alone at their interval: nothing to pool them with."""
        return sum(int(c.size == 1 and c[0] < self.min_count) for c in self._counts)

    def _pooled_means(self, interval: int, mean: np.ndarray) -> np.ndarray:
        """Means of the undersized keys at one interval, pooled over all keys.

        Written as own mean plus weighted deltas, so pooling a field of
        identical values is exact (no weight-normalization rounding).  One
        column at a time, so the deltas take no more memory than the weights.
        """
        small, w = self._pool_w[interval]
        own = mean[small]
        pooled = np.empty_like(own)
        for c in range(mean.shape[1]):
            pooled[:, c] = own[:, c] + np.einsum("sj,sj->s", w, mean[None, :, c] - own[:, c, None])
        return pooled

    def bucket_stats(self, interval: int, values: np.ndarray) -> BucketStats:
        """Bucket means with standard errors (one gather in bucket order); undersized keys pooled."""
        values = np.asarray(values, dtype=float)
        counts = self._counts[interval]
        starts = self._starts[interval]
        gathered = (values if values.ndim == 2 else values[:, None])[self._order[interval]]
        mean = np.add.reduceat(gathered, starts, axis=0) / counts[:, None]
        sq = np.add.reduceat(np.square(gathered, out=gathered), starts, axis=0)
        var = np.maximum(sq / counts[:, None] - mean ** 2, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(var / np.maximum(counts[:, None] - 1, 0))
        se[counts < 2] = np.inf
        fallback = np.zeros(counts.size, dtype=bool)
        small, w = self._pool_w[interval]
        if small.size:
            fallback[small] = True
            finite_se = np.where(np.isfinite(se), se, 0.0)
            pooled_se = np.sqrt((w ** 2) @ (finite_se ** 2))
            mean[small] = self._pooled_means(interval, mean)
            se[small] = pooled_se
        return BucketStats(counts=counts, mean=mean, se=se, fallback=fallback)

    def regress_slab(self, interval: int, state: np.ndarray, values: np.ndarray,
                     degree: int = 2) -> np.ndarray:
        """Within-bucket least squares, one fit per (bucket, value column).

        `state` has shape (count, k, d): the regression state per column;
        with d = 0 no bucket is fitted and the result is the bucket mean.
        `[values | basis]` is written once, in bucket order, into one
        (count, k, 1+p) block, so every bucket is a contiguous slice and one
        reduceat gives all bucket means.  Each fitted bucket (count >=
        max(min_count, p+2)) is centred in place and its augmented Gram
        `[cy|cb]^T [cy|cb]` is one matmul batched over the k columns; the
        right-hand side is the Gram's first column.  All fitted buckets are
        solved in one batched call, with a ridge of 1e-9 * trace/p.
        Predictions equal the bucket mean plus the fitted centred-basis
        component, so they average back to the bucket mean exactly.  Buckets
        between min_count and p+2 use the plain mean, undersized buckets the
        pooled mean; if the batched solve fails, every fitted bucket keeps
        its mean and counts in rank_fallbacks.
        """
        order, starts, counts = self._order[interval], self._starts[interval], self._counts[interval]
        block = _design_block(np.asarray(values, dtype=float).take(order, axis=0),
                              np.asarray(state, dtype=float).take(order, axis=0), degree)
        k, p = block.shape[1], block.shape[2] - 1
        means = np.add.reduceat(block, starts, axis=0) / counts[:, None, None]
        mean_y = means[:, :, 0]
        small, _ = self._pool_w[interval]  # never a fitted bucket
        if small.size:
            mean_y[small] = self._pooled_means(interval, mean_y)
        preds = np.repeat(mean_y, counts, axis=0)
        fit = np.flatnonzero(counts >= max(self.min_count, p + 2)) if p else np.arange(0)
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


def _design_block(values: np.ndarray, state: np.ndarray, degree: int) -> np.ndarray:
    """[values | basis] per sample and column, shape (count, k, 1+p).

    The basis is the total-degree polynomial without the constant term
    (handled by centering): terms x_i, then x_i*x_j for i<=j when degree >= 2.
    `values` has shape (count, k) and `state` (count, k, d).
    """
    d = state.shape[2]
    pairs = [(a, b) for a in range(d) for b in range(a, d)] if degree >= 2 else []
    block = np.empty(values.shape + (1 + d + len(pairs),))
    block[:, :, 0] = values
    block[:, :, 1:1 + d] = state
    for c, (a, b) in enumerate(pairs, start=1 + d):
        np.multiply(state[:, :, a], state[:, :, b], out=block[:, :, c])
    return block
