"""Empirical conditional expectations on the noise tree.

A TreeConditioner is the one partition of a batch by tree key (full prefix
or Markov key): it precomputes, per interval, the bucket id of every sample
and the keys' lattice codes, one sorted row per key (keys() builds TreeKeys).
Conditional expectations are bucket means (bucket_stats); undersized buckets
(below min_count) fall back to a kernel-weighted average over the keys at the
same interval, weighted by bucket count and the Gaussian one-step transition
density in the current lattice state.  Within-bucket refinement by a
continuous state (e.g. (X_t, B_t, C_t)) is ridge-stabilized least squares on
a total-degree-2 polynomial basis, solved for all buckets at once through
segment-summed normal equations (regress_slab); its undersized buckets get
the same pooled means.
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

    def _segment_sums(self, interval: int, values: np.ndarray) -> np.ndarray:
        """Per-bucket column sums via reduceat on the sorted sample order."""
        return np.add.reduceat(values[self._order[interval]], self._starts[interval], axis=0)

    def _column_means(self, interval: int, values: np.ndarray):
        counts = self._counts[interval]
        vals = values if values.ndim == 2 else values[:, None]
        sums = self._segment_sums(interval, vals)
        sq = self._segment_sums(interval, vals ** 2)
        mean = sums / counts[:, None]
        var = np.maximum(sq / counts[:, None] - mean ** 2, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(var / np.maximum(counts[:, None] - 1, 0))
        se[counts < 2] = np.inf
        return mean, se

    def _pooled_means(self, interval: int, mean: np.ndarray) -> np.ndarray:
        """Means of the undersized keys at one interval, pooled over all keys.

        Written as own mean plus weighted deltas, so pooling a field of
        identical values is exact (no weight-normalization rounding).
        """
        small, w = self._pool_w[interval]
        pooled = np.empty((small.size, mean.shape[1]))
        for j, k in enumerate(small):
            pooled[j] = mean[k] + w[j] @ (mean - mean[k])
        return pooled

    def bucket_stats(self, interval: int, values: np.ndarray) -> BucketStats:
        """Bucket means with standard errors; undersized keys pooled."""
        mean, se = self._column_means(interval, np.asarray(values, dtype=float))
        counts = self._counts[interval]
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

        `state` has shape (count, k, d): the regression state per column.
        Predictions equal the bucket mean plus the fitted centered-basis
        component, so they average back to the bucket mean exactly.  Buckets
        too small to support the basis use the plain mean; near-singular
        normal equations are ridge-stabilized and counted in rank_fallbacks.
        """
        values = np.asarray(values, dtype=float)
        count, k = values.shape
        basis = _poly_basis_slab(np.asarray(state, dtype=float), degree)
        p = basis.shape[2]
        inv = self._inverse[interval]
        counts = self._counts[interval]
        nk = counts.size
        mean_y, _ = self._column_means(interval, values)
        mean_b = self._segment_sums(interval, basis.reshape(count, k * p)).reshape(nk, k, p)
        mean_b /= counts[:, None, None]
        cb = basis - mean_b[inv]
        cy = values - mean_y[inv]
        beta = np.zeros((nk, k, p))
        fit = counts >= max(self.min_count, p + 2)
        chunk = max(1, int(4e7 // (count * p * p)))
        for c0 in range(0, k, chunk):
            c1 = min(c0 + chunk, k)
            kk = c1 - c0
            outer = np.einsum("nki,nkj->nkij", cb[:, c0:c1], cb[:, c0:c1])
            gram = self._segment_sums(interval, outer.reshape(count, kk * p * p)).reshape(nk, kk, p, p)
            rhs = self._segment_sums(interval, (cb[:, c0:c1] * cy[:, c0:c1, None]).reshape(count, kk * p)).reshape(nk, kk, p)
            scale = np.maximum(np.trace(gram, axis1=2, axis2=3) / p, 1e-30)
            gram = gram + (_RIDGE * scale)[:, :, None, None] * np.eye(p)[None, None, :, :]
            if np.any(fit):
                try:
                    beta[fit, c0:c1] = np.linalg.solve(gram[fit], rhs[fit][..., None])[..., 0]
                except np.linalg.LinAlgError:
                    # reduced-basis fallback: keep the bucket means (beta = 0)
                    self.rank_fallbacks += int(np.sum(fit))
        preds = mean_y[inv] + np.einsum("nkp,nkp->nk", cb, beta[inv])
        small, _ = self._pool_w[interval]
        if small.size:
            pooled = self._pooled_means(interval, mean_y)
            pool_rows = np.isin(inv, small)
            preds[pool_rows] = pooled[np.searchsorted(small, inv[pool_rows])]
        return preds


def _poly_basis_slab(state: np.ndarray, degree: int) -> np.ndarray:
    """Total-degree polynomial basis without the constant term (handled by
    centering): terms x_i, then x_i*x_j for i<=j when degree >= 2.
    state has shape (count, k, d); returns (count, k, p)."""
    d = state.shape[2]
    cols = [state[:, :, a] for a in range(d)]
    out = list(cols)
    if degree >= 2:
        for a in range(d):
            for b in range(a, d):
                out.append(cols[a] * cols[b])
    return np.stack(out, axis=2)

