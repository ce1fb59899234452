"""The candidate discretized equilibrium price.

A DiscretePrice holds one table per interval: row k of `tables[i]` is the m+1
values on interval i's sub-time grid for the key whose lattice codes are row
k of `codes[i]` (prefix V_1..V_i, or the current state V_i in Markov mode;
empty at interval 0).  Code rows are unique and sorted as
TreeConditioner.key_codes gives them; a price built on a conditioner shares
its code arrays and carries its pooled-key masks (`pooled[i]`, True where
the value is a kernel-pooled estimate).  `values` is a read-only TreeKey ->
row Mapping view of the tables.  As a process the price is cadlag: on
[t_i, t_{i+1}) it is interval i's piece read along the realized key;
sub-time m holds the left limit.

Per-sample paths come in two layouts.  A cadlag field (the materialized
price, an adjoint, a control) is a (count, n_intervals, m+1) slab whose
[:, i] is interval i's piece, sub-time m its left limit at t_{i+1}: the
tables' own layout read along each sample's key.  A continuous path (noise,
state, a backward integral) is a (count, n_fine) fine-grid array, read per
interval through interval_view, which copies nothing.  fine_path turns a
slab into its fine-grid cadlag path (each interval's sub-times 0..m-1, then
the left limit at T).

interval_matrix reads a key the price does not store (a fresh batch can
realize one) from the stored key at that interval with the nearest current
lattice state: of equally near states the lower, of keys sharing a state the
first in sorted order; it counts these lookups.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conditioning import TreeConditioner
from .tree import GridSpec, TreeKey


@dataclass
class PriceEnv:
    """Per-sample materialization of a DiscretePrice along a batch's keys."""

    path: np.ndarray  # (count, n_intervals, m+1) cadlag slab
    missing_keys: int = 0


@dataclass(frozen=True)
class DiscretePrice:
    spec: GridSpec
    mode: str
    codes: list   # interval -> (n_keys, prefix length) int, sorted unique rows
    tables: list  # interval -> (n_keys, m+1) values, rows aligned with codes
    pooled: list  # interval -> bool per key, True where the conditioner pooled the key

    @classmethod
    def from_tables(cls, conditioner: TreeConditioner, tables) -> DiscretePrice:
        """A price on the conditioner's keys, one table per interval."""
        intervals = range(conditioner.spec.n_intervals)
        return cls(spec=conditioner.spec, mode=conditioner.mode,
                   codes=[conditioner.key_codes(i) for i in intervals], tables=list(tables),
                   pooled=[conditioner.pooled(i) for i in intervals])

    @property
    def values(self) -> PriceValues:
        return PriceValues(self)

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(t), initial=0.0)) for t in self.tables)


@dataclass(frozen=True, eq=False)
class PriceValues(Mapping):
    """Read-only TreeKey -> (m+1,) view of a price's tables, in table order."""

    price: DiscretePrice

    def __getitem__(self, key: TreeKey) -> np.ndarray:
        p, i = self.price, key.interval
        if key.mode == p.mode and 0 <= i < len(p.codes) and p.codes[i].shape[1] == len(key.prefix):
            hit = np.flatnonzero(np.all(p.codes[i] == key.prefix, axis=1))
            if hit.size:
                return p.tables[i][hit[0]]
        raise KeyError(key)

    def __iter__(self):
        for i, codes in enumerate(self.price.codes):
            for row in codes.tolist():
                yield TreeKey(self.price.mode, i, tuple(row))

    def __len__(self) -> int:
        return sum(len(c) for c in self.price.codes)


def zero_price(spec: GridSpec, conditioner: TreeConditioner) -> DiscretePrice:
    return constant_price(spec, conditioner, 0.0)


def constant_price(spec: GridSpec, conditioner: TreeConditioner, level: float) -> DiscretePrice:
    return DiscretePrice.from_tables(conditioner, [
        np.full((len(conditioner.key_codes(i)), spec.m + 1), float(level))
        for i in range(spec.n_intervals)])


def key_rows(price: DiscretePrice, conditioner: TreeConditioner, interval: int) -> np.ndarray:
    """Row of the price's table for each of the conditioner's keys at one
    interval; -1 where the price stores no such key."""
    have = price.codes[interval]
    both = np.concatenate([have, conditioner.key_codes(interval)])
    _, ids = np.unique(both, axis=0, return_inverse=True)
    slot = np.full(len(both), -1)
    slot[ids[:len(have)]] = np.arange(len(have))
    return slot[ids[len(have):]]


def interval_matrix(price: DiscretePrice, conditioner: TreeConditioner, interval: int):
    """Value matrix aligned with the conditioner's keys at one interval, and
    the number of keys looked up by nearest state (see the module docstring).

    When the price and the conditioner share their keys the stored table is
    returned as it is, not copied.
    """
    if price.spec != conditioner.spec:
        raise ValueError(f"price on grid {price.spec} read on a conditioner on grid {conditioner.spec}")
    if price.mode != conditioner.mode:
        raise ValueError("price and conditioner use different key modes")
    have = price.codes[interval]
    want = conditioner.key_codes(interval)
    if have is want or np.array_equal(have, want):
        return price.tables[interval], 0
    if not len(have):
        raise KeyError(f"price has no values at interval {interval}")
    rows = key_rows(price, conditioner, interval)
    lost = np.flatnonzero(rows < 0)
    if lost.size:
        states = have[:, -1]
        order = np.argsort(states, kind="stable")
        rows[lost] = order[np.argmin(np.abs(states[order] - want[lost, -1:]), axis=1)]
    return price.tables[interval][rows], int(lost.size)


def materialize(price: DiscretePrice, conditioner: TreeConditioner) -> PriceEnv:
    """Per-sample price slab: path[:, i] is tables[i] read along each sample's key."""
    spec = price.spec
    path = np.empty((conditioner.count, spec.n_intervals, spec.m + 1))
    missing = 0
    for i in range(spec.n_intervals):
        mat, miss = interval_matrix(price, conditioner, i)
        missing += miss
        path[:, i] = mat[conditioner.inverse(i)]
    return PriceEnv(path=path, missing_keys=missing)


def interval_view(path: np.ndarray, m: int) -> np.ndarray:
    """(count, n_intervals, m+1, ...) view of a continuous fine-grid path
    (count, n_fine, ...): interval i's sub-times, both ends included."""
    return np.moveaxis(sliding_window_view(path, m + 1, axis=1), -1, 2)[:, ::m]


def fine_path(slab: np.ndarray) -> np.ndarray:
    """The fine-grid cadlag path (count, n_fine) of a slab: every interval's
    sub-times 0..m-1, then the last interval's left limit at T."""
    count, n_int, m1 = slab.shape
    out = np.empty((count, n_int * (m1 - 1) + 1))
    out[:, :-1].reshape(count, n_int, m1 - 1)[...] = slab[:, :, :-1]
    out[:, -1] = slab[:, -1, -1]
    return out


def _sup_fine(pieces, start_index: int = 0) -> float:
    """max|field| over the fine-grid points of a cadlag field from fine index
    `start_index` on, given per interval as (rows, m+1) pieces: a slab's
    [:, i] (pass np.moveaxis(slab, 1, 0)) or key tables, which hold the same
    values as the slab gathered from them, since every key holds a sample.
    Reads the pieces' sub-times 0..m-1 from start_index on, then the last
    piece's left limit at T, in place: no fine_path copy, and the same float
    as np.max(np.abs(fine_path(slab)[:, start_index:])).  The abs turns the
    -0.0 of an all-zero field into 0.0."""
    first, s0 = divmod(start_index, pieces[0].shape[1] - 1)
    last = pieces[-1][:, -1]
    ext = [last.max(), -last.min()]
    for i in range(first, len(pieces)):
        inner = pieces[i][:, s0 if i == first else 0:-1]
        ext += [inner.max(), -inner.min()]
    return abs(float(np.max(ext)))


def _require_same_keys(a: DiscretePrice, b: DiscretePrice, what: str) -> None:
    if a.spec != b.spec or a.mode != b.mode:
        raise ValueError(f"{what} requires matching grid spec and key mode")
    if not all(ca is cb or np.array_equal(ca, cb) for ca, cb in zip(a.codes, b.codes)):
        raise ValueError(f"{what} requires matching key sets")


def price_metric(a: DiscretePrice, b: DiscretePrice) -> float:
    """Max over intervals, keys and sub-times of the absolute difference."""
    _require_same_keys(a, b, "price metric")
    return max(float(np.max(np.abs(ta - tb), initial=0.0)) for ta, tb in zip(a.tables, b.tables))


def key_label(spec: GridSpec, prefix) -> str:
    """The CSV label of a key: its lattice values joined by '|', or 'root'."""
    step = 2.0 ** (-spec.l)
    bound = 2.0 ** spec.l
    return "|".join(f"{-bound + idx * step:.17g}" for idx in prefix) or "root"


def price_to_csv(path, price: DiscretePrice) -> None:
    """CSV rows (interval, key, sub_time, price); key is the key_label."""
    spec = price.spec
    dt = spec.interval_length / spec.m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval,key,sub_time,price\n")
        for i, (codes, table) in enumerate(zip(price.codes, price.tables)):
            t0 = i * spec.interval_length
            for prefix, vals in zip(codes.tolist(), table):
                label = key_label(spec, prefix)
                for s in range(spec.m + 1):
                    fh.write(f"{i},{label},{t0 + s * dt:.17g},{vals[s]:.17g}\n")
