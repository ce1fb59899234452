"""The candidate discretized equilibrium price.

A DiscretePrice holds one table per interval: row k of `tables[i]` is the m+1
values on interval i's sub-time grid for the key whose lattice codes are row
k of `codes[i]` (prefix V_1..V_i, or the current state V_i in Markov mode;
empty at interval 0).  Code rows are unique and sorted as
TreeConditioner.key_codes gives them; a price built on a conditioner shares
its code arrays.  `values` is a read-only TreeKey -> row Mapping view of the
tables.  As a process the price is cadlag: on [t_i, t_{i+1}) it is interval
i's piece read along the realized key; sub-time m holds the left limit.

interval_matrix reads a key the price does not store (a fresh batch can
realize one) from the stored key at that interval with the nearest current
lattice state: of equally near states the lower, of keys sharing a state the
first in sorted order; it counts these lookups.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import TreeConditioner
from .tree import GridSpec, TreeKey


@dataclass
class PriceEnv:
    """Per-sample materialization of a DiscretePrice along a batch's keys."""

    cadlag: np.ndarray    # (count, n_fine), right-continuous
    left_end: np.ndarray  # (count, n_intervals), left limits at interval ends
    missing_keys: int = 0


@dataclass(frozen=True)
class DiscretePrice:
    spec: GridSpec
    mode: str
    codes: list   # interval -> (n_keys, prefix length) int, sorted unique rows
    tables: list  # interval -> (n_keys, m+1) values, rows aligned with codes

    @classmethod
    def from_tables(cls, conditioner: TreeConditioner, tables) -> DiscretePrice:
        """A price on the conditioner's keys, one table per interval."""
        codes = [conditioner.key_codes(i) for i in range(conditioner.spec.n_intervals)]
        return cls(spec=conditioner.spec, mode=conditioner.mode, codes=codes, tables=list(tables))

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
    """Per-sample price paths on the fine grid (cadlag) plus interval left limits."""
    spec = price.spec
    count = conditioner.count
    m = spec.m
    cad = np.empty((count, spec.n_fine))
    left = np.empty((count, spec.n_intervals))
    missing = 0
    for i in range(spec.n_intervals):
        mat, miss = interval_matrix(price, conditioner, i)
        missing += miss
        rows = mat[conditioner.inverse(i)]
        cad[:, i * m:(i + 1) * m] = rows[:, :m]
        left[:, i] = rows[:, m]
    cad[:, -1] = left[:, -1]
    return PriceEnv(cadlag=cad, left_end=left, missing_keys=missing)


def _require_same_keys(a: DiscretePrice, b: DiscretePrice, what: str) -> None:
    if a.spec != b.spec or a.mode != b.mode:
        raise ValueError(f"{what} requires matching grid spec and key mode")
    if not all(ca is cb or np.array_equal(ca, cb) for ca, cb in zip(a.codes, b.codes)):
        raise ValueError(f"{what} requires matching key sets")


def price_metric(a: DiscretePrice, b: DiscretePrice) -> float:
    """Max over intervals, keys and sub-times of the absolute difference."""
    _require_same_keys(a, b, "price metric")
    return max(float(np.max(np.abs(ta - tb), initial=0.0)) for ta, tb in zip(a.tables, b.tables))


def blend(a: DiscretePrice, b: DiscretePrice, weight_b: float) -> DiscretePrice:
    """(1-w)*a + w*b, table by table."""
    _require_same_keys(a, b, "blend")
    return replace(a, tables=[(1.0 - weight_b) * ta + weight_b * tb
                              for ta, tb in zip(a.tables, b.tables)])


def price_to_csv(path, price: DiscretePrice) -> None:
    """CSV rows (interval, key, sub_time, price); key holds lattice values joined by '|'."""
    spec = price.spec
    step = 2.0 ** (-spec.l)
    bound = 2.0 ** spec.l
    dt = spec.interval_length / spec.m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval,key,sub_time,price\n")
        for i, (codes, table) in enumerate(zip(price.codes, price.tables)):
            t0 = i * spec.interval_length
            for prefix, vals in zip(codes.tolist(), table):
                label = "|".join(f"{-bound + idx * step:.17g}" for idx in prefix) or "root"
                for s in range(spec.m + 1):
                    fh.write(f"{i},{label},{t0 + s * dt:.17g},{vals[s]:.17g}\n")
