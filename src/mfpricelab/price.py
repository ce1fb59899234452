"""The candidate discretized equilibrium price.

A DiscretePrice maps each tree key to the m+1 price values on the sub-time
grid of its interval.  As a process it is cadlag: on [t_i, t_{i+1}) the price
is interval i's piece read along the realized key; the stored sub-time m
value is the left limit at t_{i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    values: dict  # TreeKey -> np.ndarray(m+1)

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.values.values())

    def keys_at(self, interval: int) -> list[TreeKey]:
        return [k for k in self.values if k.interval == interval]


def zero_price(spec: GridSpec, conditioner: TreeConditioner) -> DiscretePrice:
    return constant_price(spec, conditioner, 0.0)


def constant_price(spec: GridSpec, conditioner: TreeConditioner, level: float) -> DiscretePrice:
    values = {}
    for i in range(spec.n_intervals):
        for key in conditioner.keys(i):
            values[key] = np.full(spec.m + 1, float(level))
    return DiscretePrice(spec=spec, mode=conditioner.mode, values=values)


def interval_matrix(price: DiscretePrice, conditioner: TreeConditioner, interval: int):
    """Value matrix aligned with the conditioner's keys at one interval.

    Keys absent from the price (fresh batches can realize unseen prefixes)
    fall back to the stored key at the same interval whose current lattice
    state is nearest (deterministic tie-break); the number of such lookups is
    returned.
    """
    keys = conditioner.keys(interval)
    m = price.spec.m
    mat = np.empty((len(keys), m + 1))
    stored = price.keys_at(interval)
    missing = 0
    by_key = price.values
    stored_states = np.array([k.prefix[-1] if k.prefix else 0 for k in stored], dtype=float)
    order = np.argsort(stored_states, kind="stable")
    for j, key in enumerate(keys):
        v = by_key.get(key)
        if v is None:
            if not stored:
                raise KeyError(f"price has no values at interval {interval}")
            missing += 1
            state = key.prefix[-1] if key.prefix else 0
            pos = int(np.argmin(np.abs(stored_states[order] - state)))
            v = by_key[stored[order[pos]]]
        mat[j] = v
    return mat, missing


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


def price_metric(a: DiscretePrice, b: DiscretePrice) -> float:
    """Max over intervals, keys and sub-times of the absolute difference."""
    if a.spec != b.spec or a.mode != b.mode:
        raise ValueError("price metric requires matching grid spec and key mode")
    if set(a.values) != set(b.values):
        raise ValueError("price metric requires matching key sets")
    worst = 0.0
    for k, va in a.values.items():
        worst = max(worst, float(np.max(np.abs(va - b.values[k]))))
    return worst


def blend(a: DiscretePrice, b: DiscretePrice, weight_b: float) -> DiscretePrice:
    """(1-w)*a + w*b, key by key."""
    values = {k: (1.0 - weight_b) * a.values[k] + weight_b * b.values[k] for k in a.values}
    return DiscretePrice(spec=a.spec, mode=a.mode, values=values)


def price_to_csv(path, price: DiscretePrice) -> None:
    """CSV rows (interval, key, sub_time, price); key holds lattice values joined by '|'."""
    spec = price.spec
    step = 2.0 ** (-spec.l)
    bound = 2.0 ** spec.l
    dt = spec.interval_length / spec.m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval,key,sub_time,price\n")
        for key in sorted(price.values, key=lambda k: (k.interval, k.prefix)):
            vals = price.values[key]
            t0 = key.interval * spec.interval_length
            label = "|".join(f"{-bound + idx * step:.17g}" for idx in key.prefix) or "root"
            for s in range(spec.m + 1):
                fh.write(f"{key.interval},{label},{t0 + s * dt:.17g},{vals[s]:.17g}\n")
