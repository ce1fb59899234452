"""Dyadic-time / lattice-space discretization of the common Brownian motion.

The common noise is observed at dyadic times t_i = i*T/2^n and projected onto
a bounded lattice with step 2^-l and bound 2^l.  This module holds the grid
geometry, the projections, the exact one-step transition kernel (from
math.erfc) and the tree key (the full projected prefix, or just the current
lattice state in Markov mode).  Partitioning samples by key is done once per
batch, by conditioning.TreeConditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

FULL_PREFIX = "prefix"
MARKOV = "markov"


@dataclass(frozen=True)
class GridSpec:
    """Discretization geometry: 2^n time intervals, lattice resolution l,
    m sub-steps per interval, horizon T."""

    n: int
    l: int
    m: int
    T: float

    def __post_init__(self):
        if self.n < 1 or self.l < 0 or self.m < 1 or not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"invalid GridSpec (n={self.n}, l={self.l}, m={self.m}, T={self.T})")

    @property
    def n_intervals(self) -> int:
        return 2 ** self.n

    @property
    def n_nodes(self) -> int:
        return 2 ** self.n - 1

    @property
    def interval_length(self) -> float:
        return self.T / self.n_intervals

    @property
    def n_fine(self) -> int:
        """Number of fine grid points, 2^n*m + 1."""
        return self.n_intervals * self.m + 1

    @property
    def dt_fine(self) -> float:
        return self.T / (self.n_intervals * self.m)

    def fine_times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_fine)

    def interval_times(self) -> np.ndarray:
        """Interval endpoints t_0..t_{2^n}."""
        return np.arange(self.n_intervals + 1) * self.interval_length

    def node_fine_indices(self) -> np.ndarray:
        """Fine-grid indices of the interior dyadic times t_1..t_{2^n-1}."""
        return np.arange(1, self.n_intervals) * self.m


@dataclass(frozen=True)
class Lattice:
    """The bounded grid supporting the projected common noise."""

    l: int
    step: float = field(init=False)
    bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "step", 2.0 ** (-self.l))
        object.__setattr__(self, "bound", 2.0 ** self.l)

    @property
    def size(self) -> int:
        return 2 ** (2 * self.l + 1) + 1

    def points(self) -> np.ndarray:
        return -self.bound + self.step * np.arange(self.size)

    def index_of(self, values: np.ndarray) -> np.ndarray:
        """Exact lattice index of on-lattice values."""
        values = np.asarray(values)
        idx = np.rint((values + self.bound) / self.step).astype(np.int64)
        if np.any((idx < 0) | (idx >= self.size)):
            raise ModelError("value outside lattice", point=values)
        back = -self.bound + self.step * idx
        if not np.allclose(back, values, rtol=0.0, atol=1e-12):
            raise ModelError("off-lattice value in node path", point=values)
        return idx

    def value_of(self, idx: np.ndarray) -> np.ndarray:
        return -self.bound + self.step * np.asarray(idx)


@dataclass(frozen=True)
class TreeKey:
    """Conditioning key: interval index plus projected prefix (lattice indices).

    In full-prefix mode the prefix holds all of V_1..V_i; in Markov mode only
    the current state V_i (empty at interval 0 in both modes).
    """

    mode: str
    interval: int
    prefix: tuple

    def __post_init__(self):
        if self.mode not in (FULL_PREFIX, MARKOV):
            raise ValueError(f"unknown key mode {self.mode!r}")
        if self.mode == FULL_PREFIX and len(self.prefix) != self.interval:
            raise ValueError("full-prefix key length must equal the interval index")
        if self.mode == MARKOV and self.interval > 0 and len(self.prefix) != 1:
            raise ValueError("markov key carries exactly the current state")


def project_scalar(x, l: int):
    """Project onto the lattice: 2^-l * floor(x*2^l), truncated at +-2^l."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to lattice projection")
    if l < 0:
        raise ValueError("resolution l must be >= 0")
    step = 2.0 ** (-l)
    bound = 2.0 ** l
    inner = step * np.floor(x / step)
    out = np.where(np.abs(x) <= bound, inner, bound * np.sign(x))
    return out if out.ndim else float(out)


def project_path(xs, l: int):
    """Recursive path projection: y1 = P(x1), y_{k+1} = P(y_k + x_{k+1} - x_k).

    Accepts a vector (length j) or a matrix of paths (samples x j); projects
    along the last axis.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty path")
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite entries in path")
    xs2 = np.atleast_2d(xs)
    ys = np.empty_like(xs2)
    ys[:, 0] = project_scalar(xs2[:, 0], l)
    for k in range(1, xs2.shape[1]):
        ys[:, k] = project_scalar(ys[:, k - 1] + xs2[:, k] - xs2[:, k - 1], l)
    return ys if xs.ndim == 2 else ys[0]


@dataclass(frozen=True)
class TransitionKernel:
    """Law of one projected Brownian increment over a time step T/2^n.

    Entry (v -> w) integrates the Gaussian increment over the half-open floor
    cell [w, w+2^-l); the boundary states absorb the truncation tails
    ((-inf, -2^l + 2^-l) at the bottom, [2^l, inf) at the top).
    """

    lattice: Lattice
    sigma: float
    matrix: np.ndarray

    def row(self, v: float) -> np.ndarray:
        return self.matrix[self.lattice.index_of(np.asarray([v]))[0]]


def kernel_row(v, lattice: Lattice, sigma: float) -> np.ndarray:
    """Kernel rows from the states v: one math.erfc per distinct standardized
    cell edge (edge - v)/sigma, of which lattice states have only ~2*size."""
    edges = lattice.value_of(np.arange(lattice.size + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    v = np.atleast_1d(np.asarray(v, dtype=float))[:, None]
    z, where = np.unique((edges[None, :] - v) / sigma, return_inverse=True)
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])[where.reshape(v.size, -1)]
    rows = np.diff(cdf, axis=1)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows[0] if rows.shape[0] == 1 else rows


def transition_matrix(spec: GridSpec) -> TransitionKernel:
    """Exact one-interval transition kernel on the lattice of spec."""
    lattice = Lattice(spec.l)
    if lattice.size > 4097:
        raise ModelError(f"lattice too large to materialize ({lattice.size} points); use kernel_row")
    sigma = np.sqrt(spec.interval_length)
    mat = kernel_row(lattice.points(), lattice, sigma)
    return TransitionKernel(lattice=lattice, sigma=sigma, matrix=mat)
