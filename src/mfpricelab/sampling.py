"""Reproducible sampling of all driving randomness.

Every stream is drawn from a counter-based Philox generator keyed by
(base seed, stream tag); within a stream, sample i owns the counter block
[i*steps, (i+1)*steps).  Streams are drawn on the finest grid when first
read: the common noise when the batch is made, the informed factor (read by
agents with reads_factor only) and the idiosyncratic paths (never read by
affine populations) the first time something reads them.  A stream drawn late
is the same stream, bit for bit, so results depend only on (seed, tag,
sample), not on thread count or call order.  No stream is drawn for the
initial states: every batch starts at 0.  The late paths belong to the batch's
b (see ScenarioBatch), and its count, fine grid and node path (the tree
discretization of b) follow from b and the grid.  Coarser dyadic levels are
the same batch on a coarser grid, so their node paths project the same
Brownian paths (coupled coarsening).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .tree import GridSpec, project_path

CORRELATED_BM = "correlated-bm"
SECTION6 = "section6"

# stream tags (stable across versions; order must never change); xi_I and
# xi_S stay reserved, though no stream is drawn for the initial states
_STREAMS = {"b": 1, "c_perp": 2, "w_I": 3, "w_S": 4, "xi_I": 5, "xi_S": 6}


@dataclass(frozen=True)
class InformedFactorSpec:
    """Law of the informed factor C.

    correlated-bm: C = rho*B + sqrt(1-rho^2)*B_perp (default convention).
    section6:      C = rho^2*B + sqrt(1-rho^2)*B_perp (the paper's displayed
                   form; unusual, selectable for fidelity).
    """

    kind: str = CORRELATED_BM
    rho: float = 0.5

    def __post_init__(self):
        if self.kind not in (CORRELATED_BM, SECTION6):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if not abs(self.rho) <= 1.0:
            raise ValueError(f"|rho| must be <= 1, got {self.rho}")


class _LatePaths:
    """The paths of a batch drawn when first read (c, w_I, w_S), held for the
    common noise `b` they belong to: each is an array, or the function that
    draws it when first read (then kept, read-only)."""

    def __init__(self, b: np.ndarray, paths: dict):
        self.b, self.paths = b, paths

    def get(self, name: str) -> np.ndarray:
        path = self.paths[name]
        if callable(path):
            path = self.paths[name] = path()
            path.setflags(write=False)
        return path


_LATE = ("c", "w_I", "w_S")


@dataclass(frozen=True, init=False)
class ScenarioBatch:
    """An immutable batch of sampled paths on the fine grid.

    b, c, w_I, w_S have shape (count, n_fine); xi_* have shape (count,).
    count (b's rows), fine_grid (spec.fine_times()) and node_path (b projected
    on spec's tree at the interior dyadic times, made on first read and kept,
    read-only) follow from b and spec, so no replace can leave them stale.
    c, w_I and w_S are the late paths: each is given as an array or as the
    function that draws it when first read, and late_paths holds them for b.
    A dataclasses.replace that keeps b shares late_paths, so it neither forces
    a draw nor drops one already made (a late path it gives replaces that one
    in a copy); a batch with a new b must give all three.
    """

    spec: GridSpec
    b: np.ndarray
    xi_I: np.ndarray
    xi_S: np.ndarray
    late_paths: _LatePaths

    def __init__(self, *, spec: GridSpec, b: np.ndarray, xi_I: np.ndarray, xi_S: np.ndarray,
                 c=None, w_I=None, w_S=None, late_paths=None):
        given = {name: path for name, path in zip(_LATE, (c, w_I, w_S)) if path is not None}
        if late_paths is None or late_paths.b is not b:
            missing = [name for name in _LATE if name not in given]
            if missing:
                raise ValueError(f"a batch with new common noise b must give its late paths; "
                                 f"missing: {', '.join(missing)}")
            late_paths = _LatePaths(b, given)
        elif given:
            late_paths = _LatePaths(b, {**late_paths.paths, **given})
        values = dict(spec=spec, b=b, xi_I=xi_I, xi_S=xi_S, late_paths=late_paths)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @cached_property
    def node_path(self) -> np.ndarray:
        node = project_path(self.b[:, self.spec.node_fine_indices()], self.spec.l)
        node.setflags(write=False)
        return node

    count = property(lambda self: self.b.shape[0])
    fine_grid = property(lambda self: self.spec.fine_times())
    c = property(lambda self: self.late_paths.get("c"))
    w_I = property(lambda self: self.late_paths.get("w_I"))
    w_S = property(lambda self: self.late_paths.get("w_S"))

    def idiosyncratic(self, population: str) -> tuple[np.ndarray, np.ndarray]:
        if population == "I":
            return self.xi_I, self.w_I
        if population == "S":
            return self.xi_S, self.w_S
        raise ValueError(f"unknown population {population!r}")


def _stream_rng(seed: int, tag: str, extra: tuple = ()) -> np.random.Generator:
    if tag not in _STREAMS:
        raise ValueError(f"unknown stream tag {tag!r} (known: {sorted(_STREAMS)})")
    ss = np.random.SeedSequence((int(seed), _STREAMS[tag]) + tuple(extra))
    return np.random.Generator(np.random.Philox(ss))


def _brownian(rng: np.random.Generator, count: int, times: np.ndarray) -> np.ndarray:
    dt = np.diff(times)
    incr = rng.standard_normal((count, dt.size))
    incr *= np.sqrt(dt)[None, :]
    out = np.empty((count, times.size))
    out[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


def informed_factor_path(factor: InformedFactorSpec, b: np.ndarray,
                         b_perp: np.ndarray) -> np.ndarray:
    loading = factor.rho if factor.kind == CORRELATED_BM else factor.rho ** 2
    return loading * b + np.sqrt(1.0 - factor.rho ** 2) * b_perp


def sample_batch(spec: GridSpec, model_seed: int, count: int,
                 factor: InformedFactorSpec = InformedFactorSpec()) -> ScenarioBatch:
    """Draw a reproducible batch: the common noise, and every initial state at
    0.  The informed factor and the idiosyncratic noises are drawn when first
    read (see ScenarioBatch)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    times = spec.fine_times()
    b = _brownian(_stream_rng(model_seed, "b"), count, times)
    xi = np.zeros(count)
    for arr in (b, xi):
        arr.setflags(write=False)

    def brownian(tag):
        return lambda: _brownian(_stream_rng(model_seed, tag), count, times)

    return ScenarioBatch(spec=spec, b=b, xi_I=xi, xi_S=xi,
                         w_I=brownian("w_I"), w_S=brownian("w_S"),
                         c=lambda: informed_factor_path(factor, b, brownian("c_perp")()))


def idiosyncratic_copies(spec: GridSpec, seed: int, n_scenarios: int, n_agents: int,
                         population: str) -> tuple[np.ndarray, np.ndarray]:
    """Fresh i.i.d. (xi, W) streams for a finite market of n_agents per scenario,
    every initial state at 0, as in sample_batch.

    Returns xi with shape (n_scenarios*n_agents,) and w with shape
    (n_scenarios*n_agents, n_fine); rows are grouped scenario-major.
    """
    tag = "w_I" if population == "I" else "w_S"
    rows = n_scenarios * n_agents
    w = _brownian(_stream_rng(seed, tag, extra=(9,)), rows, spec.fine_times())
    return np.zeros(rows), w


def discretize_at_level(batch: ScenarioBatch, n_prime: int,
                        l_prime: Optional[int] = None) -> ScenarioBatch:
    """The batch at the coarser dyadic level n' and lattice resolution l'
    (the batch's by default).

    The fine grid of the batch must refine the level-n' dyadic grid.  The
    level's batch shares b and the late paths, and its spec keeps the batch's
    fine grid, so its node_path projects the same Brownian paths.
    """
    spec = batch.spec
    if n_prime < 1 or n_prime > spec.n:
        raise ValueError(f"level n'={n_prime} incompatible with batch depth n={spec.n}")
    if l_prime is None:
        l_prime = spec.l
    stride = 2 ** (spec.n - n_prime)
    return replace(batch, spec=GridSpec(n=n_prime, l=l_prime, m=spec.m * stride, T=spec.T))
