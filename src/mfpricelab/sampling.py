"""Reproducible sampling of all driving randomness.

Every stream is drawn from a counter-based Philox generator keyed by
(base seed, stream tag); within a stream, sample i owns the counter block
[i*steps, (i+1)*steps).  Streams are drawn on the finest grid when first
read: the common noise and the initial states when the batch is made, the
informed factor (read by agents with reads_factor only) and the idiosyncratic
paths (never read by affine populations) the first time something reads them.
A stream drawn late is the same stream, bit for bit, so results depend only on
(seed, tag, sample), not on thread count or call order.  The late paths belong
to the batch's b (see ScenarioBatch), and its count and fine grid follow from
b and the grid.  Coarser dyadic levels are derived views of the same Brownian
paths (coupled coarsening).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PriceLabError
from .tree import GridSpec, project_path

CORRELATED_BM = "correlated-bm"
SECTION6 = "section6"

# stream tags (stable across versions; order must never change)
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
        if abs(self.rho) > 1.0:
            raise ValueError(f"|rho| must be <= 1, got {self.rho}")


@dataclass(frozen=True)
class InitialLaw:
    """Initial-state law: point mass by default, gaussian/uniform for testing."""

    kind: str = "point"
    loc: float = 0.0
    scale: float = 1.0

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(count, self.loc)
        if self.kind == "gaussian":
            return self.loc + self.scale * rng.standard_normal(count)
        if self.kind == "uniform":
            return self.loc + self.scale * (2.0 * rng.random(count) - 1.0)
        raise ValueError(f"unknown initial law {self.kind!r}")


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

    b, c, w_I, w_S have shape (count, n_fine); xi_* have shape (count,);
    node_path holds the projected values of b at the interior dyadic times.
    count (b's rows) and fine_grid (spec.fine_times()) follow from b and spec.
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
    node_path: np.ndarray
    seed: int
    late_paths: _LatePaths

    def __init__(self, *, spec: GridSpec, b: np.ndarray, xi_I: np.ndarray, xi_S: np.ndarray,
                 node_path: np.ndarray, seed: int, c=None, w_I=None, w_S=None, late_paths=None):
        given = {name: path for name, path in zip(_LATE, (c, w_I, w_S)) if path is not None}
        if late_paths is None or late_paths.b is not b:
            missing = [name for name in _LATE if name not in given]
            if missing:
                raise ValueError(f"a batch with new common noise b must give its late paths; "
                                 f"missing: {', '.join(missing)}")
            late_paths = _LatePaths(b, given)
        elif given:
            late_paths = _LatePaths(b, {**late_paths.paths, **given})
        values = dict(spec=spec, b=b, xi_I=xi_I, xi_S=xi_S, node_path=node_path, seed=seed,
                      late_paths=late_paths)
        for name, value in values.items():
            object.__setattr__(self, name, value)

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
                 factor: InformedFactorSpec = InformedFactorSpec(),
                 init_laws: Optional[dict] = None) -> ScenarioBatch:
    """Draw a reproducible batch: common noise and initial states, plus the
    tree node assignment of each sample.  The informed factor and the
    idiosyncratic noises are drawn when first read (see ScenarioBatch)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    init_laws = init_laws or {}
    law_I = init_laws.get("I", InitialLaw())
    law_S = init_laws.get("S", InitialLaw())
    times = spec.fine_times()

    b = _brownian(_stream_rng(model_seed, "b"), count, times)
    xi_I = law_I.sample(_stream_rng(model_seed, "xi_I"), count)
    xi_S = law_S.sample(_stream_rng(model_seed, "xi_S"), count)

    node = project_path(b[:, spec.node_fine_indices()], spec.l)
    for arr in (b, xi_I, xi_S, node):
        arr.setflags(write=False)

    def brownian(tag):
        return lambda: _brownian(_stream_rng(model_seed, tag), count, times)

    return ScenarioBatch(spec=spec, b=b, xi_I=xi_I, xi_S=xi_S, node_path=node,
                         seed=int(model_seed), w_I=brownian("w_I"), w_S=brownian("w_S"),
                         c=lambda: informed_factor_path(factor, b, brownian("c_perp")()))


def idiosyncratic_copies(spec: GridSpec, seed: int, n_scenarios: int, n_agents: int,
                         population: str) -> tuple[np.ndarray, np.ndarray]:
    """Fresh i.i.d. (xi, W) streams for a finite market of n_agents per scenario,
    every initial state at 0 (the point-mass law).

    Returns xi with shape (n_scenarios*n_agents,) and w with shape
    (n_scenarios*n_agents, n_fine); rows are grouped scenario-major.
    """
    tag = "w_I" if population == "I" else "w_S"
    rows = n_scenarios * n_agents
    w = _brownian(_stream_rng(seed, tag, extra=(9,)), rows, spec.fine_times())
    return np.zeros(rows), w


def discretize_at_level(batch: ScenarioBatch, n_prime: int, l_prime: Optional[int] = None) -> tuple[GridSpec, np.ndarray]:
    """Node paths of the same Brownian paths at a coarser dyadic level.

    The fine grid of the batch must refine the level-n' dyadic grid.  Returns
    the derived GridSpec (sharing the batch's fine grid) and the node values.
    """
    spec = batch.spec
    if n_prime < 1 or n_prime > spec.n:
        raise ValueError(f"level n'={n_prime} incompatible with batch depth n={spec.n}")
    if l_prime is None:
        l_prime = spec.l
    stride = 2 ** (spec.n - n_prime)
    sub_spec = GridSpec(n=n_prime, l=l_prime, m=spec.m * stride, T=spec.T)
    node = project_path(batch.b[:, sub_spec.node_fine_indices()], l_prime)
    return sub_spec, node


_MAGIC = b"MFPLBAT1"


def save_batch(path, batch: ScenarioBatch) -> None:
    """Flat binary persistence: fixed header then column-major float64 arrays."""
    header = struct.pack("<8siiidqq", _MAGIC, batch.spec.n, batch.spec.l,
                         batch.spec.m, batch.spec.T, batch.seed, batch.count)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (batch.b, batch.c, batch.w_I, batch.w_S):
            fh.write(np.asfortranarray(arr, dtype=np.float64).tobytes(order="F"))
        for arr in (batch.xi_I, batch.xi_S):
            fh.write(np.asarray(arr, dtype=np.float64).tobytes())
        fh.write(np.asfortranarray(batch.node_path, dtype=np.float64).tobytes(order="F"))


def load_batch(path) -> ScenarioBatch:
    """A save_batch file; a file that is short anywhere raises PriceLabError."""
    with open(path, "rb") as fh:
        def chunk(size, what):
            raw = fh.read(size)
            if len(raw) < size:
                raise PriceLabError(f"batch file {path} is short: {what} has "
                                    f"{len(raw)} of {size} bytes")
            return raw

        magic, n, l, m, T, seed, count = struct.unpack(
            "<8siiidqq", chunk(struct.calcsize("<8siiidqq"), "the header"))
        if magic != _MAGIC:
            raise PriceLabError(f"not a batch file: {path}")
        spec = GridSpec(n=n, l=l, m=m, T=T)
        nf = spec.n_fine

        def read(shape, name):
            arr = np.frombuffer(chunk(int(np.prod(shape)) * 8, f"array {name}"), dtype=np.float64)
            return arr.reshape(shape, order="F") if len(shape) == 2 else arr

        b = read((count, nf), "b"); c = read((count, nf), "c")
        w_I = read((count, nf), "w_I"); w_S = read((count, nf), "w_S")
        xi_I = read((count,), "xi_I"); xi_S = read((count,), "xi_S")
        node = read((count, spec.n_nodes), "node_path")
    return ScenarioBatch(spec=spec, b=b, c=c, w_I=w_I, w_S=w_S, xi_I=xi_I, xi_S=xi_S,
                         node_path=node, seed=seed)


def summary_csv(path, batch: ScenarioBatch) -> None:
    """Per-time summary statistics of the sampled paths."""
    t = batch.fine_grid
    cols = {"b": batch.b, "c": batch.c, "w_I": batch.w_I, "w_S": batch.w_S}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"{k}_mean,{k}_var" for k in cols) + "\n")
        for j in range(t.size):
            cells = [f"{t[j]:.17g}"]
            for arr in cols.values():
                cells.append(f"{arr[:, j].mean():.17g}")
                cells.append(f"{arr[:, j].var(ddof=1) if batch.count > 1 else 0.0:.17g}")
            fh.write(",".join(cells) + "\n")

