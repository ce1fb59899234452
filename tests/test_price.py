"""A stored price read on a batch that realizes keys the price does not store,
and the two layouts of per-sample paths.

interval_matrix gives a missing key the row of the stored key at the same
interval whose current lattice state is nearest: among equally near states
the lower one, among keys sharing that state the first in sorted key order;
a price read on a batch of another grid raises ValueError.  materialize
reads the tables along each sample's key into a cadlag slab (count,
n_intervals, m+1); fine_path turns a slab into its fine-grid path.
"""

import numpy as np
import pytest

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import apply_phi
from mfpricelab.market import clearing_residual, rate_study
from mfpricelab.models import preset
from mfpricelab.price import fine_path, interval_matrix, interval_view, materialize, zero_price
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import FULL_PREFIX, MARKOV, GridSpec, Lattice, TreeKey

MODEL = preset("terminal-common-noise")
SPEC = MODEL.grid  # n = 2, l = 1: lattice indices 0..8
# node paths as lattice indices (V_1, V_2, V_3); interval 2 keys on (V_1, V_2)
STORED = [(3, 4, 4), (4, 2, 2), (5, 4, 4), (2, 6, 6)]
QUERY = [(4, 3, 3), (6, 4, 4), (1, 7, 7), (4, 2, 2)]


def nodes(codes, repeat=1):
    return Lattice(SPEC.l).value_of(np.repeat(np.array(codes), repeat, axis=0))


def stored_price(mode):
    """A price with a distinct row per key: one price-map step on a batch
    keyed by the tree STORED, five samples per path."""
    batch = sample_batch(SPEC, 1, 5 * len(STORED), MODEL.factor)
    cond = TreeConditioner(SPEC, nodes(STORED, 5), mode, min_count=1)
    return apply_phi(zero_price(SPEC, cond), batch, MODEL, buckets=cond)


@pytest.mark.parametrize("mode, expect, n_missing", [
    # (4, 3): states 2 and 4 equally near, the lower wins, though (4, 2)
    # sorts after (3, 4); (6, 4): (3, 4) and (5, 4) share state 4, the first
    # sorted wins; (1, 7): state 6 is nearest; (4, 2) is stored
    (FULL_PREFIX, {(4, 3): (4, 2), (6, 4): (3, 4), (1, 7): (2, 6), (4, 2): (4, 2)}, 3),
    # states 2 and 4 equally near 3: the first sorted key wins
    (MARKOV, {(2,): (2,), (3,): (2,), (4,): (4,), (7,): (6,)}, 2),
])
def test_missing_key_takes_nearest_state(mode, expect, n_missing):
    price = stored_price(mode)
    rows = [price.values[TreeKey(mode, 2, prefix)] for prefix in set(expect.values())]
    assert len({tuple(r) for r in rows}) == len(rows)  # rows tell keys apart
    query = TreeConditioner(SPEC, nodes(QUERY), mode, min_count=1)
    mat, missing = interval_matrix(price, query, 2)
    assert [key.prefix for key in query.keys(2)] == sorted(expect)
    for k, key in enumerate(query.keys(2)):
        np.testing.assert_array_equal(mat[k], price.values[TreeKey(mode, 2, expect[key.prefix])])
    assert missing == n_missing


@pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
def test_interval_without_stored_key_raises(mode):
    # a batch of no samples realizes only the root key
    price = zero_price(SPEC, TreeConditioner(SPEC, nodes(STORED)[:0], mode))
    query = TreeConditioner(SPEC, nodes(QUERY), mode)
    assert interval_matrix(price, query, 0)[1] == 0
    with pytest.raises(KeyError):
        interval_matrix(price, query, 1)


@pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
def test_materialize_reads_tables_along_keys(mode):
    price = stored_price(mode)
    own = TreeConditioner(SPEC, nodes(STORED, 5), mode, min_count=1)
    env = materialize(price, own)
    assert env.path.shape == (own.count, SPEC.n_intervals, SPEC.m + 1)
    assert env.missing_keys == 0
    for i in range(SPEC.n_intervals):
        np.testing.assert_array_equal(env.path[:, i], price.tables[i][own.inverse(i)])
    # a batch with keys the price does not store reads their nearest-state rows
    query = TreeConditioner(SPEC, nodes(QUERY), mode, min_count=1)
    env = materialize(price, query)
    missing = 0
    for i in range(SPEC.n_intervals):
        mat, miss = interval_matrix(price, query, i)
        np.testing.assert_array_equal(env.path[:, i], mat[query.inverse(i)])
        missing += miss
    assert env.missing_keys == missing > 0


@pytest.mark.parametrize("mode", [FULL_PREFIX, MARKOV])
def test_price_on_another_grid_raises(mode):
    # lattice codes of one resolution are not keys of another: every read of
    # a price on a batch of another grid (the price map, a rate study) fails
    price = stored_price(mode)
    finer = GridSpec(n=SPEC.n, l=SPEC.l + 1, m=SPEC.m, T=SPEC.T)
    model = MODEL.with_grid(finer).with_solver(mode=mode)
    batch = sample_batch(finer, 2, 200, MODEL.factor)
    with pytest.raises(ValueError, match="grid"):
        materialize(price, TreeConditioner(finer, batch.node_path, mode))
    with pytest.raises(ValueError, match="grid"):
        rate_study(price, model, [2, 4, 8, 16], seeds=[1], n_scenarios=4)
    with pytest.raises(ValueError, match="grid"):
        clearing_residual(price, model, 2, 2, seed=1, n_scenarios=4)


def test_fine_path_and_interval_view():
    m = SPEC.m
    slab = np.arange(3 * SPEC.n_intervals * (m + 1), dtype=float).reshape(3, SPEC.n_intervals, m + 1)
    path = fine_path(slab)
    assert path.shape == (3, SPEC.n_fine)
    # sub-times 0..m-1 of every interval, then the left limit at T
    np.testing.assert_array_equal(path[:, :-1], slab[:, :, :m].reshape(3, -1))
    np.testing.assert_array_equal(path[:, -1], slab[:, -1, m])
    # a continuous path read per interval: no copy, each interval's left
    # limit is the next one's start, and fine_path gives the path back
    cont = np.random.default_rng(0).normal(size=(3, SPEC.n_fine))
    view = interval_view(cont, m)
    assert view.shape == slab.shape and np.shares_memory(view, cont)
    np.testing.assert_array_equal(view[:, :-1, m], view[:, 1:, 0])
    np.testing.assert_array_equal(fine_path(view), cont)
