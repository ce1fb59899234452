"""A stored price read on a batch that realizes keys the price does not store.

interval_matrix gives a missing key the row of the stored key at the same
interval whose current lattice state is nearest: among equally near states
the lower one, among keys sharing that state the first in sorted key order.
"""

from dataclasses import replace

import numpy as np
import pytest

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import apply_phi
from mfpricelab.models import preset
from mfpricelab.price import interval_matrix, zero_price
from mfpricelab.sampling import sample_batch
from mfpricelab.tree import FULL_PREFIX, MARKOV, Lattice, TreeKey

MODEL = preset("terminal-common-noise")
SPEC = MODEL.grid  # n = 2, l = 1: lattice indices 0..8
# node paths as lattice indices (V_1, V_2, V_3); interval 2 keys on (V_1, V_2)
STORED = [(3, 4, 4), (4, 2, 2), (5, 4, 4), (2, 6, 6)]
QUERY = [(4, 3, 3), (6, 4, 4), (1, 7, 7), (4, 2, 2)]


def nodes(codes, repeat=1):
    return Lattice(SPEC.l).value_of(np.repeat(np.array(codes), repeat, axis=0))


def stored_price(mode):
    """A price with a distinct row per key: one price-map step on a batch
    whose tree is STORED, five samples per path."""
    batch = sample_batch(SPEC, 1, 5 * len(STORED), MODEL.factor)
    batch = replace(batch, node_path=nodes(STORED, 5))
    cond = TreeConditioner(SPEC, batch.node_path, mode, min_count=1)
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
