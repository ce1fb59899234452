import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpricelab.conditioning import TreeConditioner
from mfpricelab.errors import ModelError
from mfpricelab.tree import (FULL_PREFIX, MARKOV, GridSpec, Lattice, TreeKey,
                             kernel_row, project_path, project_scalar,
                             transition_matrix)


def scalar_projection_oracle(x, l):
    # literal transcription of the definition, scalar only
    if abs(x) <= 2.0 ** l:
        return 2.0 ** (-l) * np.floor(x * 2.0 ** l)
    return 2.0 ** l * np.sign(x)


def path_projection_oracle(xs, l):
    ys = [scalar_projection_oracle(xs[0], l)]
    for k in range(1, len(xs)):
        ys.append(scalar_projection_oracle(ys[-1] + xs[k] - xs[k - 1], l))
    return np.array(ys)


class TestGridSpec:
    def test_invariants(self):
        spec = GridSpec(n=2, l=1, m=4, T=1.0)
        assert spec.n_intervals == 4 and spec.n_nodes == 3
        assert spec.n_fine == 17
        times = spec.interval_times()
        # interval endpoints are exact multiples of T/2^n
        assert np.array_equal(times, np.arange(5) * 0.25)
        assert spec.fine_times()[spec.node_fine_indices()].tolist() == [0.25, 0.5, 0.75]

    @pytest.mark.parametrize("bad", [dict(n=0, l=1, m=1, T=1.0), dict(n=1, l=-1, m=1, T=1.0),
                                     dict(n=1, l=0, m=0, T=1.0), dict(n=1, l=0, m=1, T=0.0)])
    def test_rejects_bad_geometry(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)


class TestLattice:
    def test_points(self):
        lat = Lattice(1)
        pts = lat.points()
        assert lat.size == 9 and pts[0] == -2.0 and pts[-1] == 2.0
        assert np.allclose(np.diff(pts), 0.5)
        assert np.allclose(pts, -pts[::-1])  # symmetric about 0

    def test_cardinality_formula(self):
        for l in range(4):
            lat = Lattice(l)
            assert lat.size == 2 * lat.bound / lat.step + 1 == 2 ** (2 * l + 1) + 1

    def test_index_roundtrip(self):
        lat = Lattice(2)
        pts = lat.points()
        assert np.array_equal(lat.value_of(lat.index_of(pts)), pts)

    def test_off_lattice_rejected(self):
        with pytest.raises(ModelError):
            Lattice(1).index_of(np.array([0.3]))


class TestProjectScalar:
    def test_zero_fixed_point(self):
        assert project_scalar(0.0, 3) == 0.0

    def test_hand_values(self):
        assert project_scalar(0.7, 1) == 0.5
        assert project_scalar(3.2, 1) == 2.0  # truncation branch, |x| > 2^1
        assert project_scalar(-3.2, 1) == -2.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_scalar(np.nan, 1)

    @given(st.floats(-100, 100), st.integers(0, 4))
    def test_idempotent_on_lattice(self, x, l):
        once = project_scalar(x, l)
        assert project_scalar(once, l) == once

    @given(st.floats(-16, 16), st.floats(-16, 16), st.integers(0, 4))
    def test_monotone(self, a, b, l):
        lo, hi = min(a, b), max(a, b)
        assert project_scalar(lo, l) <= project_scalar(hi, l)

    @given(st.floats(-8, 8), st.integers(0, 3))
    def test_matches_oracle(self, x, l):
        assert project_scalar(x, l) == scalar_projection_oracle(x, l)


class TestProjectPath:
    def test_zero_path(self):
        assert np.array_equal(project_path([0.0, 0.0, 0.0], 2), np.zeros(3))

    def test_hand_recursion(self):
        # y2 = P(0.5 + 0.2) = 0.5
        assert project_path([0.7, 0.9], 1).tolist() == [0.5, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_path([], 1)

    def test_matrix_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(50, 6)).cumsum(axis=1)
        got = project_path(xs, 2)
        for row, expect in zip(xs, got):
            assert np.array_equal(path_projection_oracle(row, 2), expect)

    def test_accuracy_bound(self):
        # |x_i - y_i| <= i * 2^-l on admissible paths, 1e4 random paths
        rng = np.random.default_rng(123)
        l, j = 3, 8  # j <= 2^l, amplitudes kept within 2^l - 1
        xs = np.clip(rng.normal(scale=1.5, size=(10000, j)).cumsum(axis=1), -(2 ** l - 1), 2 ** l - 1)
        ys = project_path(xs, l)
        err = np.abs(xs - ys)
        bound = (np.arange(1, j + 1) * 2.0 ** (-l))[None, :]
        assert np.all(err <= bound + 1e-12)


class TestTransitionKernel:
    def test_frozen_cell_probability(self):
        # T/2^n = 1, l = 0, from 0 to 0: standard normal mass of [0, 1)
        spec = GridSpec(n=1, l=0, m=1, T=2.0)
        kern = transition_matrix(spec)
        expect = 0.3413447460685429
        got = kern.row(0.0)[kern.lattice.index_of(np.array([0.0]))[0]]
        assert abs(got - expect) < 1e-12

    def test_rows_sum_to_one(self):
        kern = transition_matrix(GridSpec(n=2, l=1, m=1, T=1.0))
        assert np.all(kern.matrix >= 0)
        assert np.max(np.abs(kern.matrix.sum(axis=1) - 1.0)) < 1e-12

    def test_monte_carlo_agreement(self):
        # every cell with >= 100 expected hits agrees within 3 standard errors
        spec = GridSpec(n=1, l=0, m=1, T=2.0)
        kern = transition_matrix(spec)
        lat = kern.lattice
        rng = np.random.default_rng(7)
        n = 1_000_000
        for v in lat.points():
            draws = project_scalar(v + rng.standard_normal(n) * kern.sigma, spec.l)
            counts = np.bincount(lat.index_of(draws), minlength=lat.size)
            p = kern.matrix[lat.index_of(np.array([v]))[0]]
            mask = p * n >= 100
            se = np.sqrt(p[mask] * (1 - p[mask]) / n)
            assert np.all(np.abs(counts[mask] / n - p[mask]) <= 3 * se)

    def test_reflected_cell_symmetry(self):
        # The floor cells are half-open, so the Gaussian symmetry reads
        # P(v -> w) = P(-v -> -w - step) for interior destinations.
        kern = transition_matrix(GridSpec(n=1, l=1, m=1, T=1.0))
        lat = kern.lattice
        for iv, v in enumerate(lat.points()):
            for iw in range(1, lat.size - 2):  # mirror cell must stay interior
                w = lat.value_of(iw)
                jv = lat.index_of(np.array([-v]))[0]
                jw = lat.index_of(np.array([-w - lat.step]))[0]
                assert kern.matrix[iv, iw] == pytest.approx(kern.matrix[jv, jw], abs=1e-12)

    def test_kernel_row_on_demand(self):
        spec = GridSpec(n=1, l=1, m=1, T=1.0)
        kern = transition_matrix(spec)
        row = kernel_row(0.5, kern.lattice, kern.sigma)
        assert np.allclose(row, kern.row(0.5))


def members(cond, interval):
    """Sample indices of each key of the conditioner's partition at one interval."""
    inv = cond.inverse(interval)
    return [np.flatnonzero(inv == k) for k in range(len(cond.keys(interval)))]


class TestBucketing:
    def test_identical_paths_single_bucket(self):
        spec = GridSpec(n=2, l=1, m=1, T=1.0)
        node = np.tile(np.array([0.5, 0.5, 1.0]), (2, 1))
        cond = TreeConditioner(spec, node, FULL_PREFIX)
        for i in range(spec.n_intervals):
            assert len(cond.keys(i)) == 1
            assert members(cond, i)[0].tolist() == [0, 1]

    def test_markov_pools_prefixes(self):
        spec = GridSpec(n=2, l=1, m=1, T=1.0)
        node = np.array([[0.0, 0.5, 1.0], [0.5, 0.5, 1.0]])
        markov = TreeConditioner(spec, node, MARKOV)
        assert len(markov.keys(2)) == 1  # shared V_2 = 0.5 despite different prefixes
        prefix = TreeConditioner(spec, node, FULL_PREFIX)
        assert len(prefix.keys(2)) == 2

    def test_partition_property(self):
        spec = GridSpec(n=2, l=1, m=1, T=1.0)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(10000, 3)).cumsum(axis=1) * 0.5
        node = project_path(b, spec.l)
        for mode in (FULL_PREFIX, MARKOV):
            cond = TreeConditioner(spec, node, mode)
            for i in range(spec.n_intervals):
                keys = cond.keys(i)
                assert all(k.interval == i and k.mode == mode for k in keys)
                assert len(set(keys)) == len(keys)
                parts = members(cond, i)
                assert all(p.size > 0 for p in parts)
                assert [p.size for p in parts] == cond.counts(i).tolist()
                everyone = np.concatenate(parts)
                assert everyone.size == 10000
                assert np.array_equal(np.sort(everyone), np.arange(10000))

    def test_off_lattice_data_error(self):
        spec = GridSpec(n=2, l=1, m=1, T=1.0)
        node = np.array([[0.0, 0.3, 0.5]])
        with pytest.raises(ModelError):
            TreeConditioner(spec, node)

    def test_key_validation(self):
        with pytest.raises(ValueError):
            TreeKey(FULL_PREFIX, 2, (1,))
        with pytest.raises(ValueError):
            TreeKey("nonsense", 0, ())
