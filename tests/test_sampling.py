import numpy as np
import pytest
from dataclasses import replace

from mfpricelab import sampling
from mfpricelab.conditioning import TreeConditioner
from mfpricelab.equilibrium import solve_fixed_point
from mfpricelab.models import preset
from mfpricelab.price import materialize
from mfpricelab.sampling import (InformedFactorSpec, ScenarioBatch, _brownian, _stream_rng,
                                 discretize_at_level, informed_factor_path, sample_batch)
from mfpricelab.tree import FULL_PREFIX, GridSpec, project_path

SPEC = GridSpec(n=2, l=1, m=4, T=1.0)


class TestSampleBatch:
    def test_bit_identical_replay(self):
        a = sample_batch(SPEC, 99, 1, InformedFactorSpec(rho=0.3))
        b = sample_batch(SPEC, 99, 1, InformedFactorSpec(rho=0.3))
        for name in ("b", "c", "w_I", "w_S", "xi_I", "xi_S", "node_path"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_rho_one_degenerates(self):
        batch = sample_batch(SPEC, 3, 50, InformedFactorSpec(rho=1.0))
        assert np.allclose(batch.c, batch.b)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            InformedFactorSpec(rho=1.5)

    def test_paths_start_at_zero_and_share_grid(self):
        batch = sample_batch(SPEC, 5, 10)
        assert batch.fine_grid.shape == (SPEC.n_fine,)
        for arr in (batch.b, batch.c, batch.w_I, batch.w_S):
            assert arr.shape == (10, SPEC.n_fine)
            assert np.all(arr[:, 0] == 0.0)

    def test_node_path_matches_projection(self):
        batch = sample_batch(SPEC, 11, 200)
        expect = project_path(batch.b[:, SPEC.node_fine_indices()], SPEC.l)
        assert np.array_equal(batch.node_path, expect)

    def test_empirical_correlation(self):
        rho = 0.6
        batch = sample_batch(SPEC, 17, 100_000, InformedFactorSpec(rho=rho))
        bT, cT = batch.b[:, -1], batch.c[:, -1]
        corr = np.corrcoef(bT, cT)[0, 1]
        se = (1 - rho ** 2) / np.sqrt(batch.count)  # delta-method SE of r
        assert abs(corr - rho) <= 3 * se

    def test_variance_grows_linearly(self):
        batch = sample_batch(SPEC, 23, 100_000)
        for j in (4, 8, 16):
            t = batch.fine_grid[j]
            v = batch.b[:, j].var(ddof=1)
            se = t * np.sqrt(2.0 / batch.count)
            assert abs(v - t) <= 5 * se

    def test_disjoint_increments_uncorrelated(self):
        batch = sample_batch(SPEC, 29, 100_000)
        d1 = batch.b[:, 4] - batch.b[:, 0]
        d2 = batch.b[:, 12] - batch.b[:, 8]
        cov = np.mean(d1 * d2)
        se = np.sqrt(np.var(d1 * d2, ddof=1) / batch.count)
        assert abs(cov) <= 5 * se

    def test_noise_sources_independent(self):
        batch = sample_batch(SPEC, 31, 100_000)
        cols = [batch.b[:, -1], batch.w_I[:, -1], batch.w_S[:, -1]]
        for i in range(3):
            for j in range(i + 1, 3):
                r = np.corrcoef(cols[i], cols[j])[0, 1]
                assert abs(r) <= 5 / np.sqrt(batch.count)

    def test_draws_only_the_common_noise(self, monkeypatch):
        # the initial states draw no stream; the late paths wait for a read
        tags = []
        real = sampling._stream_rng
        monkeypatch.setattr(sampling, "_stream_rng",
                            lambda seed, tag, *a: tags.append(tag) or real(seed, tag, *a))
        batch = sample_batch(SPEC, 37, 20)
        assert tags == ["b"]
        for xi in (batch.xi_I, batch.xi_S):
            assert xi.shape == (20,) and not xi.flags.writeable
            assert np.all(xi == 0.0) and not np.any(np.signbit(xi))

    def test_stream_tags_pinned(self):
        # a tag that moved would change every stream drawn after it
        assert sampling._STREAMS == {"b": 1, "c_perp": 2, "w_I": 3, "w_S": 4, "xi_I": 5, "xi_S": 6}

    def test_section6_form(self):
        rho = 0.5
        a = sample_batch(SPEC, 41, 100, InformedFactorSpec(kind="section6", rho=rho))
        b = sample_batch(SPEC, 41, 100, InformedFactorSpec(rho=rho))
        # same underlying streams, different mixing coefficient on B
        perp_a = a.c - rho ** 2 * a.b
        perp_b = b.c - rho * b.b
        assert np.allclose(perp_a, perp_b)

    def test_unknown_stream_tag_rejected(self):
        # a tag outside the fixed table would need a per-process salted hash
        with pytest.raises(ValueError, match="w_X"):
            _stream_rng(1, "w_X")

    def test_immutable(self):
        batch = sample_batch(SPEC, 43, 10)
        with pytest.raises(ValueError):
            batch.b[0, 0] = 1.0


class TestLazyIdiosyncratic:
    def test_drawn_on_first_read(self):
        batch = sample_batch(SPEC, 71, 40)
        assert all(map(callable, batch.late_paths.paths.values()))
        for tag in ("w_I", "w_S"):
            w = getattr(batch, tag)
            expect = _brownian(_stream_rng(71, tag), 40, SPEC.fine_times())
            assert w.tobytes() == expect.tobytes()
            assert not w.flags.writeable
            assert getattr(batch, tag) is w
        assert batch.idiosyncratic("I")[1] is batch.w_I

    def test_replace_neither_forces_nor_drops_a_draw(self):
        batch = sample_batch(SPEC, 72, 20)
        sub = discretize_at_level(batch, 1)
        assert all(map(callable, batch.late_paths.paths.values()))
        assert sub.w_I is batch.w_I
        w_S = batch.w_S
        assert replace(batch).w_S is w_S

    def test_explicit_paths_kept(self):
        batch = sample_batch(SPEC, 73, 20)
        zeros = np.zeros_like(batch.b)
        given = replace(batch, w_I=zeros)
        assert given.w_I is zeros
        assert given.w_S.tobytes() == batch.w_S.tobytes()

    def test_bytes_do_not_depend_on_read_order(self):
        late = ("c", "w_I", "w_S")
        forward, backward = sample_batch(SPEC, 74, 30), sample_batch(SPEC, 74, 30)
        got = {name: getattr(forward, name).tobytes() for name in late}
        got_back = {name: getattr(backward, name).tobytes() for name in reversed(late)}
        assert got == got_back


class TestLazyFactor:
    def test_drawn_on_first_read(self, monkeypatch):
        tags = []
        real = sampling._stream_rng
        monkeypatch.setattr(sampling, "_stream_rng",
                            lambda seed, tag, *a: tags.append(tag) or real(seed, tag, *a))
        factor = InformedFactorSpec(kind="section6", rho=0.3)
        batch = sample_batch(SPEC, 75, 40, factor)
        assert "c_perp" not in tags
        c = batch.c
        assert tags.count("c_perp") == 1
        b_perp = _brownian(real(75, "c_perp"), 40, SPEC.fine_times())
        assert c.tobytes() == informed_factor_path(factor, batch.b, b_perp).tobytes()
        assert not c.flags.writeable
        assert batch.c is c and tags.count("c_perp") == 1

    def test_replace_keeps_or_demands_the_factor(self):
        batch = sample_batch(SPEC, 76, 20)
        sub = discretize_at_level(batch, 1)
        assert callable(batch.late_paths.paths["c"])
        assert sub.c is batch.c
        with pytest.raises(ValueError, match="missing: c, w_I, w_S"):
            replace(batch, b=np.zeros_like(batch.b))
        given = replace(batch, b=np.zeros_like(batch.b), c=np.ones_like(batch.b),
                        w_I=batch.w_I, w_S=batch.w_S)
        assert np.all(given.c == 1.0)


class TestDerivedFields:
    def test_new_b_must_give_every_late_path(self):
        batch = sample_batch(SPEC, 77, 20)
        with pytest.raises(ValueError, match="missing: w_I, w_S$"):
            replace(batch, b=np.zeros_like(batch.b), c=np.zeros_like(batch.b))

    def test_row_subset(self):
        batch = sample_batch(SPEC, 78, 100)
        rows = {name: getattr(batch, name)[:40] for name in ("b", "c", "xi_I", "xi_S")}
        with pytest.raises(ValueError, match="missing: w_I, w_S$"):
            replace(batch, **rows)
        sub = replace(batch, **rows, w_I=batch.w_I[:40], w_S=batch.w_S[:40])
        assert sub.count == 40
        assert sub.w_I.shape == sub.w_S.shape == sub.c.shape == (40, SPEC.n_fine)
        assert sub.node_path.tobytes() == batch.node_path[:40].tobytes()
        assert solve_fixed_point(sub, preset("terminal-common-noise").with_grid(SPEC)).converged

    def test_level_sub_batch_keeps_the_fine_grid(self):
        batch = sample_batch(SPEC, 79, 10)
        sub = discretize_at_level(batch, 1)
        assert sub.fine_grid.tobytes() == batch.fine_grid.tobytes()
        assert sub.count == batch.count

    def test_node_path_is_read_only_and_made_once(self, monkeypatch):
        calls = []
        real = sampling.project_path
        monkeypatch.setattr(sampling, "project_path", lambda *a: calls.append(1) or real(*a))
        batch = sample_batch(SPEC, 80, 10)
        assert calls == []
        node = batch.node_path
        assert batch.node_path is node and calls == [1]
        assert not node.flags.writeable
        with pytest.raises(AttributeError):
            batch.node_path = np.zeros_like(node)

    def test_new_b_gets_its_own_tree(self):
        # terminal-common-noise on b and c sign-flipped: the price tracks
        # -V_1 of the flipped paths at interval 1 (criterion 3's bound)
        model = preset("terminal-common-noise")
        spec = model.grid
        batch = sample_batch(spec, 3, 4000, model.factor)
        batch.node_path  # made before the replace, so a tree carried over would show
        flip = replace(batch, b=-batch.b, c=-batch.c, w_I=batch.w_I, w_S=batch.w_S)
        v = project_path(-batch.b[:, spec.node_fine_indices()], spec.l)
        assert flip.node_path.tobytes() == v.tobytes()
        buckets = TreeConditioner(spec, v, FULL_PREFIX, min_count=model.solver.min_bucket)
        rep = solve_fixed_point(flip, model)
        assert rep.converged
        keys = buckets.inverse(1)
        judged = buckets.counts(1)[keys] >= model.solver.min_bucket
        price = materialize(rep.price, buckets).path[:, 1, 0]
        bound = 2.0 ** -spec.l + 3.0 * rep.phi_stats.se[1][keys, 0]
        assert judged.sum() > 0.9 * batch.count
        assert np.all(np.abs(price + v[:, 0])[judged] <= bound[judged])


class TestLevelCoupling:
    def test_full_depth_identity(self):
        batch = sample_batch(SPEC, 51, 100)
        sub = discretize_at_level(batch, SPEC.n)
        assert sub.spec == SPEC
        assert np.array_equal(sub.node_path, batch.node_path)

    def test_zero_path_all_levels(self):
        batch = sample_batch(SPEC, 52, 4)
        frozen = ScenarioBatch(spec=batch.spec, b=np.zeros_like(batch.b), c=batch.c,
                               w_I=batch.w_I, w_S=batch.w_S, xi_I=batch.xi_I, xi_S=batch.xi_S)
        for n_prime in (1, 2):
            assert np.all(discretize_at_level(frozen, n_prime).node_path == 0.0)

    def test_incompatible_level(self):
        batch = sample_batch(SPEC, 53, 4)
        with pytest.raises(ValueError):
            discretize_at_level(batch, SPEC.n + 1)

    def test_projection_error_bound_at_levels(self):
        big = GridSpec(n=3, l=3, m=2, T=1.0)
        batch = sample_batch(big, 54, 5000)
        for n_prime in (1, 2, 3):
            sub = discretize_at_level(batch, n_prime)
            sub_spec, node = sub.spec, sub.node_path
            b_at = batch.b[:, sub_spec.node_fine_indices()]
            inside = np.all(np.abs(b_at) <= 2 ** big.l - 1, axis=1)
            err = np.abs(b_at[inside] - node[inside])
            bound = np.arange(1, sub_spec.n_nodes + 1) * 2.0 ** (-big.l)
            assert np.all(err <= bound[None, :] + 1e-12)

