import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aksvd import cli, datasets, kernels, ksvd, parallel
from aksvd.compat import apply_compat, compat_pseudoinverse, make_compat
from aksvd.errors import (
    CompatibilityMissingError,
    ConfigError,
    EmptyDenominatorWarning,
    LengthMismatchError,
)
from conftest import assert_close_to_largest, make_matrix


def rbf_spec(gamma=1.0):
    return kernels.KernelSpec(family="rbf", gamma=gamma)


def loop_spans(a):
    """Each row's first and one past its last nonzero column, (d, 0) for a
    row of zeros, one row at a time."""
    a = np.asarray(a)
    spans = []
    for row in a:
        cols = np.flatnonzero(row)
        spans.append((cols[0], cols[-1] + 1) if cols.size else (a.shape[1], 0))
    return np.array(spans, dtype=int).reshape(-1, 2)


def plain_sides(s):
    """The x and z sides of sources ``s``, read plain."""
    return kernels.plain(s.x, s.x_stats), kernels.plain(s.z, s.z_stats)


def compat_sources(a, mode, **kw):
    """The sources of A through the compat transform of the given mode."""
    return apply_compat(make_compat(a, mode, **kw), kernels.build_sources(a))


class TestSources:
    def test_build(self):
        s = kernels.build_sources([[1.0, 2.0], [3.0, 4.0]])
        x, z = plain_sides(s)
        np.testing.assert_array_equal(x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(z, [[1, 3], [2, 4]])
        # each side is one packed pair of rows, row 0 + 4096 * row 1
        np.testing.assert_array_equal(s.x, [[1 + 4096 * 3, 2 + 4096 * 4]])
        np.testing.assert_array_equal(s.z, [[1 + 4096 * 2, 3 + 4096 * 4]])

    def test_symmetric_matrix_gives_equal_sides(self):
        a = make_matrix(5, 5, seed=1)
        a = a + a.T
        s = kernels.build_sources(a)
        np.testing.assert_array_equal(s.x, s.z)

    def test_shapes(self):
        s = kernels.build_sources(np.ones((3, 2)))
        assert s.shape == (3, 2)
        assert s.x.shape == (2, 2) and s.z.shape == (1, 3)  # packed pairs
        x, z = plain_sides(s)
        assert x.shape == (3, 2) and z.shape == (2, 3)

    # the storage rule: packed float32 pairs of rows when every entry is an
    # integer of magnitude at most 2047, plain float32 up to 2^24, float64
    # otherwise; every entry reads back exactly, and a plain side keeps the
    # sign of -0.0 (a packed one reads it as 0.0, which equals it)
    @pytest.mark.parametrize("value, dtype, packed", [
        pytest.param(1.0, np.float32, True, id="zero-one"),
        pytest.param(2047.0, np.float32, True, id="2047"),
        pytest.param(-2047.0, np.float32, True, id="minus-2047"),
        pytest.param(2048.0, np.float32, False, id="2048"),
        pytest.param(2.0 ** 24, np.float32, False, id="two-to-24"),
        pytest.param(-2.0 ** 24, np.float32, False, id="minus-two-to-24"),
        pytest.param(2.0 ** 24 + 1, np.float64, False, id="two-to-24-plus-1"),
        pytest.param(0.5, np.float64, False, id="non-integral"),
        pytest.param(-0.0, np.float32, True, id="negative-zero"),
    ])
    def test_storage_rule(self, value, dtype, packed):
        a = np.array([[0.0, 1.0, value], [1.0, 0.0, 1.0]])
        s = kernels.build_sources(a)
        assert s.x.dtype == dtype and s.z.dtype == dtype
        assert s.x.flags.c_contiguous and s.z.flags.c_contiguous
        assert s.x_stats.packed is s.z_stats.packed is packed
        assert s.x.shape == ((1, 3) if packed else (2, 3))
        x, z = plain_sides(s)
        assert x.dtype == z.dtype == dtype
        np.testing.assert_array_equal(x, a)
        np.testing.assert_array_equal(z, a.T)
        if not packed:
            np.testing.assert_array_equal(np.signbit(x), np.signbit(a))
        side, stats = kernels.prepare_side(a)
        assert side.dtype == dtype and stats.packed is packed
        assert kernels.prepare_side(a, pack=False)[0].shape == (2, 3)

    @staticmethod
    def typed_inputs():
        rng = np.random.default_rng(7)
        ints = rng.integers(-2 ** 25, 2 ** 25, (40, 30))
        wide = rng.integers(-2 ** 24, 2 ** 24 + 1, (3, 40))
        wide[0, 0] = 2 ** 24  # 40 * 2^48 > 2^53: the norms may round
        return {
            # 700 rows: two panels of A's rows
            "uint8": (rng.integers(0, 256, (700, 300)).astype(np.uint8),
                      np.float32),
            "bool": (rng.random((90, 60)) < 0.3, np.float32),
            "int16": (rng.integers(-2 ** 15, 2 ** 15, (50, 70))
                      .astype(np.int16), np.float32),
            "int64-past-2^24": (ints, np.float64),
            "int64-wide-norms": (wide, np.float32),
            "float32": (rng.integers(-9, 9, (40, 30)).astype(np.float32),
                        np.float32),
            "float64": (rng.standard_normal((40, 30)), np.float64),
        }

    @pytest.mark.parametrize("case", ["uint8", "bool", "int16",
                                      "int64-past-2^24", "int64-wide-norms",
                                      "float32", "float64"])
    def test_typed_input_gives_the_float64_sources(self, case):
        # every input type gives, bit for bit, the sources of the same
        # values in float64: data, dtypes, squared norms, scales and spans
        a, dtype = self.typed_inputs()[case]
        got = kernels.build_sources(a)
        want = kernels.build_sources(a.astype(np.float64))
        for side in ("x", "z"):
            g, w = getattr(got, side), getattr(want, side)
            assert g.dtype == w.dtype == dtype
            np.testing.assert_array_equal(g, w)
            g_stats, w_stats = (getattr(got, side + "_stats"),
                                getattr(want, side + "_stats"))
            g_sq, g_scale, g_spans = g_stats[:3]
            w_sq, w_scale, w_spans = w_stats[:3]
            assert g_stats.packed is w_stats.packed is (g_scale <= 2047)
            assert g_sq.dtype == w_sq.dtype == np.float64
            np.testing.assert_array_equal(g_sq, w_sq)
            assert g_scale == w_scale and type(g_scale) is type(w_scale)
            # spans only where the float32 product can read them
            if g_scale <= 2.0 ** 24:
                np.testing.assert_array_equal(g_spans, w_spans)
                np.testing.assert_array_equal(
                    g_spans, loop_spans(kernels.plain(g, g_stats)))
            else:
                assert g_spans is None and w_spans is None
        x, z = plain_sides(got)
        np.testing.assert_array_equal(x, a)
        np.testing.assert_array_equal(z, a.T)

    @pytest.mark.parametrize("case", ["uint8", "bool", "int16"])
    def test_small_integers_skip_the_float64_copy(self, case, monkeypatch):
        a, _ = self.typed_inputs()[case]

        def refused(*args):
            raise AssertionError("integer data read through as_matrix")

        monkeypatch.setattr(kernels, "as_matrix", refused)
        assert kernels.build_sources(a).x.dtype == np.float32

    def test_build_copies_float64_input(self):
        a = np.array([[0.5, 1.0], [2.0, 3.0]])
        s = kernels.build_sources(a)
        a[0, 0] = 9.0
        assert s.x[0, 0] == 0.5

    def test_lazy_source_keeps_data_in_stored_form(self):
        graph = (np.random.default_rng(3).random((6, 6)) < 0.5).astype(float)
        src = kernels.build_sources(graph)
        lazy = kernels.LazyKernelSource(rbf_spec(), src)
        lazy.full()
        assert lazy._x is src.x and lazy._z is src.z  # no second copy
        hand_built = kernels.LazyKernelSource(
            rbf_spec(), kernels.DataSources(x=graph, z=graph[:4]))
        hand_built.full()
        assert hand_built._x.dtype == hand_built._z.dtype == np.float32


def first_entry(spec, x, *zs):
    """kappa(x, zs[0]) through kernel_matrix; sne normalizes over all zs."""
    g = kernels.kernel_matrix(spec, kernels.DataSources(
        x=np.array(x, dtype=float, ndmin=2), z=np.vstack(zs).astype(float)))
    return g[0, 0]


class TestKernelValue:
    def test_rbf_self_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        for gamma in (0.1, 1.0, 22.0):
            assert first_entry(rbf_spec(gamma), x, x) == 1.0

    def test_rbf_direct_formula(self):
        v = first_entry(rbf_spec(1.0), [0.0], [1.0])
        assert abs(v - 0.367879441) < 1e-9

    def test_sne_duplicate_set(self):
        spec = kernels.KernelSpec(family="sne", gamma=2.0)
        z = np.array([1.0, -1.0])
        for x in ([0.0, 0.0], [5.0, 5.0]):
            v = first_entry(spec, x, z, z)
            assert abs(v - 0.5) < 1e-12

    def test_linear(self):
        spec = kernels.KernelSpec(family="linear")
        assert first_entry(spec, [1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            kernels.KernelSpec(family="poly", gamma=1.0)
        with pytest.raises(ConfigError):
            kernels.KernelSpec(family="rbf", gamma=0.0)
        with pytest.raises(ConfigError):
            kernels.KernelSpec(family="sne")

    @pytest.mark.parametrize("gamma", [1e-200, 1e200, float("inf")])
    @pytest.mark.parametrize("family", ["rbf", "sne"])
    def test_gamma_whose_square_is_not_a_positive_finite_float(
            self, family, gamma, tmp_path):
        # gamma^2 underflows to 0 or overflows to inf: the kernel would
        # divide by 0 (rbf: an all-zero G; sne: a rank-1 model) or by inf
        with pytest.raises(ConfigError, match="square"):
            kernels.KernelSpec(family, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["extract", "--format", "synth",
                             "--set", "dataset.synth_n=40",
                             "--kernel", family, "--gamma", repr(gamma),
                             "--out", str(tmp_path / "out")])
        assert code == 2


class TestKernelMatrix:
    def test_linear_pinv_recovers_a(self):
        a = make_matrix(6, 6, seed=4, cond=10)
        spec = kernels.KernelSpec(family="linear")
        g = kernels.kernel_matrix(spec, apply_compat(
            compat_pseudoinverse(a), kernels.build_sources(a)))
        assert np.linalg.norm(g - a) <= 1e-10 * np.linalg.norm(a)

    def test_sne_rows_sum_to_one(self):
        a = make_matrix(6, 6, seed=2)
        spec = kernels.KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        g = kernels.kernel_matrix(spec, kernels.build_sources(a))
        np.testing.assert_allclose(g.sum(1), np.ones(6), atol=1e-12)

    def test_rbf_symmetric_input(self):
        a = make_matrix(5, 5, seed=3)
        a = 0.5 * (a + a.T)
        g = kernels.kernel_matrix(rbf_spec(2.0), kernels.build_sources(a))
        np.testing.assert_allclose(g, g.T, atol=1e-14)

    def test_rbf_entries_in_unit_interval(self):
        a = make_matrix(7, 7, seed=9)
        g = kernels.kernel_matrix(rbf_spec(3.0), kernels.build_sources(a))
        assert np.all(g > 0) and np.all(g <= 1)

    def test_missing_compat(self):
        with pytest.raises(CompatibilityMissingError):
            kernels.kernel_matrix(rbf_spec(), kernels.build_sources(np.ones((3, 5))))

    def test_generic_asymmetry(self):
        a = make_matrix(8, 8, seed=5)
        g = kernels.kernel_matrix(rbf_spec(kernels.default_gamma(a)),
                                  kernels.build_sources(a))
        assert np.linalg.norm(g - g.T) > 1e-6

    def test_permutation_equivariance(self):
        a = make_matrix(6, 6, seed=7)
        src = kernels.build_sources(a)
        perm = np.array([3, 0, 5, 1, 4, 2])
        spec = kernels.KernelSpec(family="sne", gamma=2.5)
        g = kernels.kernel_matrix(spec, src)
        g_perm = kernels.kernel_matrix(
            spec, kernels.DataSources(x=src.x[perm], z=src.z))
        np.testing.assert_allclose(g_perm, g[perm], atol=1e-15)

    def test_sne_underflow_goes_uniform(self):
        x = np.array([[1e6, 1e6], [0.0, 0.0]])
        z = np.array([[0.0, 0.0], [1.0, 1.0]])
        spec = kernels.KernelSpec(family="sne", gamma=0.01)
        with pytest.warns(EmptyDenominatorWarning):
            g = kernels.kernel_matrix(spec, kernels.DataSources(x=x, z=z))
        np.testing.assert_allclose(g[0], [0.5, 0.5])
        np.testing.assert_allclose(g.sum(1), [1.0, 1.0])


class TestCentering:
    def test_constant_matrix(self):
        gc, stats = kernels.center(np.full((3, 4), 7.0))
        np.testing.assert_array_equal(gc, np.zeros((3, 4)))
        assert stats.grand_mean == 7.0

    def test_idempotent(self):
        g = make_matrix(5, 7, seed=1)
        gc, _ = kernels.center(g)
        gcc, stats2 = kernels.center(gc)
        np.testing.assert_allclose(gcc, gc, atol=1e-12)
        assert abs(stats2.grand_mean) < 1e-14

    def test_two_by_two_hand_case(self):
        gc, stats = kernels.center(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(gc, np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(stats.row_means, [1.5, 3.5])
        np.testing.assert_allclose(stats.col_means, [2.0, 3.0])
        assert stats.grand_mean == 2.5

    def test_zero_margins(self):
        g = make_matrix(9, 6, seed=8) * 50
        gc, _ = kernels.center(g)
        bound = 1e-10 * np.linalg.norm(g)
        assert np.abs(gc.sum(0)).max() <= bound
        assert np.abs(gc.sum(1)).max() <= bound

    def test_stats_consistency(self):
        _, stats = kernels.center(make_matrix(4, 6, seed=3))
        assert abs(stats.row_means.mean() - stats.grand_mean) < 1e-14
        assert abs(stats.col_means.mean() - stats.grand_mean) < 1e-14


class TestCenterOos:
    def test_training_row_replay(self):
        g = make_matrix(6, 4, seed=10)
        gc, stats = kernels.center(g)
        for i in range(6):
            np.testing.assert_allclose(
                kernels.center_oos(g[i], stats, "row"), gc[i], atol=1e-14)

    def test_training_col_replay(self):
        g = make_matrix(6, 4, seed=11)
        gc, stats = kernels.center(g)
        for j in range(4):
            np.testing.assert_allclose(
                kernels.center_oos(g[:, j], stats, "column"), gc[:, j], atol=1e-14)

    def test_constant_everything(self):
        _, stats = kernels.center(np.full((4, 5), 3.0))
        out = kernels.center_oos(np.full(5, 3.0), stats, "row")
        np.testing.assert_allclose(out, np.zeros(5), atol=1e-15)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(42)
        g = rng.standard_normal((8, 5))
        _, stats = kernels.center(g)
        fresh = rng.standard_normal(5)
        # independent arithmetic for the same centering rule
        expected = fresh - fresh.mean() - g.mean(axis=0) + g.mean()
        np.testing.assert_allclose(
            kernels.center_oos(fresh, stats, "row"), expected, atol=1e-8)

    def test_batches_match_single_vectors(self):
        g = make_matrix(6, 4, seed=12)
        gc, stats = kernels.center(g)
        np.testing.assert_allclose(kernels.center_oos(g, stats, "row"), gc,
                                   atol=1e-14)
        np.testing.assert_allclose(kernels.center_oos(g, stats, "column"), gc,
                                   atol=1e-14)
        batch = kernels.center_oos(g[[1, 4]], stats, "row")
        for k, i in enumerate((1, 4)):
            np.testing.assert_array_equal(
                batch[k], kernels.center_oos(g[i], stats, "row"))

    def test_length_mismatch(self):
        _, stats = kernels.center(make_matrix(4, 6, seed=1))
        with pytest.raises(LengthMismatchError):
            kernels.center_oos(np.ones(4), stats, "row")
        with pytest.raises(LengthMismatchError):
            kernels.center_oos(np.ones(6), stats, "column")
        with pytest.raises(LengthMismatchError):
            kernels.center_oos(np.ones((2, 4)), stats, "row")
        with pytest.raises(LengthMismatchError):
            kernels.center_oos(np.ones((6, 2)), stats, "column")


class TestDefaultGamma:
    def test_formula(self):
        a = make_matrix(10, 4, seed=6)
        expected = 2.5 * np.sqrt(4 * a.var())
        assert abs(kernels.default_gamma(a, k=2.5) - expected) < 1e-12

    def test_constant_data_rejected(self):
        with pytest.raises(ConfigError):
            kernels.default_gamma(np.ones((3, 3)))

    @pytest.mark.parametrize("kind", ["uint8", "int64", "bool"])
    def test_integer_data_take_no_float64_copy(self, kind):
        import tracemalloc
        n = 1000
        rng = np.random.default_rng(53)
        a = {"uint8": lambda: rng.integers(0, 256, (n, n)).astype(np.uint8),
             "int64": lambda: rng.integers(-50, 51, (n, n)),
             "bool": lambda: rng.random((n, n)) < 0.3}[kind]()
        want = kernels.default_gamma(a.astype(float))
        tracemalloc.start()
        try:
            got = kernels.default_gamma(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the same bits as from the float64 copy, with one float64
        # temporary (the deviations from the mean) where the copy made two
        assert got == want
        assert peak < 1.5 * n * n * 8


class TestLazySource:
    def setup_method(self):
        self.a = make_matrix(12, 9, seed=20)
        self.rows = np.array([0, 3, 7, 11])
        self.cols = np.array([1, 2, 5, 6, 8])

    def test_rbf_blocks_match_full(self):
        spec = kernels.KernelSpec(family="rbf", gamma=2.0)
        src = kernels.LazyKernelSource(spec,
                                       compat_sources(self.a, "a2", seed=0))
        g_nm, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        g = src.full()
        np.testing.assert_allclose(g_big_m, g[:, self.cols], atol=1e-14)
        np.testing.assert_allclose(g_n_big, g[self.rows, :], atol=1e-14)
        np.testing.assert_allclose(g_nm, g[np.ix_(self.rows, self.cols)],
                                   atol=1e-14)

    def test_block_consistency(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0)
        src = kernels.LazyKernelSource(spec, compat_sources(self.a, "a1"))
        g_nm, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        np.testing.assert_array_equal(g_nm, np.asarray(g_big_m)[self.rows])
        # two separate evaluation paths agree to floating-point tolerance
        np.testing.assert_allclose(np.asarray(g_n_big)[:, self.cols], g_nm,
                                   atol=1e-13)

    def test_full_sampling_blocks_match_full(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0)
        src = kernels.LazyKernelSource(spec, compat_sources(self.a, "a1"))
        big_n, big_m = src.shape
        g_nm, g_big_m, g_n_big = src.sample_blocks(np.arange(big_n),
                                                   np.arange(big_m))
        sampled_denoms = src.row_denoms
        g = src.full()
        for block in (g_nm, g_big_m, g_n_big):
            np.testing.assert_allclose(block, g, atol=1e-14)
        np.testing.assert_allclose(sampled_denoms, src.row_denoms, rtol=1e-14)

    def test_sampled_sne_estimates_full_scale(self):
        # each row's normalizer is its sampled sum scaled by M/m, an
        # unbiased estimate of its sum over all M columns
        spec = kernels.KernelSpec(family="sne", gamma=3.0)
        src = kernels.LazyKernelSource(spec, compat_sources(self.a, "a1"))
        _, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        numer = kernels.LazyKernelSource(
            kernels.KernelSpec(family="rbf", gamma=3.0),
            compat_sources(self.a, "a1")).full()
        denom = numer[:, self.cols].sum(1) * (src.shape[1] / len(self.cols))
        np.testing.assert_allclose(src.row_denoms, denom, rtol=1e-13)
        np.testing.assert_allclose(
            g_big_m, numer[:, self.cols] / denom[:, None], rtol=1e-13)
        np.testing.assert_allclose(
            g_n_big, numer[self.rows] / denom[self.rows, None], rtol=1e-13)

    def test_sampled_sne_dead_row_is_uniform_over_all_columns(self):
        x = np.array([[1e6, 1e6], [0.0, 0.0]])
        z = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        spec = kernels.KernelSpec(family="sne", gamma=0.5)
        src = kernels.LazyKernelSource(spec, kernels.DataSources(x=x, z=z))
        with pytest.warns(EmptyDenominatorWarning):
            _, g_big_m, g_n_big = src.sample_blocks([0], [0, 1])
        np.testing.assert_array_equal(np.asarray(g_big_m)[0], [0.25, 0.25])
        np.testing.assert_array_equal(np.asarray(g_n_big)[0], np.full(4, 0.25))

    def test_entry_accounting(self):
        spec = kernels.KernelSpec(family="rbf", gamma=2.0)
        src = kernels.LazyKernelSource(spec,
                                       compat_sources(self.a, "a2", seed=1))
        src.sample_blocks(self.rows, self.cols)
        n_rows, n_cols = len(self.rows), len(self.cols)
        assert src.entries_evaluated == 12 * n_cols + n_rows * 9

    def test_superset_call_evaluates_only_new_entries(self):
        # the second call's sets begin with the first's, its new indices
        # out of order; its blocks equal a fresh source's
        a = make_matrix(30, 25, seed=21)
        first_rows, first_cols = np.array([2, 9, 17]), np.array([1, 4, 11, 20])
        rows = np.array([2, 9, 17, 23, 0, 29])
        cols = np.array([1, 4, 11, 20, 15, 3, 24])
        for family in ("sne", "rbf", "linear"):
            spec = kernels.KernelSpec(family=family, gamma=4.0)
            src = kernels.LazyKernelSource(spec, compat_sources(a, "a1"))
            big_n, big_m = src.shape
            src.sample_blocks(first_rows, first_cols)
            before = src.entries_evaluated
            got = src.sample_blocks(rows, cols)
            assert src.entries_evaluated - before == \
                big_n * (cols.size - 4) + (rows.size - 3) * big_m
            fresh = kernels.LazyKernelSource(spec, compat_sources(a, "a1"))
            want = fresh.sample_blocks(rows, cols)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-14, atol=0)
            if family == "sne":
                np.testing.assert_allclose(src.row_denoms, fresh.row_denoms,
                                           rtol=1e-14, atol=0)

    def test_superset_out_of_prefix_order_starts_over(self):
        # the second call's sets contain the first's, but interleaved: it
        # is evaluated afresh, and its blocks equal the dense slices
        a = make_matrix(30, 25, seed=21)
        rows = np.array([0, 17, 2, 23, 9, 29])
        cols = np.array([20, 1, 3, 4, 11, 15, 24])
        for family in ("sne", "rbf", "linear"):
            spec = kernels.KernelSpec(family=family, gamma=4.0)
            src = kernels.LazyKernelSource(spec, compat_sources(a, "a1"))
            big_n, big_m = src.shape
            src.sample_blocks(np.array([2, 9, 17]), np.array([1, 4, 11, 20]))
            before = src.entries_evaluated
            g_nm, g_big_m, g_n_big = src.sample_blocks(rows, cols)
            assert src.entries_evaluated - before == \
                big_n * cols.size + rows.size * big_m
            if family == "sne":
                # the dense slices of the kernel that the sampled
                # normalizers make
                full = kernels.LazyKernelSource(
                    kernels.KernelSpec("rbf", 4.0),
                    compat_sources(a, "a1")).full()
                full /= full[:, cols].sum(1, keepdims=True) \
                    * (big_m / cols.size)
            else:
                full = kernels.LazyKernelSource(
                    spec, compat_sources(a, "a1")).full()
            np.testing.assert_allclose(g_big_m, full[:, cols], rtol=1e-13)
            np.testing.assert_allclose(g_n_big, full[rows], rtol=1e-13)
            np.testing.assert_array_equal(g_nm, np.asarray(g_big_m)[rows])

    def test_call_without_previous_sets_starts_over(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0)
        src = kernels.LazyKernelSource(spec, compat_sources(self.a, "a1"))
        big_n, big_m = src.shape
        src.sample_blocks(self.rows, self.cols)
        # drops column 1: everything is evaluated again
        rows, cols = np.array([0, 3, 7]), np.array([2, 5, 6])
        before = src.entries_evaluated
        got = src.sample_blocks(rows, cols)
        assert src.entries_evaluated - before == big_n * 3 + 3 * big_m
        want = kernels.LazyKernelSource(
            spec, compat_sources(self.a, "a1")).sample_blocks(rows, cols)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the kept blocks are now those of the second call: extending it
        # evaluates one column and one row, though the first call's
        # column 1 is missing again
        before = src.entries_evaluated
        src.sample_blocks(np.array([0, 3, 7, 10]), np.array([2, 5, 6, 8]))
        assert src.entries_evaluated - before == big_n + big_m

    def test_matrix_source_blocks(self):
        g = make_matrix(7, 6, seed=30)
        src = kernels.MatrixSource(g)
        g_nm, g_big_m, g_n_big = src.sample_blocks([1, 4], [0, 2, 5])
        np.testing.assert_array_equal(g_nm, g[np.ix_([1, 4], [0, 2, 5])])
        np.testing.assert_array_equal(g_big_m, g[:, [0, 2, 5]])
        np.testing.assert_array_equal(g_n_big, g[[1, 4], :])
        assert kernels.as_kernel_source(src) is src


class TestChunkedBlock:
    """G_Nm and G_nM as raw chunks: products, dense form and means."""

    def blocks(self):
        # 1100 x 1100 so that means take several 512-line slabs; two nested
        # calls, the second with sorted sets, give chunks out of block
        # order, and row 3 lies so far away that its sne normalizer
        # underflows
        rng = np.random.default_rng(50)
        x = rng.standard_normal((1100, 3))
        x[3] = 1e3
        z = rng.standard_normal((1100, 3))
        spec = kernels.KernelSpec("sne", 1.5)
        src = kernels.LazyKernelSource(spec, kernels.DataSources(x=x, z=z))
        rows = rng.permutation(1100)[:60]
        rows[0] = 3
        cols = rng.permutation(1100)[:90]
        with pytest.warns(EmptyDenominatorWarning):
            src.sample_blocks(rows[:20], cols[:30])
            return src.sample_blocks(np.sort(rows), np.sort(cols))

    def test_dense_form_is_the_normalized_gather(self):
        rng = np.random.default_rng(51)
        x, z = rng.standard_normal((40, 3)), rng.standard_normal((30, 3))
        spec = kernels.KernelSpec("sne", 1.0)
        numer = kernels.LazyKernelSource(
            kernels.KernelSpec("rbf", 1.0), kernels.DataSources(x=x, z=z)).full()
        src = kernels.LazyKernelSource(spec, kernels.DataSources(x=x, z=z))
        rows, cols = np.array([7, 2, 30]), np.array([12, 3, 25, 1])
        src.sample_blocks(rows[1:], cols[2:])
        g_nm, g_big_m, g_n_big = src.sample_blocks(rows, cols)
        # sums over the two chunks, in evaluation order; a chunk's Gram
        # product may round apart from the full matrix's in the last bit
        sums = numer[:, [25, 1]].sum(1) + numer[:, [12, 3]].sum(1)
        denom = sums * (30 / 4)
        np.testing.assert_allclose(g_big_m, numer[:, cols] / denom[:, None],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(g_n_big, numer[rows] / denom[rows, None],
                                   rtol=1e-14, atol=0)
        np.testing.assert_array_equal(g_nm, np.asarray(g_big_m)[rows])
        assert g_big_m.shape == (40, 4) and g_big_m.size == 160
        assert g_n_big.shape == (3, 30) and g_n_big.T.shape == (30, 3)
        np.testing.assert_array_equal(g_n_big.T, np.asarray(g_n_big).T)

    def test_thin_products_match_dense(self):
        _, g_big_m, g_n_big = self.blocks()
        rng = np.random.default_rng(52)
        row_means = rng.standard_normal(1100)
        col_means = rng.standard_normal(1100)
        variants = (g_big_m, g_n_big,
                    g_big_m.centered(row_means, col_means[:90], 0.3),
                    g_n_big.centered(row_means[:60], col_means, -0.2))
        for block in variants:
            dense = np.asarray(block)
            w = rng.standard_normal((block.shape[1], 4))
            np.testing.assert_allclose(block @ w, dense @ w, rtol=0,
                                       atol=1e-12)
            w = rng.standard_normal((block.shape[0], 4))
            np.testing.assert_allclose(block.T @ w, dense.T @ w, rtol=0,
                                       atol=1e-12)
        dense = np.asarray(g_big_m)
        centered = np.asarray(variants[2])
        np.testing.assert_array_equal(
            centered, dense - row_means[:, None] - col_means[None, :90] + 0.3)

    def test_own_means_in_the_thin_product(self):
        # None stands for the block's own row means in block @ w and its
        # own column means in block.T @ w; row 3 is a dead sne row
        _, g_big_m, g_n_big = self.blocks()
        rng = np.random.default_rng(53)
        col_means = rng.standard_normal(90)
        row_means = rng.standard_normal(60)
        plain = np.asarray(g_big_m)
        rows_own = g_big_m.centered(None, col_means, 0.3)
        want = (plain - plain.mean(1)[:, None] - col_means[None, :] + 0.3)
        np.testing.assert_allclose(np.asarray(rows_own), want, rtol=0,
                                   atol=1e-15)
        w = rng.standard_normal((90, 4))
        np.testing.assert_allclose(rows_own @ w, want @ w, rtol=0, atol=1e-12)

        plain = np.asarray(g_n_big)
        cols_own = g_n_big.centered(row_means, None, -0.2)
        want = (plain - row_means[:, None] - plain.mean(0)[None, :] - 0.2)
        np.testing.assert_allclose(np.asarray(cols_own), want, rtol=0,
                                   atol=1e-15)
        w = rng.standard_normal((60, 4))
        np.testing.assert_allclose(cols_own.T @ w, want.T @ w, rtol=0,
                                   atol=1e-12)
        with pytest.raises(ValueError, match="whole block"):
            rows_own.mean(axis=1)

    def test_means_are_those_of_the_dense_block(self):
        _, g_big_m, g_n_big = self.blocks()
        np.testing.assert_array_equal(g_big_m.mean(axis=1),
                                      np.asarray(g_big_m).mean(axis=1))
        np.testing.assert_array_equal(g_n_big.mean(axis=0),
                                      np.asarray(g_n_big).mean(axis=0))

    @pytest.mark.parametrize("axis", [1, 0])
    def test_subnormal_normalizer_rows_match_dense(self, axis):
        # rows 2 and 5 have the smallest subnormal normalizer, 5e-324, and
        # raw entries as small: dividing their rows of w by it overflows,
        # inf * 0 gives NaN, and their raw thin products underflow to 0;
        # row 4 is dead. Row 5 lies in the second chunk of either axis.
        rng = np.random.default_rng(54)
        raw = rng.random((7, 8))
        raw[[2, 4, 5]] = 0.0
        raw[2, 1] = raw[5, 6] = 5e-324
        denom = raw.sum(1)
        assert denom[2] == denom[5] == 5e-324 and denom[4] == 0.0
        chunks = (raw[:, :3], raw[:, 3:]) if axis == 1 else (raw[:4], raw[4:])
        block = kernels.ChunkedBlock(chunks, axis, denom=denom, width=8)
        dense = np.asarray(block)
        assert dense[2, 1] == dense[5, 6] == 1.0
        np.testing.assert_array_equal(dense[4], 1.0 / 8)
        centered = block.centered(rng.standard_normal(7),
                                  rng.standard_normal(8), 0.3)
        for b in (block, block.T, centered, centered.T):
            w = rng.standard_normal((b.shape[1], 3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow, no NaN
                got = b @ w
            np.testing.assert_allclose(got, np.asarray(b) @ w, rtol=0,
                                       atol=1e-14)

    def test_no_silent_densification(self):
        _, g_big_m, _ = self.blocks()
        with pytest.raises(TypeError):
            np.ones((2, 1100)) @ g_big_m
        with pytest.raises(TypeError):
            g_big_m - 1.0


# --- the storage of a side, against the two paths it replaced ----------------
# Copies of the earlier storage code: a general path that read any A as
# float64 (``as_matrix``) and measured it in float64 row panels, and an
# integer path that went from an integer or boolean A straight to float32
# when float32 held every entry and the norms stayed exact.

_OLD_PANEL = 2 ** 16


def _old_row_blocks(a):
    step = max(1, _OLD_PANEL // max(1, a.shape[1]))
    for start in range(0, a.shape[0], step):
        yield np.asarray(a[start:start + step], dtype=np.float64)


def _old_fold_scale(scale, b):
    if scale == np.inf or not np.array_equal(np.rint(b), b):
        return np.inf
    return max(scale, float(b.max()), float(-b.min()))


def _old_side_stats(a, scale=None):
    norms, known = [], scale is not None
    scale = scale if known else 1.0
    for b in _old_row_blocks(a):
        norms.append((b * b).sum(1))
        if not known:
            scale = _old_fold_scale(scale, b)
    spans = loop_spans(a) if scale <= 2 ** 24 else None
    return kernels.SideStats(np.concatenate(norms), scale, spans)


def _old_stored(a, scale):
    dtype = np.float32 if scale <= 2 ** 24 else np.float64
    return np.ascontiguousarray(a, dtype=dtype)


def _old_integer_sources(a):
    if a.ndim != 2 or a.size == 0:
        return None
    scale = max(1, int(a.max()), -int(a.min()))
    if scale > 2 ** 24 or max(a.shape) * scale * scale > 2 ** 53:
        return None
    n, m = a.shape
    x = np.empty((n, m), dtype=np.float32)
    z = np.empty((m, n), dtype=np.float32)
    x_sq, z_sq = np.empty(n), np.zeros(m)
    square = np.float32 if scale * scale <= 2 ** 24 else np.float64
    for start in range(0, n, 512):
        rows = slice(start, start + 512)
        x[rows] = a[rows]
        z[:, rows] = a[rows].T
        squares = np.square(x[rows], dtype=square)
        x_sq[rows] = squares.sum(1, dtype=np.float64)
        z_sq += squares.sum(0, dtype=np.float64)
    scale = float(scale)
    return kernels.DataSources(
        x=x, z=z, x_stats=kernels.SideStats(x_sq, scale, loop_spans(a)),
        z_stats=kernels.SideStats(z_sq, scale, loop_spans(z)))


def _old_build_sources(a):
    a = np.asarray(a)
    if a.dtype.kind in "biu":
        sources = _old_integer_sources(a)
        if sources is not None:
            return sources
    a = np.ascontiguousarray(a, dtype=np.float64)
    x_stats = _old_side_stats(a)
    z = _old_stored(a.T, x_stats.scale)
    return kernels.DataSources(x=_old_stored(a, x_stats.scale).copy(), z=z,
                               x_stats=x_stats,
                               z_stats=_old_side_stats(z, x_stats.scale))


def _assert_same_side(got, want, got_stats, want_stats):
    """Data read plain and ``SideStats`` bit for bit: dtype, order, -0.0,
    and a scale of the same Python type; the side is packed exactly when
    its scale is at most 2047."""
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got_stats.packed is (want_stats.scale <= 2047)
    got = kernels.plain(got, got_stats)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert got_stats.sq_norms.dtype == np.float64
    np.testing.assert_array_equal(got_stats.sq_norms, want_stats.sq_norms)
    assert got_stats.scale == want_stats.scale
    assert type(got_stats.scale) is type(want_stats.scale) is float
    if want_stats.spans is None:
        assert got_stats.spans is None
    else:
        np.testing.assert_array_equal(got_stats.spans, want_stats.spans)


def _oracle_inputs():
    rng = np.random.default_rng(50)
    above = rng.integers(-2 ** 30, 2 ** 30, (50, 40))
    above[0, 0] = 2 ** 31
    dag = datasets.synth_directed_graph("random_dag", 700, seed=3).adjacency
    return {
        # 700 rows: two panels of rows; 0..255 over 300 columns takes the
        # norms' float64 panels, 0/1 data their exact float32 products
        "uint8": rng.integers(0, 256, (700, 300)).astype(np.uint8),
        "bool": rng.random((90, 600)) < 0.3,
        "negative-int64": rng.integers(-50, 50, (70, 80)),
        "integral-float64": dag,
        "float64": rng.standard_normal((60, 50)),
        "float32": rng.integers(-9, 9, (40, 30)).astype(np.float32),
        "int64-past-2^24": above,
    }


class TestOneStorageRoutine:
    """``build_sources`` and ``prepare_side`` against the two earlier paths,
    field by field, and without a float64 copy of integer data."""

    @pytest.mark.parametrize("case", list(_oracle_inputs()))
    def test_sources_match_the_earlier_paths(self, case):
        a = _oracle_inputs()[case]
        got, want = kernels.build_sources(a), _old_build_sources(a)
        _assert_same_side(got.x, want.x, got.x_stats, want.x_stats)
        _assert_same_side(got.z, want.z, got.z_stats, want.z_stats)
        # one side alone is the general path's stored side and statistics
        side, stats = kernels.prepare_side(a)
        want_side = np.asarray(a, dtype=np.float64)
        want_stats = _old_side_stats(want_side)
        _assert_same_side(side, _old_stored(want_side, want_stats.scale),
                          stats, want_stats)

    @pytest.mark.parametrize("mode", ["a0", "a1"])
    @pytest.mark.parametrize("shape", [(30, 22), (22, 30)])
    def test_a_projected_side_matches_the_general_path(self, mode, shape):
        a = make_matrix(*shape, seed=51)
        a[a > 1.0] = np.round(a[a > 1.0])
        out = compat_sources(a, mode)
        projected = "x" if shape[1] >= shape[0] else "z"
        c = make_compat(a, mode).c
        raw = (a if projected == "x" else a.T) @ c
        want_stats = _old_side_stats(raw)
        _assert_same_side(getattr(out, projected),
                          _old_stored(raw, want_stats.scale),
                          getattr(out, projected + "_stats"), want_stats)

    def test_integer_sources_hold_no_float64_copy(self):
        import tracemalloc
        n = 1500
        a = (np.random.default_rng(52).random((n, n)) < 0.3).astype(np.uint8)
        kernels.build_sources(a[:10, :10])
        tracemalloc.start()
        try:
            src = kernels.build_sources(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x and z in float32, and less than a float64 copy of A besides
        assert src.x.dtype == src.z.dtype == np.float32
        assert peak < 2 * n * n * 4 + n * n * 8 / 2

    def test_graph_sources_take_two_bytes_an_entry(self):
        # a float64 DAG: both sides packed from A's row panels, each in half
        # the bytes of a plain float32 side, with no full-size temporary but
        # the finiteness check's booleans, one byte an entry, freed before
        # the sides are made
        import tracemalloc
        n = 2001
        a = datasets.synth_directed_graph("random_dag", n, seed=9).adjacency
        kernels.build_sources(a[:10, :10])
        tracemalloc.start()
        try:
            src = kernels.build_sources(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sides = src.x.nbytes + src.z.nbytes
        assert sides == 2 * (n + 1) // 2 * n * 4  # 2 bytes an entry a side
        # a plain float32 copy of either side would add 4 bytes an entry
        assert peak < sides + n * n * 1.5
        x, z = plain_sides(src)
        np.testing.assert_array_equal(x, a)
        np.testing.assert_array_equal(z, a.T)

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((0, 3)), "ShapeMismatchError"),
        (np.zeros((2, 2, 2)), "ShapeMismatchError"),
        (np.array([[1.0, np.nan]]), "NonFiniteError"),
        (np.array([[np.inf, 0.0]], dtype=np.float32), "NonFiniteError"),
    ])
    def test_validation(self, bad, error):
        with pytest.raises(Exception) as info:
            kernels.prepare_side(bad, "A")
        assert type(info.value).__name__ == error
        assert "A" in str(info.value)

    def test_a_vector_is_one_row(self):
        side, stats = kernels.prepare_side([3, 0, 4])
        np.testing.assert_array_equal(side, [[3, 0, 4]])
        assert side.dtype == np.float32 and stats.sq_norms.tolist() == [25.0]


class TestPreparedSides:
    """Squared row norms and float32 scales are computed once per side."""

    @staticmethod
    def count(monkeypatch):
        seen = []
        prepare_side = kernels.prepare_side

        def counted(a, *args, **kwargs):
            seen.append(a)
            return prepare_side(a, *args, **kwargs)

        monkeypatch.setattr(kernels, "prepare_side", counted)
        return seen

    def test_sources_carry_their_statistics(self, monkeypatch):
        seen = self.count(monkeypatch)
        a = datasets.synth_directed_graph("two_block", 120, seed=6).adjacency
        src = kernels.build_sources(a)
        # a graph's two sides are packed and measured in one pass over A
        assert not seen and src.x_stats.packed and src.z_stats.packed
        np.testing.assert_array_equal(src.x_stats[0], (a * a).sum(1))
        np.testing.assert_array_equal(src.z_stats[0], (a * a).sum(0))
        assert src.x_stats[1] == src.z_stats[1] == 1.0
        spec = kernels.KernelSpec("sne", kernels.default_gamma(a))
        for _ in range(2):
            lazy = kernels.LazyKernelSource(spec, src)
            lazy.sample_blocks([1, 5, 9], [2, 4])
            lazy.full()
        assert not seen
        # a compat transform measures the side it projects, and only it
        rect = make_matrix(12, 9, seed=7)
        src = kernels.build_sources(rect)
        assert len(seen) == 2 and seen[1] is src.z
        out = apply_compat(make_compat(rect, "a1"), src)  # projects z
        assert len(seen) == 3 and seen[-1] is not src.z
        assert out.x_stats is src.x_stats
        np.testing.assert_array_equal(out.z_stats[0], (out.z * out.z).sum(1))

    def test_hand_built_sides_are_measured_once(self, monkeypatch):
        seen = self.count(monkeypatch)
        rng = np.random.default_rng(8)
        sources = kernels.DataSources(x=rng.standard_normal((20, 3)),
                                      z=rng.standard_normal((15, 3)))
        lazy = kernels.LazyKernelSource(rbf_spec(), sources)
        lazy.sample_blocks([0, 3], [1, 2])
        lazy.sample_blocks([0, 3, 4], [1, 2, 7])
        lazy.full()
        assert len(seen) == 2


# --- exact float32 Gram products ---------------------------------------------
# Every case below must give the plain float64 result bit for bit. Integer
# data within d * max|x| * max|z| <= 2^24 takes the float32 product; the
# rest must take the float64 one, and the cases one step past the bound,
# with non-integral data, and with huge integers against zeros are built so
# that a float32 product would differ (or be NaN).

def _ints(rng, shape, bound, full_row):
    """Integers in [-bound, bound]; row ``full_row`` is all ``bound``."""
    a = rng.integers(-bound, bound + 1, shape).astype(float)
    a[full_row] = bound
    return a


def _zero_one(rng, x_shape, z_shape):
    """0/1 data whose row 0 on each side is all ones."""
    x, z = ((rng.random(shape) < 0.5) * 1.0 for shape in (x_shape, z_shape))
    x[0], z[0] = 1.0, 1.0
    return x, z


def _one_per_row(rng, shape, bound):
    """Rows of one entry each, +-bound at a random column; every third row
    is zero."""
    a = np.zeros(shape)
    a[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = \
        rng.choice([-bound, bound], shape[0])
    a[1::3] = 0.0
    return a


def _gram_cases():
    """Row and column data sets, by case name."""
    rng = np.random.default_rng(40)
    graph = datasets.synth_directed_graph("two_block", 600, seed=4).adjacency
    src = kernels.build_sources(graph)
    # 700 nodes: two panels of rows on each side, so tiles contract over
    # the intersection of narrower spans
    dag = datasets.synth_directed_graph("random_dag", 700, seed=4).adjacency
    cycle = datasets.synth_directed_graph("cycle", 700).adjacency
    i, j = np.indices((700, 700))
    sparse = np.random.default_rng(46).random((2, 700, 700)) < 0.5
    banded = ((np.abs(i - j) <= 30) & sparse[0]) * 1.0
    # a whole panel of zero rows, scattered zero rows and zero columns
    holes = dag.copy()
    holes[:512] = 0.0
    holes[600::7] = 0.0
    holes[:, 650:] = 0.0
    # a chunk of sampled columns: a sorted random subset of a DAG's columns
    # against all of its rows, and the same product transposed; the chunk's
    # panels span nearly every feature
    chunk_dag = datasets.synth_directed_graph("random_dag", 1200,
                                              seed=4).adjacency
    picked = np.random.default_rng(47).choice(1200, 300, replace=False)
    chunk = chunk_dag.T[np.sort(picked)]
    # k / 2^20 with |k| <= 2^20: float64 sums of their products are exact
    # in any order, so every block is a bit-exact slice of the reference,
    # while float32 would round the products
    fine = 2.0 ** 20
    huge = rng.integers(0, 5, (50, 20)).astype(float)
    huge[::2, 3] = 1e39  # an integer, and inf in float32
    return {
        "graph": plain_sides(src),
        "triangular": (dag, dag.T),
        "cycle": (cycle, cycle.T),
        "banded": (banded, banded.T),
        "zero_rows_and_columns": (holes, holes.T),
        "zero_rows_against_dense": (holes, sparse[1, :400] * 1.0),
        "column_chunk": (chunk_dag, chunk),
        "column_chunk_transposed": (chunk, chunk_dag),
        "graph_tall_x": ((rng.random((700, 50)) < 0.3).astype(float),
                         (rng.random((200, 50)) < 0.3).astype(float)),
        "graph_tall_z": ((rng.random((200, 50)) < 0.3).astype(float),
                         (rng.random((700, 50)) < 0.3).astype(float)),
        # 64 * 512 * 512 = 2^24: float32 is still exact
        "at_bound": (_ints(rng, (30, 64), 512, 0),
                     _ints(rng, (600, 64), 512, 0)),
        # 97 * 257 * 673 = 2^24 + 1, odd: float32 cannot hold the (0, 0)
        # entry
        "past_bound": (_ints(rng, (600, 97), 257, 0),
                       _ints(rng, (40, 97), 673, 0)),
        "non_integral": (rng.integers(-2 ** 20, 2 ** 20, (600, 30)) / fine,
                         rng.integers(-2 ** 20, 2 ** 20, (90, 30)) / fine),
        "huge_vs_zero": (huge, np.zeros((30, 20))),
        # the long side's stored pairs of rows, row 2i + 4096 * row 2i+1:
        # c = isqrt(max |x|^2 * max |z|^2) bounds every dot product, and a
        # packed product's value p + 4096 q reads back exactly while
        # |p| <= c <= 2047. At c = 2047 the full rows' product, 2047, reads
        # back; at c = 2048 it would read as 4096 - 2048 with q one too
        # high, so the long side, 1100 rows, is read plain 512 rows at a
        # time. Both long sides have more than one panel, the first an odd
        # number of rows
        "pack_inside": _zero_one(rng, (41, 2047), (1101, 2047)),
        "pack_outside": _zero_one(rng, (41, 2048), (1100, 2048)),
        # an odd long side, x or z, ends in a pair whose high row is zero
        "odd_long_x": ((rng.random((701, 60)) < 0.3) * 1.0,
                       (rng.random((200, 60)) < 0.3) * 1.0),
        "odd_long_z": ((rng.random((200, 60)) < 0.3) * 1.0,
                       (rng.random((701, 60)) < 0.3) * 1.0),
        # sides of +-2047, the largest scale that is stored packed: one
        # entry a row against +-1 keeps c = 2047, and the packed product
        # reads signed low rows back; three entries a row give c = 6141,
        # read plain
        "signed_2047_packed": (_one_per_row(rng, (700, 30), 2047),
                               _one_per_row(rng, (300, 30), 1)),
        "signed_2047_plain_long": (_ints(rng, (700, 3), 2047, 0),
                                   _ints(rng, (200, 3), 1, 0)),
        # scale 3000 is stored plain, as a long side against a packed short
        # side, x or z
        "scale_3000_long_x": (_ints(rng, (700, 4), 3000, 0),
                              (rng.random((200, 4)) < 0.5) * 1.0),
        "scale_3000_long_z": ((rng.random((200, 4)) < 0.5) * 1.0,
                              _ints(rng, (700, 4), 3000, 0)),
        # negative low rows read back; an odd short side, x or z
        "signed": (_ints(rng, (61, 30), 3, 0), _ints(rng, (150, 30), 3, 0)),
        "signed_flipped": (_ints(rng, (150, 30), 3, 0),
                           _ints(rng, (61, 30), 3, 0)),
        "one_row_short_side": (_ints(rng, (1, 40), 3, 0),
                               _ints(rng, (300, 40), 3, 0)),
        # a zero long side would give c = 0; each norm counts as at least 1,
        # so c = 12 comes from the short side's largest norm, 16 * 3^2, and
        # bounds every packed entry, at most 3 (B + 1), too
        "zero_long_side": (_ints(rng, (31, 16), 3, 0), np.zeros((90, 16))),
    }


def _wide_gamma(x, z):
    """A bandwidth no squared distance exceeds, so no sne row underflows."""
    return float(np.sqrt(x.shape[1]) * (np.abs(x).max() + np.abs(z).max()))


def _reference_numerators(spec, x, z):
    """Linear products or rbf numerators, in plain float64 (stored float32
    data is read as float64 first)."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    g = x @ z.T
    if spec.family == "linear":
        return g
    d = (x * x).sum(1)[:, None] - 2.0 * g + (z * z).sum(1)[None, :]
    return np.exp(-np.maximum(d, 0.0) / (spec.gamma * spec.gamma))


def _reference_matrix(spec, x, z):
    g = _reference_numerators(spec, x, z)
    return g / g.sum(1, keepdims=True) if spec.family == "sne" else g


def _gram_params():
    for name in _gram_cases():
        families = (("linear", "rbf") if name == "huge_vs_zero"
                    else ("linear", "rbf", "sne"))
        for family in families:
            yield pytest.param(name, family, id=f"{name}-{family}")


class TestExactGram:
    @pytest.mark.parametrize("name, family", _gram_params())
    def test_kernel_matrix_equals_float64(self, name, family):
        x, z = _gram_cases()[name]
        spec = kernels.KernelSpec(family, _wide_gamma(x, z))
        got = kernels.kernel_matrix(spec, kernels.DataSources(x=x, z=z))
        np.testing.assert_array_equal(got, _reference_matrix(spec, x, z))

    @pytest.mark.parametrize("name, family", _gram_params())
    def test_incremental_sample_blocks_equal_float64(self, name, family):
        x, z = _gram_cases()[name]
        spec = kernels.KernelSpec(family, _wide_gamma(x, z))
        numer = _reference_numerators(spec, x, z)
        big_n, big_m = numer.shape
        row_order = np.random.default_rng(1).permutation(big_n)
        col_order = np.random.default_rng(2).permutation(big_m)
        src = kernels.LazyKernelSource(spec, kernels.DataSources(x=x, z=z))
        sums, cols = np.zeros(big_n), np.empty(0, dtype=int)
        half = (max(1, big_n // 2), max(1, big_m // 2))
        for n, m in ((3, 2), (9, 7), half, (big_n, big_m)):
            # nested sets: each call's rows and columns begin with the
            # last's (or keep a one-row side's one row), and the sne sums
            # add the new columns' block, summed row by row
            new_cols = col_order[cols.size:m]
            rows, cols = row_order[:n], col_order[:m]
            sums = sums + np.ascontiguousarray(numer[:, new_cols]).sum(1)
            want_big_m, want_n_big = numer[:, cols], numer[rows]
            if family == "sne":
                denom = sums * (big_m / m)
                want_big_m = want_big_m / denom[:, None]
                want_n_big = want_n_big / denom[rows, None]
            g_nm, g_big_m, g_n_big = src.sample_blocks(rows, cols)
            np.testing.assert_array_equal(g_big_m, want_big_m)
            np.testing.assert_array_equal(g_n_big, want_n_big)
            np.testing.assert_array_equal(g_nm, want_big_m[rows])
        # every call after the first evaluated only its new entries
        assert src.entries_evaluated == big_n * m + n * big_m

    @pytest.mark.parametrize("case", ["graph", "graph_tall", "dag_chunk",
                                      "past_pack", "at_bound", "past_bound",
                                      "non_integral"])
    @pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
    def test_oos_rows_and_columns_equal_float64(self, case, family):
        rng = np.random.default_rng(41)
        if case == "past_pack":
            # new points of 0..40 push c past 2047 against the packed
            # 600-node training side, which is then read plain, 512 rows at
            # a time
            a = datasets.synth_directed_graph("two_block", 600,
                                              seed=5).adjacency
            new_x, new_z = (rng.integers(0, 41, (40, 600)).astype(float)
                            for _ in range(2))
            train = kernels.build_sources(a)
            assert train.x_stats.packed and train.z_stats.packed
            c = np.sqrt(train.x_stats.sq_norms.max()
                        * (new_x * new_x).sum(1).max())
            assert c > 2048
        elif case.startswith("graph"):
            a = datasets.synth_directed_graph("two_block", 600,
                                              seed=5).adjacency
            n_new = 700 if case == "graph_tall" else 40
            new_x = (rng.random((n_new, 600)) < 0.3).astype(float)
            new_z = (rng.random((n_new, 600)) < 0.3).astype(float)
        elif case == "dag_chunk":
            # sorted random rows and columns of another DAG: their chunk
            # spans nearly every feature
            a = datasets.synth_directed_graph("random_dag", 600,
                                              seed=5).adjacency
            other = datasets.synth_directed_graph("random_dag", 600,
                                                  seed=6).adjacency
            new_x = other[np.sort(rng.choice(600, 300, replace=False))]
            new_z = other.T[np.sort(rng.choice(600, 300, replace=False))]
        elif case == "at_bound":  # 64 * 512 * 512 = 2^24
            a = _ints(rng, (64, 64), 512, 0)
            a[:, 0] = 512
            new_x, new_z = (_ints(rng, (20, 64), 512, 0) for _ in range(2))
        elif case == "past_bound":  # 97 * 257 * 673 = 2^24 + 1
            a = _ints(rng, (97, 97), 673, 0)
            a[:, 0] = 673
            new_x, new_z = (_ints(rng, (20, 97), 257, 0) for _ in range(2))
        else:
            fine = 2.0 ** 20
            a = rng.integers(-2 ** 20, 2 ** 20, (60, 60)) / fine
            new_x, new_z = (rng.integers(-2 ** 20, 2 ** 20, (20, 60)) / fine
                            for _ in range(2))
        spec = kernels.KernelSpec(family, _wide_gamma(
            a, new_x if case == "past_pack" else a))
        model = ksvd.fit(a, spec, r=3)
        count = len(new_x)
        # the projection of the plain float64 numerators, chunk by chunk
        rows = _reference_numerators(spec, new_x, model.train_z)
        got_x = ksvd.transform_oos(model, new_x=new_x)
        np.testing.assert_array_equal(
            got_x, ksvd._oos_scores(model, "x", count, lambda k: rows[k]))
        cols = _reference_numerators(spec, model.train_x, new_z)
        got_z = ksvd.transform_oos(model, new_z=new_z)
        np.testing.assert_array_equal(got_z, ksvd._oos_scores(
            model, "z", count, lambda k: np.ascontiguousarray(cols[:, k])))

        # the dense formula: normalized kernel rows and columns, centered
        # with center_oos, times B / sqrt(lambda)
        scale = np.sqrt(model.lam)[None, :]
        if family == "sne":
            rows = rows / rows.sum(1, keepdims=True)
            cols = cols / model.sne_row_denoms[:, None]
        rows = kernels.center_oos(rows, model.centering, "row")
        cols = kernels.center_oos(cols, model.centering, "column").T
        assert_close_to_largest(got_x, rows @ model.b_psi / scale, 1e-12)
        assert_close_to_largest(got_z, cols @ model.b_phi / scale, 1e-12)

    def test_nested_sample_blocks_on_both_axes_read_rows_from_pairs(self):
        # a 701-node DAG, both sides packed, the last pair half empty; three
        # nested draws on both axes, each adding odd and even rows and
        # columns (the last and first among them), gather their rows from
        # the stored pairs as the short side of their chunk's product
        a = datasets.synth_directed_graph("random_dag", 701, seed=8).adjacency
        src = kernels.build_sources(a)
        assert src.x.shape == src.z.shape == (351, 701)
        spec = kernels.KernelSpec("sne", _wide_gamma(a, a))
        lazy = kernels.LazyKernelSource(spec, src)
        numer = _reference_numerators(spec, a, a.T)
        rows = np.random.default_rng(5).permutation(701)
        cols = np.random.default_rng(6).permutation(701)
        rows[[0, 1]], cols[[2, 3]] = (700, 0), (0, 700)
        sums, done = np.zeros(701), 0
        for n, m in ((2, 4), (35, 60), (300, 301)):
            x_rows, z_rows = rows[:n], cols[:m]
            # the sne sums add each new chunk's row sums, as the source does
            sums = sums + np.ascontiguousarray(numer[:, cols[done:m]]).sum(1)
            done = m
            np.testing.assert_array_equal(
                kernels.plain(src.x, src.x_stats, x_rows), a[x_rows])
            np.testing.assert_array_equal(
                kernels.plain(src.z, src.z_stats, z_rows), a.T[z_rows])
            g_nm, g_big_m, g_n_big = lazy.sample_blocks(x_rows, z_rows)
            denom = sums * (701 / m)
            want = numer[:, z_rows] / denom[:, None]
            np.testing.assert_array_equal(np.asarray(g_big_m), want)
            np.testing.assert_array_equal(
                np.asarray(g_n_big), numer[x_rows] / denom[x_rows, None])
            np.testing.assert_array_equal(g_nm, want[x_rows])
        assert lazy.entries_evaluated == 701 * 301 + 300 * 701

    @pytest.mark.parametrize("integral", [True, False])
    def test_tiles_contract_only_the_span_intersection(self, integral):
        # spans that claim fewer columns than the data hold show what each
        # tile contracts: the float32 path only the columns where the two
        # panels' spans meet, the float64 path (non-integral data) every one
        rng = np.random.default_rng(44)
        x = rng.integers(1, 4, (700, 40)) / (1.0 if integral else 4.0)
        z = rng.integers(1, 4, (600, 40)) / (1.0 if integral else 4.0)
        (x32, x_side), (z32, z_side) = (kernels.prepare_side(x),
                                        kernels.prepare_side(z))
        # spans are measured only for a side the float32 path can take
        assert (x_side.spans is None) is (z_side.spans is None) is (
            not integral)
        # panel spans: x rows 0:512 cover 0:12, x rows 512:700 cover 10:40;
        # z rows 0:512 cover 20:40, z rows 512:600 cover 0:25
        x_spans = np.empty((700, 2), dtype=int)
        x_spans[:256], x_spans[256:512], x_spans[512:] = (0, 8), (4, 12), \
            (10, 40)
        z_spans = np.empty((600, 2), dtype=int)
        z_spans[:512], z_spans[512:] = (20, 40), (0, 25)
        got = kernels._gram(x32, z32, x_side._replace(spans=x_spans),
                            z_side._replace(spans=z_spans))
        if not integral:
            np.testing.assert_array_equal(got, x @ z.T)
            return
        want = np.zeros((700, 600))  # x panel 0 against z panel 0: empty
        want[:512, 512:] = x[:512, 0:12] @ z[512:, 0:12].T
        want[512:, :512] = x[512:, 20:40] @ z[:512, 20:40].T
        want[512:, 512:] = x[512:, 10:25] @ z[512:, 10:25].T
        np.testing.assert_array_equal(got, want)

    def test_tiles_join_neighbours_over_the_same_columns(self):
        panels = [(slice(0, 512), 0, 40), (slice(512, 1024), 0, 40),
                  (slice(1024, 1536), 30, 60), (slice(1536, 2048), 50, 60),
                  (slice(2048, 2560), 70, 80), (slice(2560, 3072), 0, 5)]
        # every panel meets an x span of 0:100 over its own columns
        assert kernels._tiles(panels, 0, 100) == [
            (slice(0, 1024), 0, 40), (slice(1024, 1536), 30, 60),
            (slice(1536, 2048), 50, 60), (slice(2048, 2560), 70, 80),
            (slice(2560, 3072), 0, 5)]
        # x span 10:35 clamps the first two alike; the last three miss it,
        # and misses join too
        assert kernels._tiles(panels, 10, 35) == [
            (slice(0, 1024), 10, 35), (slice(1024, 1536), 30, 35),
            (slice(1536, 3072), 0, 0)]

    @pytest.mark.parametrize("flip", [False, True])
    def test_a_short_side_panel_contracts_its_span_whole(self, flip):
        # the 200-row side is the shorter one, x or z: one panel, never cut,
        # whose span, 0:35, holds its narrower rows' spans; spans set by
        # hand, claiming fewer columns than the data hold, show what each
        # tile contracts
        rng = np.random.default_rng(48)
        long = rng.integers(1, 4, (1100, 40)).astype(float)
        short = rng.integers(1, 4, (200, 40)).astype(float)
        long_spans = np.empty((1100, 2), dtype=int)
        long_spans[:512], long_spans[512:1024], long_spans[1024:] = \
            (0, 40), (25, 40), (36, 40)
        short_spans = np.empty((200, 2), dtype=int)
        short_spans[:128], short_spans[128:] = (0, 10), (20, 35)
        assert list(kernels._layout(short_spans, long_spans)) == [
            (slice(0, 200), [(slice(0, 512), 0, 35),
                             (slice(512, 1024), 25, 35),
                             (slice(1024, 1100), 0, 0)])]
        want = np.zeros((1100, 200))  # long rows 1024: miss the panel
        want[:512] = long[:512, 0:35] @ short[:, 0:35].T
        want[512:1024] = long[512:1024, 25:35] @ short[:, 25:35].T
        sides = [(long, long_spans), (short, short_spans)]
        if flip:
            sides, want = sides[::-1], want.T
        (x, x_spans), (z, z_spans) = sides
        (x32, x_side), (z32, z_side) = (kernels.prepare_side(x),
                                        kernels.prepare_side(z))
        got = kernels._gram(x32, z32, x_side._replace(spans=x_spans),
                            z_side._replace(spans=z_spans))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", list(_gram_cases()))
    def test_tiles_cover_every_entry_over_their_panels_span_meeting(
            self, name, monkeypatch):
        # every float32 product is laid out over panels of 512 rows of the
        # shorter side, x on a tie; each tile contracts the meeting of its
        # two panels' spans, (0, 0) when they do not meet, and the tiles
        # cover every entry of the product once
        x, z = _gram_cases()[name]
        (x32, x_side), (z32, z_side) = (kernels.prepare_side(x),
                                        kernels.prepare_side(z))
        laid = []
        layout = kernels._layout
        monkeypatch.setattr(kernels, "_layout",
                            lambda *a: laid.extend(layout(*a)) or laid)
        got = kernels._gram(x32, z32, x_side, z_side)
        np.testing.assert_array_equal(got, _reference_numerators(
            kernels.KernelSpec("linear"), x, z))
        if x.shape[1] * x_side.scale * z_side.scale > 2 ** 24:
            assert not laid  # the float64 product
            return
        short, long = sorted((x_side.spans, z_side.spans), key=len)

        def span(spans, rows):
            return spans[rows, 0].min(), spans[rows, 1].max()

        covered = np.zeros((len(short), len(long)), dtype=int)
        for rows, tiles in laid:
            assert rows == slice(rows.start, min(rows.start + 512,
                                                 len(short)))
            lo, hi = span(short, rows)
            for cols, t_lo, t_hi in tiles:
                covered[rows, cols] += 1
                for begin in range(cols.start, cols.stop, 512):
                    p_lo, p_hi = span(long, slice(begin, begin + 512))
                    meet = (max(lo, p_lo), min(hi, p_hi))
                    assert (t_lo, t_hi) == (meet if meet[0] < meet[1]
                                            else (0, 0))
        assert (covered == 1).all()

    def test_dense_data_take_one_product_per_x_panel(self, monkeypatch):
        # two_block panels all reach both ends: one tile per x panel
        graph = datasets.synth_directed_graph("two_block", 1100,
                                              seed=0).adjacency
        src = kernels.build_sources(graph)
        calls = []
        tiles = kernels._tiles
        monkeypatch.setattr(kernels, "_tiles",
                            lambda *a: calls.append(tiles(*a)) or calls[-1])
        got = kernels._gram(src.x, src.z, src.x_stats, src.z_stats)
        assert calls == [[(slice(0, 1100), 0, 1100)]] * 3
        np.testing.assert_array_equal(got, graph @ graph)

    @pytest.mark.parametrize("flip", [False, True])
    def test_a_dense_chunk_takes_one_product_per_512_rows(self, flip,
                                                          monkeypatch):
        # the shapes of an out-of-sample projection: 512 new two_block
        # points against 2000 training points, as rows (x) and as columns
        # (z); the chunk reaches both ends, so the training side joins into
        # one tile
        graph = datasets.synth_directed_graph("two_block", 2000,
                                              seed=0).adjacency
        new = datasets.synth_directed_graph("two_block", 2000,
                                            seed=1).adjacency
        picked = np.sort(np.random.default_rng(49).choice(2000, 512,
                                                          replace=False))
        x, z = (graph, new.T[picked]) if flip else (new[picked], graph.T)
        laid = []
        layout = kernels._layout
        monkeypatch.setattr(kernels, "_layout",
                            lambda *a: laid.extend(layout(*a)) or laid)
        (x32, x_side), (z32, z_side) = (kernels.prepare_side(x),
                                        kernels.prepare_side(z))
        got = kernels._gram(x32, z32, x_side, z_side)
        assert laid == [(slice(0, 512), [(slice(0, 2000), 0, 2000)])]
        np.testing.assert_array_equal(got, x @ z.T)

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_spans_of_every_row(self, dtype):
        # zero rows and columns, single entries, both ends, negative entries
        # and -0.0, which is zero; rows 100:500 have no nonzero among their
        # first 150 columns and rows 600:700 none among their last 100, so
        # they are read whole, in several panels; int16 takes the integer
        # path
        rng = np.random.default_rng(45)
        a = (rng.random((700, 200)) < 0.05) * rng.integers(-3, 4, (700, 200))
        a = a.astype(float)
        a[100:500, :150] = 0.0
        a[600:, 100:] = 0.0
        a[3], a[4], a[5] = 0.0, 0.0, 1.0
        a[3, 7], a[4, [0, 199]] = 1.0, -2.0
        a[6] = -0.0
        a[:, 30] = 0.0
        src = kernels.build_sources(a.astype(dtype))
        np.testing.assert_array_equal(src.x_stats.spans, loop_spans(a))
        np.testing.assert_array_equal(src.z_stats.spans, loop_spans(a.T))
        assert tuple(src.x_stats.spans[6]) == (200, 0)
        assert tuple(src.z_stats.spans[30]) == (700, 0)

    def test_float32_non_integral_sources_give_float64_kernel(self):
        # hand-built float32 data that float32 cannot multiply exactly are
        # stored in float64; the kernel is the float64 one of the same values
        rng = np.random.default_rng(42)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        z = rng.standard_normal((20, 4)).astype(np.float32)
        spec = rbf_spec(2.0)
        got = kernels.kernel_matrix(spec, kernels.DataSources(x=x, z=z))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, _reference_matrix(spec, x, z))

    @pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
    def test_int64_sources_past_the_float32_bound(self, family):
        rng = np.random.default_rng(43)
        x = rng.integers(-2 ** 25, 2 ** 25, (30, 4))
        z = rng.integers(-2 ** 25, 2 ** 25, (20, 4))
        spec = kernels.KernelSpec(family, _wide_gamma(x, z))
        got = kernels.kernel_matrix(spec, kernels.DataSources(x=x, z=z))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, _reference_matrix(spec, x, z))

    def test_float32_scale_of_each_side(self):
        def scale(a):
            return kernels.prepare_side(np.array(a))[1].scale

        assert scale([[0.0, 1.0], [1.0, 0.0]]) == 1
        assert scale(np.zeros((2, 3))) == 1
        assert scale([[-7.0, 2.0]]) == 7
        assert scale([[1.0, 0.5]]) == np.inf
        # integer types take it from their extremes
        assert scale(np.array([[-7, 2]], dtype=np.int8)) == 7
        assert scale(np.zeros((2, 3), dtype=bool)) == 1


def _pool_outputs(spec, x, z):
    """Every block the kernel sources of x and z evaluate: the full matrix
    and the blocks of three nested ``sample_blocks`` calls, the last over
    every row and column, with the entry count."""
    sources = kernels.DataSources(x=x, z=z)
    got = [kernels.kernel_matrix(spec, sources)]
    src = kernels.LazyKernelSource(spec, sources)
    big_n, big_m = src.shape
    row_order = np.random.default_rng(3).permutation(big_n)
    col_order = np.random.default_rng(4).permutation(big_m)
    for n, m in ((3, 2), (max(1, big_n // 2), max(1, big_m // 2)),
                 (big_n, big_m)):
        blocks = src.sample_blocks(row_order[:n], col_order[:m])
        got += [np.asarray(block) for block in blocks]
    # every call after the first evaluated only its new entries
    assert src.entries_evaluated == 2 * big_n * big_m
    return got


class TestGramPool:
    """Each tile of a float32 Gram product is one unit of work on the
    pool; the float64 product stays whole. Results are the same bits at
    any pool size."""

    @pytest.mark.parametrize("name, family", _gram_params())
    def test_every_block_is_the_same_at_pool_sizes_one_to_three(
            self, name, family, monkeypatch):
        x, z = _gram_cases()[name]
        spec = kernels.KernelSpec(family, _wide_gamma(x, z))
        monkeypatch.setattr(parallel, "POOL_SIZE", 1)
        want = _pool_outputs(spec, x, z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for size in (2, 3):
                monkeypatch.setattr(parallel, "POOL_SIZE", size)
                for got, expected in zip(_pool_outputs(spec, x, z), want,
                                         strict=True):
                    assert np.array_equal(got, expected)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def units(monkeypatch) -> list:
        """Records the unit count of every ``parallel_map`` call."""
        counts, parallel_map = [], parallel.parallel_map
        monkeypatch.setattr(parallel, "parallel_map", lambda func, items: (
            counts.append(len(items)) or parallel_map(func, items)))
        return counts

    def test_dead_row_on_a_pool_of_two_warns_once(self, monkeypatch):
        # 600 sampled columns of z: two panels of the shorter side, so the
        # G_Nm chunk is two units
        monkeypatch.setattr(parallel, "POOL_SIZE", 2)
        counts = self.units(monkeypatch)
        rng = np.random.default_rng(14)
        x = rng.integers(0, 3, (1200, 3)).astype(float)
        z = rng.integers(0, 3, (1200, 3)).astype(float)
        x[[5, 900]] = 1000.0
        src = kernels.LazyKernelSource(kernels.KernelSpec("sne", 1.0),
                                       kernels.DataSources(x=x, z=z))
        with pytest.warns(EmptyDenominatorWarning) as seen:
            src.sample_blocks(np.arange(0, 1200, 4), np.arange(0, 1200, 2))
        assert counts == [2, 1]
        assert [str(w.message) for w in seen] == [
            "2 sne row(s) underflowed to zero; substituting uniform rows"]
        assert seen[0].filename == __file__
        np.testing.assert_array_equal(src.row_denoms[[5, 900]], 0.0)

    def test_a_one_tile_block_makes_no_pool(self, monkeypatch):
        # a dense 300-node graph is one tile: it runs inline
        monkeypatch.setattr(parallel, "POOL_SIZE", 2)
        monkeypatch.setattr(parallel, "_pool", None)
        counts = self.units(monkeypatch)
        graph = datasets.synth_directed_graph("two_block", 300,
                                              seed=0).adjacency
        got = kernels.kernel_matrix(kernels.KernelSpec("linear"),
                                    kernels.build_sources(graph))
        assert counts == [1]
        assert parallel._pool is None
        np.testing.assert_array_equal(got, graph @ graph)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 1000),
       st.floats(0.5, 20.0))
def test_sne_row_stochastic_property(n, m, seed, gamma):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    z = rng.standard_normal((m, 3))
    spec = kernels.KernelSpec(family="sne", gamma=gamma)
    g = kernels.kernel_matrix(spec, kernels.DataSources(x=x, z=z))
    np.testing.assert_allclose(g.sum(1), np.ones(n), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 1000))
def test_centering_kills_margins_property(n, m, seed):
    g = np.random.default_rng(seed).standard_normal((n, m)) * 10
    gc, _ = kernels.center(g)
    bound = 1e-10 * max(np.linalg.norm(g), 1.0)
    assert np.abs(gc.sum(0)).max() <= bound
    assert np.abs(gc.sum(1)).max() <= bound
