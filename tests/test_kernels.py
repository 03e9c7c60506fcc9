import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aksvd import datasets, kernels, ksvd
from aksvd.compat import compat_pseudoinverse, make_compat
from aksvd.errors import (
    CompatibilityMissingError,
    ConfigError,
    EmptyDenominatorWarning,
    LengthMismatchError,
)
from conftest import make_matrix


def rbf_spec(gamma=1.0):
    return kernels.KernelSpec(family="rbf", gamma=gamma)


class TestSources:
    def test_build(self):
        s = kernels.build_sources([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(s.x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(s.z, [[1, 3], [2, 4]])

    def test_symmetric_matrix_gives_equal_sides(self):
        a = make_matrix(5, 5, seed=1)
        a = a + a.T
        s = kernels.build_sources(a)
        np.testing.assert_array_equal(s.x, s.z)

    def test_shapes(self):
        s = kernels.build_sources(np.ones((3, 2)))
        assert s.x.shape == (3, 2) and s.z.shape == (2, 3)

    # the storage rule: float32 when every entry is an integer of magnitude
    # at most 2^24, float64 otherwise; either way every entry is kept exactly
    @pytest.mark.parametrize("value, dtype", [
        pytest.param(1.0, np.float32, id="zero-one"),
        pytest.param(2.0 ** 24, np.float32, id="two-to-24"),
        pytest.param(-2.0 ** 24, np.float32, id="minus-two-to-24"),
        pytest.param(2.0 ** 24 + 1, np.float64, id="two-to-24-plus-1"),
        pytest.param(0.5, np.float64, id="non-integral"),
        pytest.param(-0.0, np.float32, id="negative-zero"),
    ])
    def test_storage_rule(self, value, dtype):
        a = np.array([[0.0, 1.0, value], [1.0, 0.0, 1.0]])
        s = kernels.build_sources(a)
        assert s.x.dtype == dtype and s.z.dtype == dtype
        assert s.x.flags.c_contiguous and s.z.flags.c_contiguous
        np.testing.assert_array_equal(s.x, a)
        np.testing.assert_array_equal(s.z, a.T)
        np.testing.assert_array_equal(np.signbit(s.x), np.signbit(a))
        assert kernels.stored(a).dtype == dtype

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


class TestKernelMatrix:
    def test_linear_pinv_recovers_a(self):
        a = make_matrix(6, 6, seed=4, cond=10)
        spec = kernels.KernelSpec(family="linear", compat=compat_pseudoinverse(a))
        g = kernels.kernel_matrix(spec, kernels.build_sources(a))
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


class TestLazySource:
    def setup_method(self):
        self.a = make_matrix(12, 9, seed=20)
        self.rows = np.array([0, 3, 7, 11])
        self.cols = np.array([1, 2, 5, 6, 8])

    def test_rbf_blocks_match_full(self):
        spec = kernels.KernelSpec(family="rbf", gamma=2.0,
                                  compat=make_compat(self.a, "a2", seed=0))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
        g_nm, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        g = src.full()
        np.testing.assert_allclose(g_big_m, g[:, self.cols], atol=1e-14)
        np.testing.assert_allclose(g_n_big, g[self.rows, :], atol=1e-14)
        np.testing.assert_allclose(g_nm, g[np.ix_(self.rows, self.cols)],
                                   atol=1e-14)

    def test_block_consistency(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0,
                                  compat=make_compat(self.a, "a1"))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
        g_nm, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        np.testing.assert_array_equal(g_nm, g_big_m[self.rows])
        # two separate evaluation paths agree to floating-point tolerance
        np.testing.assert_allclose(g_n_big[:, self.cols], g_nm, atol=1e-13)

    def test_full_sampling_blocks_match_full(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0,
                                  compat=make_compat(self.a, "a1"))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
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
        spec = kernels.KernelSpec(family="sne", gamma=3.0,
                                  compat=make_compat(self.a, "a1"))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
        _, g_big_m, g_n_big = src.sample_blocks(self.rows, self.cols)
        numer = kernels.LazyKernelSource(
            kernels.KernelSpec(family="rbf", gamma=3.0, compat=spec.compat),
            kernels.build_sources(self.a)).full()
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
        np.testing.assert_array_equal(g_big_m[0], [0.25, 0.25])
        np.testing.assert_array_equal(g_n_big[0], np.full(4, 0.25))

    def test_streaming_stats_match_center(self):
        for family in ("sne", "rbf", "linear"):
            spec = kernels.KernelSpec(family=family, gamma=3.0,
                                      compat=make_compat(self.a, "a1"))
            src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
            _, want = kernels.center(src.full())
            got = src.streaming_stats()
            np.testing.assert_allclose(got.row_means, want.row_means,
                                       atol=1e-14)
            np.testing.assert_allclose(got.col_means, want.col_means,
                                       atol=1e-14)
            assert got.grand_mean == pytest.approx(want.grand_mean, abs=1e-14)

    def test_entry_accounting(self):
        spec = kernels.KernelSpec(family="rbf", gamma=2.0,
                                  compat=make_compat(self.a, "a2", seed=1))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
        src.sample_blocks(self.rows, self.cols)
        n_rows, n_cols = len(self.rows), len(self.cols)
        assert src.entries_evaluated == 12 * n_cols + n_rows * 9

    def test_superset_call_evaluates_only_new_entries(self):
        # the second call's sets contain the first's, interleaved and out
        # of order; its blocks equal a fresh source's
        a = make_matrix(30, 25, seed=21)
        first_rows, first_cols = np.array([2, 9, 17]), np.array([1, 4, 11, 20])
        rows = np.array([0, 17, 2, 23, 9, 29])
        cols = np.array([20, 1, 3, 4, 11, 15, 24])
        for family in ("sne", "rbf", "linear"):
            spec = kernels.KernelSpec(family=family, gamma=4.0,
                                      compat=make_compat(a, "a1"))
            src = kernels.LazyKernelSource(spec, kernels.build_sources(a))
            big_n, big_m = src.shape
            src.sample_blocks(first_rows, first_cols)
            before = src.entries_evaluated
            got = src.sample_blocks(rows, cols)
            assert src.entries_evaluated - before == \
                big_n * (cols.size - 4) + (rows.size - 3) * big_m
            fresh = kernels.LazyKernelSource(spec, kernels.build_sources(a))
            want = fresh.sample_blocks(rows, cols)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-14, atol=0)
            if family == "sne":
                np.testing.assert_allclose(src.row_denoms, fresh.row_denoms,
                                           rtol=1e-14, atol=0)

    def test_call_without_previous_sets_starts_over(self):
        spec = kernels.KernelSpec(family="sne", gamma=3.0,
                                  compat=make_compat(self.a, "a1"))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(self.a))
        big_n, big_m = src.shape
        src.sample_blocks(self.rows, self.cols)
        # drops column 1: everything is evaluated again
        rows, cols = np.array([0, 3, 7]), np.array([2, 5, 6])
        before = src.entries_evaluated
        got = src.sample_blocks(rows, cols)
        assert src.entries_evaluated - before == big_n * 3 + 3 * big_m
        want = kernels.LazyKernelSource(
            spec, kernels.build_sources(self.a)).sample_blocks(rows, cols)
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


def _gram_cases():
    """Row and column data sets, by case name."""
    rng = np.random.default_rng(40)
    graph = datasets.synth_directed_graph("two_block", 600, seed=4).adjacency
    src = kernels.build_sources(graph)
    # k / 2^20 with |k| <= 2^20: float64 sums of their products are exact
    # in any order, so every block is a bit-exact slice of the reference,
    # while float32 would round the products
    fine = 2.0 ** 20
    huge = rng.integers(0, 5, (50, 20)).astype(float)
    huge[::2, 3] = 1e39  # an integer, and inf in float32
    return {
        "graph": (src.x, src.z),
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
        for n, m in ((3, 2), (9, 7), (big_n // 2, big_m // 2), (big_n, big_m)):
            # nested sets: each call adds rows and columns to the last, and
            # the sne sums add the new columns' block, summed row by row
            prev_cols = cols
            rows, cols = np.sort(row_order[:n]), np.sort(col_order[:m])
            new_cols = cols[~np.isin(cols, prev_cols)]
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

    @pytest.mark.parametrize("case", ["graph", "graph_tall", "at_bound",
                                      "past_bound", "non_integral"])
    @pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
    def test_oos_rows_and_columns_equal_float64(self, case, family):
        rng = np.random.default_rng(41)
        if case.startswith("graph"):
            a = datasets.synth_directed_graph("two_block", 600,
                                              seed=5).adjacency
            n_new = 700 if case == "graph_tall" else 40
            new_x = (rng.random((n_new, 600)) < 0.3).astype(float)
            new_z = (rng.random((n_new, 600)) < 0.3).astype(float)
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
        spec = kernels.KernelSpec(family, _wide_gamma(a, a))
        model = ksvd.fit(a, spec, r=3)
        scale = np.sqrt(model.lam)[None, :]

        rows = _reference_matrix(spec, new_x, model.train_z)
        rows = kernels.center_oos(rows, model.centering, "row")
        np.testing.assert_array_equal(ksvd.transform_oos(model, new_x=new_x),
                                      rows @ model.b_psi / scale)
        cols = _reference_numerators(spec, model.train_x, new_z)
        if family == "sne":
            cols = cols / model.sne_row_denoms[:, None]
        cols = kernels.center_oos(cols, model.centering, "column").T
        np.testing.assert_array_equal(ksvd.transform_oos(model, new_z=new_z),
                                      cols @ model.b_phi / scale)

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
        assert kernels._side_stats(np.array([[0.0, 1.0], [1.0, 0.0]]))[1] == 1
        assert kernels._side_stats(np.zeros((2, 3)))[1] == 1
        assert kernels._side_stats(np.array([[-7.0, 2.0]]))[1] == 7
        assert kernels._side_stats(np.array([[1.0, 0.5]]))[1] == np.inf


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
