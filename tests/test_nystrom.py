from dataclasses import replace

import numpy as np
import pytest

from aksvd import datasets, kernels, nystrom
from aksvd.errors import (
    ConfigError,
    EmptyDenominatorWarning,
    NonFiniteError,
    RankTooLargeError,
    SampleTooLargeError,
    SubproblemRankDeficientWarning,
    ToleranceUnreachableError,
    ZeroColumnError,
)
from aksvd.linalg import (
    SvdResult,
    canonicalize_signs,
    svd_exact,
    svd_truncated,
)
from conftest import dense_lift, eta_oracle, make_matrix


def exact_cfg(r, **kw):
    return nystrom.NystromConfig(r=r, subproblem="exact", **kw)


class TestSubsample:
    def test_full_sampling_is_identity(self):
        g = make_matrix(10, 8, seed=0)
        cfg = exact_cfg(2, n=10, m=8)
        g_nm, g_big_m, g_n_big = kernels.as_kernel_source(g).sample_blocks(
            *nystrom.sample_indices(g.shape, cfg))
        np.testing.assert_array_equal(g_nm, g)
        np.testing.assert_array_equal(g_big_m, g)
        np.testing.assert_array_equal(g_n_big, g)

    def test_deterministic_indices(self):
        g = make_matrix(30, 20, seed=1)
        cfg = exact_cfg(3, n=10, m=8, seed=7)
        r1 = nystrom.sample_indices(g.shape, cfg)
        r2 = nystrom.sample_indices(g.shape, cfg)
        np.testing.assert_array_equal(r1[0], r2[0])
        np.testing.assert_array_equal(r1[1], r2[1])

    def test_blocks_are_consistent_slices(self):
        g = make_matrix(15, 12, seed=2)
        cfg = exact_cfg(2, n=6, m=5, seed=3)
        rows, cols = nystrom.sample_indices(g.shape, cfg)
        g_nm, g_big_m, g_n_big = kernels.as_kernel_source(g).sample_blocks(
            *nystrom.sample_indices(g.shape, cfg))
        np.testing.assert_array_equal(g_nm, np.asarray(g_big_m)[rows])
        np.testing.assert_array_equal(g_nm, np.asarray(g_n_big)[:, cols])
        np.testing.assert_array_equal(g_big_m, g[:, cols])

    def test_sample_too_large(self):
        g = make_matrix(5, 5, seed=3)
        with pytest.raises(SampleTooLargeError):
            kernels.as_kernel_source(g).sample_blocks(
                *nystrom.sample_indices(g.shape, exact_cfg(2, n=9, m=3)))
        with pytest.raises(SampleTooLargeError):
            kernels.as_kernel_source(g).sample_blocks(
                *nystrom.sample_indices(g.shape, exact_cfg(4, n=3, m=3)))

    def test_growth_factor_validated(self):
        with pytest.raises(ConfigError):
            nystrom.NystromConfig(r=2, m_growth=1.0)
        with pytest.raises(ConfigError):
            nystrom.NystromConfig(r=2, m_growth=5.0)

    @pytest.mark.parametrize("name", ["n", "m"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_sample_counts_below_one_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            nystrom.NystromConfig(r=2, **{name: value})

    @pytest.mark.parametrize("name", ["oversample", "power_iters"])
    def test_negative_subproblem_knobs_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            nystrom.NystromConfig(r=2, **{name: -1})

    def test_positive_budget_below_rank_is_too_small(self):
        # a budget of 1 or more is a valid setting that cannot hold rank 4
        cfg = exact_cfg(4, m=2)
        with pytest.raises(SampleTooLargeError):
            nystrom.resolve_sample_sizes((20, 20), cfg)

    def test_rectangular_coupling(self):
        # row budget tracks the aspect ratio
        n, m = nystrom.resolve_sample_sizes((200, 100), exact_cfg(4, m=30))
        assert n == 60


class TestAsym:
    def test_full_sampling_exact(self):
        g = make_matrix(25, 18, seed=4)
        ref = svd_exact(g)
        res = nystrom.asym_nystrom(g, exact_cfg(4, n=25, m=18))
        assert nystrom.eta_accuracy(res.u_tilde, res.v_tilde, ref, 4) <= 1e-8
        np.testing.assert_allclose(res.lambda_tilde, ref.s[:4], rtol=1e-10)

    def test_symmetric_reduction(self):
        # shared index sets on a symmetric PSD matrix: the asymmetric lift
        # coincides with the classical eigen-approximation
        b = make_matrix(20, 6, seed=5)
        g = b @ b.T + 1e-3 * np.eye(20)
        cfg = exact_cfg(3, n=8, m=8, seed=11)
        sym = nystrom.sym_nystrom(g, cfg)
        rows = sym.row_indices
        src = kernels.MatrixSource(g)
        g_nm, g_big_m, g_n_big = src.sample_blocks(rows, rows)
        u_t, v_t, lam = nystrom.lift_blocks(g_nm, g_big_m, g_n_big, 3, cfg)
        for s in range(3):
            d = min(np.linalg.norm(u_t[:, s] - sym.u_tilde[:, s]),
                    np.linalg.norm(u_t[:, s] + sym.u_tilde[:, s]))
            assert d <= 1e-8

    def test_exact_on_low_rank(self):
        # per-vector recovery from r+2 samples needs the sampled factor rows
        # to stay orthonormal, so pin the factor support onto the index draw
        cfg = exact_cfg(3, n=5, m=5, seed=0)
        rows, cols = nystrom.sample_indices((40, 25), cfg)
        u0 = np.zeros((40, 3))
        u0[rows[:3], [0, 1, 2]] = 1.0
        v0 = np.zeros((25, 3))
        v0[cols[:3], [0, 1, 2]] = 1.0
        g = u0 @ np.diag([5.0, 3.0, 1.0]) @ v0.T
        ref = svd_exact(g)
        res = nystrom.asym_nystrom(g, cfg)
        assert nystrom.eta_accuracy(res.u_tilde, res.v_tilde, ref, 3) <= 1e-6

    def test_low_rank_subspace_exact(self):
        # with dense factors the lift mixes directions inside the target
        # subspaces, but the spanned subspaces themselves are still exact
        rng = np.random.default_rng(6)
        u0 = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        v0 = np.linalg.qr(rng.standard_normal((25, 3)))[0]
        g = u0 @ np.diag([5.0, 3.0, 1.0]) @ v0.T
        res = nystrom.asym_nystrom(g, exact_cfg(3, n=5, m=5, seed=0))
        from scipy.linalg import subspace_angles
        assert np.max(subspace_angles(res.u_tilde, u0)) <= 1e-8
        assert np.max(subspace_angles(res.v_tilde, v0)) <= 1e-8

    def test_scaling_law(self):
        g = make_matrix(20, 15, seed=7)
        cfg = exact_cfg(3, n=10, m=8, seed=2)
        base = nystrom.asym_nystrom(g, cfg)
        scaled = nystrom.asym_nystrom(10.0 * g, cfg)
        np.testing.assert_allclose(scaled.lambda_tilde, 10.0 * base.lambda_tilde,
                                   rtol=1e-10)
        np.testing.assert_allclose(np.abs(scaled.u_tilde), np.abs(base.u_tilde),
                                   atol=1e-10)
        np.testing.assert_allclose(np.abs(scaled.v_tilde), np.abs(base.v_tilde),
                                   atol=1e-10)

    def test_deterministic(self):
        g = make_matrix(30, 30, seed=8)
        cfg = exact_cfg(3, m=12, seed=5)
        r1 = nystrom.asym_nystrom(g, cfg)
        r2 = nystrom.asym_nystrom(g, cfg)
        np.testing.assert_array_equal(r1.row_indices, r2.row_indices)
        np.testing.assert_array_equal(r1.u_tilde, r2.u_tilde)

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(9)
        g = np.outer(rng.standard_normal(20), rng.standard_normal(15))
        with pytest.warns(SubproblemRankDeficientWarning):
            res = nystrom.asym_nystrom(g, exact_cfg(3, n=6, m=6))
        assert res.lambda_tilde.size == 1

    def test_lazy_source_never_materializes(self):
        a = make_matrix(60, 60, seed=10)
        spec = kernels.KernelSpec(family="rbf", gamma=kernels.default_gamma(a))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(a))
        res = nystrom.asym_nystrom(src, exact_cfg(3, n=12, m=12, seed=1))
        assert res.u_tilde.shape == (60, 3)
        assert src.entries_evaluated <= 60 * 12 + 12 * 60 + 12 * 12


class TestSym:
    def test_full_sampling_exact(self):
        b = make_matrix(15, 15, seed=11)
        k = b @ b.T
        res = nystrom.sym_nystrom(k, exact_cfg(4, n=15, m=15))
        vals, vecs = np.linalg.eigh(k)
        np.testing.assert_allclose(res.lambda_tilde, vals[::-1][:4], rtol=1e-8)
        for s in range(4):
            d = min(np.linalg.norm(res.u_tilde[:, s] - vecs[:, ::-1][:, s]),
                    np.linalg.norm(res.u_tilde[:, s] + vecs[:, ::-1][:, s]))
            assert d <= 1e-7

    def test_two_by_two(self):
        res = nystrom.sym_nystrom(np.diag([4.0, 1.0]),
                                  nystrom.NystromConfig(r=2, n=2, m=2))
        np.testing.assert_allclose(np.sort(res.lambda_tilde), [1.0, 4.0],
                                   atol=1e-10)

    def test_more_samples_help(self):
        angles_half = []
        angles_quarter = []
        for seed in range(10):
            b = make_matrix(48, 12, seed=100 + seed)
            k = b @ b.T
            top = np.linalg.eigh(k)[1][:, -1]
            for n, out in ((24, angles_half), (12, angles_quarter)):
                res = nystrom.sym_nystrom(
                    k, nystrom.NystromConfig(r=1, n=n, m=n, seed=seed,
                                             subproblem="exact"))
                cos = abs(float(top @ res.u_tilde[:, 0]))
                out.append(np.arccos(min(cos, 1.0)))
        assert np.median(angles_half) < np.median(angles_quarter)

    def test_needs_square(self):
        with pytest.raises(SampleTooLargeError):
            nystrom.sym_nystrom(make_matrix(4, 5, seed=0), exact_cfg(2, n=2, m=2))


class TestEta:
    def setup_method(self):
        g = make_matrix(12, 10, seed=12)
        self.ref = svd_exact(g)

    def test_reference_matches_itself(self):
        eta = nystrom.eta_accuracy(self.ref.u, self.ref.v, self.ref, 4)
        assert 0.0 <= eta <= 1e-12

    def test_sign_flips_ignored(self):
        flip = np.ones(4)
        flip[1] = -1.0
        eta = nystrom.eta_accuracy(self.ref.u[:, :4] * flip,
                                   self.ref.v[:, :4] * flip, self.ref, 4)
        assert 0.0 <= eta <= 1e-12

    def test_rescaling_ignored(self):
        eta = nystrom.eta_accuracy(3.0 * self.ref.u, 0.2 * self.ref.v,
                                   self.ref, 3)
        assert eta <= 1e-14

    def test_sixty_degree_hand_case(self):
        ref = SvdResult(u=np.array([[1.0], [0.0]]), s=np.array([2.0]),
                        v=np.array([[1.0], [0.0]]))
        u_t = np.array([[0.5], [np.sqrt(3) / 2]])
        eta = nystrom.eta_accuracy(u_t, ref.v, ref, 1)
        assert abs(eta - 1.0) <= 1e-12

    def test_non_negative(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u_t = self.ref.u[:, :3] + 1e-8 * rng.standard_normal((12, 3))
            eta = nystrom.eta_accuracy(u_t, self.ref.v, self.ref, 3)
            assert eta >= 0.0

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(13)
        u_t = self.ref.u[:, :4] + 0.1 * rng.standard_normal((12, 4))
        v_t = self.ref.v[:, :4] + 0.1 * rng.standard_normal((10, 4))
        mine = nystrom.eta_accuracy(u_t, v_t, self.ref, 4)
        oracle = eta_oracle(self.ref.u, self.ref.s, self.ref.v, u_t, v_t, 4)
        assert abs(mine - oracle) <= 1e-12

    def test_zero_column(self):
        bad = self.ref.u.copy()
        bad[:, 0] = 0.0
        with pytest.raises(ZeroColumnError):
            nystrom.eta_accuracy(bad, self.ref.v, self.ref, 2)

    def test_rank_guard(self):
        with pytest.raises(RankTooLargeError):
            nystrom.eta_accuracy(self.ref.u, self.ref.v, self.ref,
                                 self.ref.rank + 1)


class TestSolveToTolerance:
    def setup_method(self):
        self.g = make_matrix(40, 32, seed=14)
        self.ref = svd_exact(self.g)

    def test_loose_tolerance_first_try(self):
        cfg = exact_cfg(3, seed=0)
        rep = nystrom.solve_to_tolerance(self.g, "asym_nystrom", 1.0,
                                         self.ref, cfg)
        assert rep.status == "ok"
        assert rep.m_used == 32  # start budget capped at M

    def test_tsvd_machine_precision(self):
        rep = nystrom.solve_to_tolerance(self.g, "tsvd", 1e-8, self.ref,
                                         exact_cfg(3))
        assert rep.status == "ok" and rep.eta <= 1e-10

    def test_rsvd_growth(self):
        rep = nystrom.solve_to_tolerance(self.g, "rsvd", 1e-6, self.ref,
                                         nystrom.NystromConfig(r=3, seed=0))
        assert rep.status == "ok" and rep.eta <= 1e-6

    def test_rsvd_starts_from_the_configured_oversampling(self):
        rep = nystrom.solve_to_tolerance(
            self.g, "rsvd", 10.0, self.ref,
            nystrom.NystromConfig(r=3, seed=0, oversample=4))
        assert [a.m for a in rep.history] == [4]

    @pytest.mark.parametrize("oversample", [0, 1])
    def test_rsvd_small_oversampling_terminates(self, oversample):
        # each step grows the oversampling by at least one, up to the cap
        cfg = nystrom.NystromConfig(r=3, seed=0, oversample=oversample,
                                    power_iters=0)
        with pytest.raises(ToleranceUnreachableError) as exc:
            nystrom.solve_to_tolerance(self.g, "rsvd", 1e-300, self.ref, cfg)
        steps = [a.m for a in exc.value.report.history]
        assert steps[0] == oversample
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] == 32 - 3  # the cap, min(N, M) - r

    def test_sym_path(self):
        # needs a clear gap after the first two singular values: the one-shot
        # gram subsample cannot split a near-degenerate leading pair
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((60, 48)))[0]
        v = np.linalg.qr(rng.standard_normal((48, 48)))[0]
        s = np.concatenate([[12.0, 8.0], 0.8 * rng.random(46) + 0.2])
        g = u @ np.diag(s) @ v.T
        rep = nystrom.solve_to_tolerance(g, "sym_nystrom", 1.0, svd_exact(g),
                                         exact_cfg(2, seed=1))
        assert rep.status == "ok"
        assert rep.eta <= 1.0

    def test_full_column_budget_hits_any_epsilon(self):
        g = make_matrix(30, 24, seed=15)
        ref = svd_exact(g)
        rep = nystrom.solve_to_tolerance(
            g, "asym_nystrom", 1e-8, ref, exact_cfg(3, m=24))
        assert rep.eta <= 1e-8

    def test_wide_source_grows_past_the_row_count(self):
        # 60 rows, 1100 columns: the column budget may grow to M, not stop
        # at min(N, M) = 60
        rng = np.random.default_rng(98)
        src = kernels.DataSources(x=rng.standard_normal((60, 4)),
                                  z=rng.standard_normal((1100, 4)))
        spec = kernels.KernelSpec("sne", 2.0)
        reference = svd_exact(kernels.kernel_matrix(spec, src))
        rep = nystrom.solve_to_tolerance(
            kernels.LazyKernelSource(spec, src), "asym_nystrom", 1e-3,
            reference, nystrom.NystromConfig(r=2, m=8, seed=1))
        assert rep.status == "ok" and rep.eta <= 1e-3
        assert rep.m_used > 60
        sizes = [a.m for a in rep.history]
        assert sizes[0] == 8
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_unreachable_carries_report(self):
        cfg = exact_cfg(3, seed=0)
        with pytest.raises(ToleranceUnreachableError) as exc:
            nystrom.solve_to_tolerance(self.g, "asym_nystrom", 1e-15,
                                       self.ref, cfg)
        rep = exc.value.report
        assert rep.status == "tolerance_unreachable"
        assert rep.m_used == 32
        assert rep.eta > 1e-15

    def sne_source(self):
        src = kernels.DataSources(x=make_matrix(90, 6, seed=18),
                                  z=make_matrix(70, 6, seed=19))
        spec = kernels.KernelSpec(family="sne", gamma=2.0)
        return lambda: kernels.LazyKernelSource(spec, src)

    def test_growth_evaluates_each_entry_once(self):
        make = self.sne_source()
        ref = svd_exact(make().full())
        lazy = make()
        with pytest.raises(ToleranceUnreachableError) as exc:
            nystrom.solve_to_tolerance(lazy, "asym_nystrom", 0.0, ref,
                                       exact_cfg(3, seed=0, m=8))
        rep = exc.value.report
        big_n, big_m = lazy.shape
        n, m = rep.result.row_indices.size, rep.result.col_indices.size
        # five attempts, at column budgets 8, 16, 32, 64 and M = 70; each
        # samples more rows and columns than the last, and the last all
        assert len(rep.history) == 5
        assert (rep.history[0].m, rep.history[0].n) == (8, 10)
        assert (m, n) == (big_m, big_n)
        assert (rep.history[-1].m, rep.history[-1].n) == (m, n)
        for a, b in zip(rep.history, rep.history[1:]):
            assert b.m > a.m and b.n > a.n
        assert lazy.entries_evaluated == big_n * m + n * big_m
        assert rep.history[-1].entries == lazy.entries_evaluated
        assert [a.eta for a in rep.history][-1] == rep.eta
        assert sum(a.wall_time for a in rep.history) == \
            pytest.approx(rep.wall_time)

    def test_seeded_solves_are_bit_identical(self):
        make = self.sne_source()
        ref = svd_exact(make().full())
        cfg = nystrom.NystromConfig(r=3, seed=5, m=8)
        reports = [nystrom.solve_to_tolerance(make(), "asym_nystrom", 0.05,
                                              ref, cfg) for _ in range(2)]
        first, second = reports
        assert len(first.history) >= 3
        for field in ("u_tilde", "v_tilde", "lambda_tilde", "row_indices",
                      "col_indices"):
            np.testing.assert_array_equal(getattr(first.result, field),
                                          getattr(second.result, field))
        assert (first.m_used, first.eta, first.status) == \
            (second.m_used, second.eta, second.status)
        assert [(a.m, a.n, a.eta, a.entries) for a in first.history] == \
            [(a.m, a.n, a.eta, a.entries) for a in second.history]

    def test_unknown_solver(self):
        with pytest.raises(ConfigError):
            nystrom.solve_to_tolerance(self.g, "magic", 1.0, self.ref,
                                       exact_cfg(2))

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-300, float("nan")])
    @pytest.mark.parametrize("solver", nystrom.SOLVERS)
    def test_epsilon_below_zero_or_nan_is_rejected(self, solver, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be >= 0"):
            nystrom.solve_to_tolerance(self.g, solver, epsilon, self.ref,
                                       exact_cfg(3))

    @pytest.mark.parametrize("solver", nystrom.SOLVERS)
    def test_row_count_is_rejected(self, solver):
        # every attempt derives n from m, so a set n would be ignored
        with pytest.raises(ConfigError, match="n=10"):
            nystrom.solve_to_tolerance(self.g, solver, 1.0, self.ref,
                                       exact_cfg(3, n=10, m=10))

    def test_sharper_spectrum_needs_fewer_samples(self):
        # wide bandwidths flatten the row-normalized kernel toward rank one,
        # so its spectrum decays fast and a small sample budget suffices;
        # narrow bandwidths keep the spectrum flat and need far more columns
        pts = make_matrix(80, 6, seed=16)
        zs = make_matrix(90, 6, seed=17)
        src = kernels.DataSources(x=pts, z=zs)
        base = kernels.default_gamma(pts)
        used = {}
        for label, gamma in (("wide", 4.0 * base), ("narrow", 0.25 * base)):
            spec = kernels.KernelSpec(family="sne", gamma=gamma)
            g = kernels.kernel_matrix(spec, src)
            ref = svd_exact(g)
            budgets = []
            for seed in range(5):
                try:
                    rep = nystrom.solve_to_tolerance(
                        g, "asym_nystrom", 1e-1, ref,
                        exact_cfg(3, seed=seed, m=8))
                except ToleranceUnreachableError as err:
                    rep = err.report
                budgets.append(rep.m_used)
            used[label] = np.median(budgets)
        assert used["wide"] < used["narrow"]


# --- the lift from raw kernel chunks -------------------------------------------
# lift_blocks multiplies the chunked blocks by thin factors and applies the
# order, the sne normalizers and the centering in r-space; the reference
# applies the dense formula to np.asarray of the same blocks. The small SVD
# is the same, so lambda must agree bit for bit and U~, V~ to rounding.

def assert_same_lift(got, want):
    (u, v, lam), (u_want, v_want, lam_want) = got, want
    np.testing.assert_array_equal(lam, lam_want)
    np.testing.assert_allclose(u, u_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v, v_want, rtol=0, atol=1e-12)


def _lift_data():
    graph = datasets.synth_directed_graph("two_block", 240, seed=3).adjacency
    return {"graph": graph, "normal": make_matrix(240, 240, seed=60)}


class TestChunkedLift:
    @pytest.mark.parametrize("family", ["sne", "rbf", "linear"])
    @pytest.mark.parametrize("data", ["graph", "normal"])
    def test_nested_growth_matches_dense_formula(self, family, data):
        a = _lift_data()[data]
        spec = kernels.KernelSpec(family, kernels.default_gamma(a))
        src = kernels.LazyKernelSource(spec, kernels.build_sources(a))
        rng = np.random.default_rng(61)
        row_perm, col_perm = rng.permutation(240), rng.permutation(240)
        for n, m, sort in ((16, 16, True), (40, 32, False), (90, 64, True),
                           (200, 128, True)):
            # nested prefixes, one call with unsorted index sets
            rows, cols = row_perm[:n], col_perm[:m]
            if sort:
                rows, cols = np.sort(rows), np.sort(cols)
            cfg = nystrom.NystromConfig(r=5, seed=n)
            blocks = src.sample_blocks(rows, cols)
            assert_same_lift(nystrom.lift_blocks(*blocks, 5, cfg),
                             dense_lift(*blocks, cfg))
        # one chunk per call that brought new columns, evaluated once each
        assert src.entries_evaluated == 240 * 128 + 200 * 240

    def test_matrix_source_and_plain_arrays(self):
        g = make_matrix(70, 50, seed=62)
        cfg = exact_cfg(4, n=20, m=15, seed=2)
        rows, cols = nystrom.sample_indices(g.shape, cfg)
        blocks = kernels.MatrixSource(g).sample_blocks(rows, cols)
        got = nystrom.lift_blocks(*blocks, 4, cfg)
        assert_same_lift(got, dense_lift(*blocks, cfg))
        # plain arrays are wrapped as one-chunk blocks: the same lift
        plain = nystrom.lift_blocks(*(np.asarray(b) for b in blocks), 4, cfg)
        assert_same_lift(plain, got)

    @pytest.mark.parametrize("sampled", [True, False])
    def test_dead_sne_row_matches_dense_formula(self, sampled):
        # row 5 lies so far from every column point that its sampled sne
        # normalizer underflows to zero: the row reads 1/M throughout
        rng = np.random.default_rng(63)
        x = rng.standard_normal((40, 4))
        x[5] = 1e3
        z = rng.standard_normal((30, 4))
        spec = kernels.KernelSpec("sne", 2.0)
        src = kernels.LazyKernelSource(spec, kernels.DataSources(x=x, z=z))
        rows = np.array([1, 5, 9, 13, 20, 33]) if sampled else \
            np.array([1, 9, 13, 20, 33, 37])
        cols = np.array([0, 4, 7, 11, 19, 25, 28])
        with pytest.warns(EmptyDenominatorWarning):
            blocks = src.sample_blocks(rows, cols)
        assert src.row_denoms[5] == 0.0
        np.testing.assert_array_equal(np.asarray(blocks[1])[5],
                                      np.full(7, 1 / 30))
        cfg = nystrom.NystromConfig(r=3, seed=4)
        got = nystrom.lift_blocks(*blocks, 3, cfg)
        want = dense_lift(*blocks, cfg)
        assert_same_lift(got, want)
        np.testing.assert_allclose(got[0][5], want[0][5], rtol=0, atol=1e-15)

    def test_non_finite_chunk_raises(self):
        # linear products of 1e200 overflow: the chunk is refused when it
        # is evaluated
        a = np.full((6, 6), 1e200)
        with np.errstate(over="ignore"):
            src = kernels.LazyKernelSource(kernels.KernelSpec("linear"),
                                           kernels.build_sources(a))
            with pytest.raises(NonFiniteError, match="G_Nm"):
                src.sample_blocks([0, 1], [2, 3])

    def test_entry_counts_of_the_growth_loop(self, monkeypatch):
        # entries_evaluated, the last Attempt.entries and the sizes of the
        # two large blocks (what a tracer adds up per call) all equal
        # N*m + n*M of the attempt, the incremental loop's only work
        a = datasets.synth_directed_graph("random_dag", 300, seed=0).adjacency
        spec = kernels.KernelSpec("sne", 0.35 * kernels.default_gamma(a))
        sources = kernels.build_sources(a)
        reference = svd_truncated(
            kernels.LazyKernelSource(spec, sources).full(), 4, tol=1e-14)
        sizes = []
        sample_blocks = kernels.LazyKernelSource.sample_blocks

        def traced(self, rows, cols, col_weights=None):
            blocks = sample_blocks(self, rows, cols, col_weights)
            sizes.append(blocks[1].size + blocks[2].size)
            return blocks

        monkeypatch.setattr(kernels.LazyKernelSource, "sample_blocks", traced)
        src = kernels.LazyKernelSource(spec, sources)
        with pytest.raises(ToleranceUnreachableError) as err:
            nystrom.solve_to_tolerance(src, "asym_nystrom", 0.0, reference,
                                       nystrom.NystromConfig(r=4))
        history = err.value.report.history
        # column budgets 32, 64, 128, 256 and M = 300: the leverage mixture
        # samples counts around each budget, short of it where it gives its
        # favoured columns pi = 1, and the last attempt samples every row
        # and column
        assert [(h.m, h.n) for h in history] == [
            (32, 32), (66, 54), (98, 84), (136, 137), (300, 300)]
        last = history[-1]
        assert src.entries_evaluated == last.entries == \
            300 * last.m + last.n * 300
        assert sizes == [300 * h.m + h.n * 300 for h in history]


# --- the leverage-weighted sampler of the growth loop --------------------------

def prefix_loop(source, epsilon, reference, cfg):
    """The growth loop as it sampled before leverage weights: every attempt
    takes sorted prefixes of one seeded row and one column permutation,
    uniform, at column budgets m, ceil(m * m_growth), ... up to M."""
    big_n, big_m = source.shape
    rng = np.random.default_rng(cfg.seed)
    row_perm, col_perm = rng.permutation(big_n), rng.permutation(big_m)
    m, history = cfg.m, []
    while True:
        step = replace(cfg, m=m, seed=cfg.seed + len(history))
        n, _ = nystrom.resolve_sample_sizes((big_n, big_m), step)
        res = nystrom.asym_nystrom(source, step, indices=(
            np.sort(row_perm[:n]), np.sort(col_perm[:m])))
        eta = nystrom.eta_accuracy(res.u_tilde, res.v_tilde, reference,
                                   min(cfg.r, res.lambda_tilde.size))
        history.append((m, n))
        if eta <= epsilon or m >= big_m:
            return res, history
        m = min(int(np.ceil(m * cfg.m_growth)), big_m)


def dag_problem(n_nodes, r):
    a = datasets.synth_directed_graph("random_dag", n_nodes, seed=0).adjacency
    spec = kernels.KernelSpec("sne", 0.35 * kernels.default_gamma(a))
    sources = kernels.build_sources(a)
    reference = svd_truncated(
        kernels.LazyKernelSource(spec, sources).full(), r, tol=1e-14)
    return (lambda: kernels.LazyKernelSource(spec, sources)), reference


@pytest.fixture(scope="module")
def grow_problem():
    # the benchmark's nystrom-grow graph: 4000 nodes
    return dag_problem(4000, 8)


def solve(source, epsilon, reference, cfg):
    try:
        return nystrom.solve_to_tolerance(source, "asym_nystrom", epsilon,
                                          reference, cfg)
    except ToleranceUnreachableError as err:
        return err.report


class TestLeverageSampling:
    @pytest.mark.parametrize("epsilon", [0.05, 0.0])
    def test_no_leverage_reproduces_the_prefix_loop(self, monkeypatch,
                                                    epsilon):
        monkeypatch.setattr(nystrom, "LEVERAGE_MIX", 0.0)
        make = TestSolveToTolerance().sne_source()
        reference = svd_exact(make().full())
        cfg = nystrom.NystromConfig(r=3, seed=5, m=8)
        rep = solve(make(), epsilon, reference, cfg)
        want, history = prefix_loop(make(), epsilon, reference, cfg)
        assert len(history) >= 3
        assert [(a.m, a.n) for a in rep.history] == history
        got = rep.result
        np.testing.assert_array_equal(got.row_indices, want.row_indices)
        np.testing.assert_array_equal(got.col_indices, want.col_indices)
        for field in ("u_tilde", "v_tilde", "lambda_tilde"):
            np.testing.assert_allclose(getattr(got, field),
                                       getattr(want, field), rtol=0,
                                       atol=1e-12)

    def test_fewer_entries_at_the_same_accuracy_and_scale(self, monkeypatch):
        # a 1000-node DAG at the benchmark's bandwidth scale: every seed
        # meets epsilon with lambda_1 within 10% of sigma_1, after fewer
        # kernel entries than the uniform prefixes of the same seed
        make, reference = dag_problem(1000, 8)
        epsilon = 0.01
        for seed in range(10):
            cfg = nystrom.NystromConfig(r=8, seed=seed)
            lazy = make()
            rep = solve(lazy, epsilon, reference, cfg)
            assert rep.status == "ok" and rep.eta <= epsilon
            fold = rep.result.lambda_tilde[0] / reference.s[0]
            assert abs(fold - 1.0) <= 0.10, (seed, fold)
            with monkeypatch.context() as patch:
                patch.setattr(nystrom, "LEVERAGE_MIX", 0.0)
                uniform = make()
                solve(uniform, epsilon, reference, cfg)
            assert lazy.entries_evaluated < uniform.entries_evaluated, seed

    @pytest.mark.parametrize("seed", [0, pytest.param(19, marks=(
        pytest.mark.xfail(strict=True, reason=(
            "known scale miss: lambda_1 fold 1.109 at this seed, the one "
            "of sampling seeds 0-29 outside 0.10"))))])
    def test_benchmark_graph_at_the_benchmark_epsilon(self, grow_problem,
                                                      seed):
        # nystrom-grow's graph, bandwidth and epsilon: within the entry
        # ceiling of 4,096,000 at every seed, and lambda_1 within 10% of
        # sigma_1 except at the seed where the estimate is known to miss
        make, reference = grow_problem
        lazy = make()
        rep = solve(lazy, 0.004, reference, nystrom.NystromConfig(r=8,
                                                                  seed=seed))
        assert rep.status == "ok" and rep.eta <= 0.004
        assert lazy.entries_evaluated <= 4_096_000
        fold = rep.result.lambda_tilde[0] / reference.s[0]
        assert abs(fold - 1.0) <= 0.10, fold

    def test_samples_are_nested_and_weighted(self, monkeypatch):
        # every attempt's sample contains the last; the later ones reach
        # the lift with Horvitz-Thompson weights N / (N pi) of the rows and
        # columns they sampled
        make, reference = dag_problem(300, 4)
        calls = []
        lift = nystrom.lift_blocks

        def traced(g_nm, g_big_m, g_n_big, r, cfg, weights=None):
            calls.append((g_nm.shape, weights))
            return lift(g_nm, g_big_m, g_n_big, r, cfg, weights)

        monkeypatch.setattr(nystrom, "lift_blocks", traced)
        lazy = make()
        rep = solve(lazy, 0.0, reference, nystrom.NystromConfig(r=4, m=16))
        assert rep.status == "tolerance_unreachable"
        assert calls[0][1] is None  # the first attempt is uniform
        assert calls[-1][1] is None  # so is the cap, where pi = 1
        assert calls[-1][0] == (300, 300)
        for (shape, weights), attempt in zip(calls[1:-1], rep.history[1:-1]):
            assert shape == (attempt.n, attempt.m)
            for w, size in zip(weights, shape):
                assert w.shape == (size,)
                assert np.all(w >= 1.0)
                # 1/pi with pi a multiple of 1/300
                np.testing.assert_allclose(300 / w, np.round(300 / w),
                                           rtol=0, atol=1e-9)
            assert np.ptp(np.concatenate(weights)) > 0
        for a, b in zip(rep.history, rep.history[1:]):
            assert b.m >= a.m and b.n >= a.n
        assert lazy.entries_evaluated == 300 * 300 + 300 * 300

    def test_cap_attempt_is_the_exact_svd(self):
        make, _ = dag_problem(120, 4)
        g = make().full()
        exact = svd_exact(g)
        rep = solve(make(), 0.0, exact,
                    nystrom.NystromConfig(r=4, seed=3, subproblem="exact"))
        res = rep.result
        assert (res.row_indices.size, res.col_indices.size) == (120, 120)
        np.testing.assert_allclose(res.lambda_tilde, exact.s[:4], rtol=1e-10,
                                   atol=0)
        np.testing.assert_allclose(res.u_tilde, exact.u[:, :4], rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(res.v_tilde, exact.v[:, :4], rtol=0,
                                   atol=1e-10)

    def test_weighted_lift_matches_dense_formula(self):
        # sne blocks on weighted columns: the normalizers are the weighted
        # sums of the raw rows, and the lift is the dense formula with the
        # weights on both sides of G_nm and the HT Rayleigh quotient as
        # lambda
        a = _lift_data()["graph"]
        spec = kernels.KernelSpec("sne", kernels.default_gamma(a))
        sources = kernels.build_sources(a)
        raw = kernels.LazyKernelSource(kernels.KernelSpec(
            "rbf", spec.gamma), sources).full()
        rng = np.random.default_rng(64)
        rows = np.sort(rng.choice(240, 50, replace=False))
        cols = rng.permutation(240)[:40]
        w_r, w_c = 1.0 + 5.0 * rng.random(50), 1.0 + 5.0 * rng.random(40)
        src = kernels.LazyKernelSource(spec, sources)
        blocks = src.sample_blocks(rows, cols, w_c)
        denom = raw[:, cols] @ w_c
        np.testing.assert_allclose(src.row_denoms, denom, rtol=1e-12)
        np.testing.assert_allclose(np.asarray(blocks[1]),
                                   raw[:, cols] / denom[:, None], rtol=1e-12)
        np.testing.assert_allclose(np.asarray(blocks[2]),
                                   raw[rows] / denom[rows, None], rtol=1e-12)

        cfg = exact_cfg(5, seed=0)
        u, v, lam = nystrom.lift_blocks(*blocks, 5, cfg, (w_r, w_c))
        g_nm, g_big_m, g_n_big = (np.asarray(b) for b in blocks)
        d_r, d_c = np.sqrt(w_r), np.sqrt(w_c)
        small = svd_exact(d_r[:, None] * g_nm * d_c[None, :])
        u_want = g_big_m @ (d_c[:, None] * small.v[:, :5] / small.s[:5])
        v_want = g_n_big.T @ (d_r[:, None] * small.u[:, :5] / small.s[:5])
        u_want /= np.linalg.norm(u_want, axis=0)
        v_want /= np.linalg.norm(v_want, axis=0)
        u_want, v_want = canonicalize_signs(u_want, v_want)
        np.testing.assert_allclose(u, u_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, v_want, rtol=0, atol=1e-12)
        lam_want = np.einsum("jk,jk,j->k", g_big_m.T @ u_want,
                             v_want[cols], w_c)
        np.testing.assert_allclose(lam, lam_want, rtol=1e-12)
