import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aksvd import datasets, kernels, linalg
from aksvd.errors import (
    NonFiniteError,
    RankTooLargeError,
    ShapeMismatchError,
    ZeroMatrixError,
)
from conftest import eta_oracle, make_matrix


class TestSvdExact:
    def test_diagonal(self):
        res = linalg.svd_exact(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.s, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-12)

    def test_nilpotent_shift(self):
        res = linalg.svd_exact(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(res.s, [1.0])
        np.testing.assert_allclose(res.u[:, 0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(res.v[:, 0], [0.0, 1.0], atol=1e-14)

    def test_against_gram_eigen_oracle(self):
        # independent route: eigenvalues of A^T A via LAPACK eigh
        a = make_matrix(8, 5, seed=7)
        res = linalg.svd_exact(a)
        evals = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(res.s, np.sqrt(np.clip(evals, 0, None)),
                                   rtol=0, atol=1e-10 * res.s[0])

    def test_reconstruction_and_orthonormality(self):
        a = make_matrix(40, 25, seed=3)
        res = linalg.svd_exact(a)
        recon = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(a - recon) <= \
            10 * linalg.RANK_TOL * np.linalg.norm(a)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(res.rank), atol=1e-9)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(res.rank), atol=1e-9)

    def test_transpose_swaps_factors(self):
        a = make_matrix(9, 6, seed=11)
        res = linalg.svd_exact(a)
        res_t = linalg.svd_exact(a.T)
        np.testing.assert_allclose(res_t.s, res.s, rtol=1e-12)
        # canonical signs are set from the left factor, so compare up to signs
        for k in range(res.rank):
            du = min(np.linalg.norm(res_t.u[:, k] - res.v[:, k]),
                     np.linalg.norm(res_t.u[:, k] + res.v[:, k]))
            dv = min(np.linalg.norm(res_t.v[:, k] - res.u[:, k]),
                     np.linalg.norm(res_t.v[:, k] + res.u[:, k]))
            assert du < 1e-9 and dv < 1e-9

    def test_rank_cutoff(self):
        a = np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 2.0, -1.0])
        a = a + np.outer([0.0, 1.0, -1.0], [2.0, 1.0, 0.0, 1.0])
        res = linalg.svd_exact(a)
        assert res.rank == 2

    def test_sign_canonicalization(self):
        a = make_matrix(12, 7, seed=5)
        res = linalg.svd_exact(a)
        for s in range(res.rank):
            k = np.argmax(np.abs(res.u[:, s]))
            assert res.u[k, s] > 0

    @pytest.mark.parametrize("with_v", [True, False])
    def test_signs_match_the_column_loop(self, with_v):
        # tied largest magnitudes, of either sign, in one column: the first
        # one sets the sign, as argmax takes it
        rng = np.random.default_rng(6)
        u = rng.integers(-3, 4, (9, 40)).astype(float)
        u[:, 0] = [0, 3, -3, 1, 0, 0, 0, 0, 0]
        u[:, 1] = [0, -3, 3, 1, 0, 0, 0, 0, 0]
        u[:, 2] = 0.0
        v = rng.standard_normal((5, 40))

        def loop(u, v):
            u, v = u.copy(), v.copy()
            for s in range(u.shape[1]):
                k = int(np.argmax(np.abs(u[:, s])))
                if u[k, s] < 0:
                    u[:, s] = -u[:, s]
                    v[:, s] = -v[:, s]
            return u, v

        want_u, want_v = loop(u, v)
        if with_v:
            got_u, got_v = linalg.canonicalize_signs(u, v)
            np.testing.assert_array_equal(got_v, want_v)
            np.testing.assert_array_equal(np.signbit(got_v),
                                          np.signbit(want_v))
        else:
            got_u = linalg.canonicalize_signs(u)
        np.testing.assert_array_equal(got_u, want_u)
        np.testing.assert_array_equal(np.signbit(got_u), np.signbit(want_u))
        assert got_u[1, 0] == 3 and got_u[1, 1] == 3

    def test_errors(self):
        with pytest.raises(NonFiniteError):
            linalg.svd_exact(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ZeroMatrixError):
            linalg.svd_exact(np.zeros((3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10_000))
    def test_shifted_eigenvalue_property(self, n, m, seed):
        """A v_s = s_s u_s and A^T u_s = s_s v_s for every returned triplet."""
        a = np.random.default_rng(seed).standard_normal((n, m))
        res = linalg.svd_exact(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ res.v - res.u * res.s) <= 1e-8 * scale
        assert np.linalg.norm(a.T @ res.u - res.v * res.s) <= 1e-8 * scale

    def test_gram_form_property(self):
        for seed in range(5):
            a = make_matrix(15, 9, seed=seed)
            res = linalg.svd_exact(a)
            sq = np.linalg.norm(a) ** 2
            lhs1 = a.T @ a @ res.v - a.T @ res.u @ np.diag(res.s)
            lhs2 = a @ a.T @ res.u - a @ res.v @ np.diag(res.s)
            assert np.linalg.norm(lhs1) <= 1e-7 * sq
            assert np.linalg.norm(lhs2) <= 1e-7 * sq


def circulant(n):
    # singular values 4.3, then pairs: 4.299317 twice, 4.297267 twice, ...
    row = np.zeros(n)
    row[[0, 1, 2, -1]] = [2.0, 1.0, 0.3, 1.0]
    return np.array([np.roll(row, i) for i in range(n)])


def cycle_kernel(n=60):
    # the centered sne kernel of a directed cycle: one nonzero singular
    # value, repeated n - 1 times
    a = datasets.synth_directed_graph("cycle", n, seed=0).adjacency
    spec = kernels.KernelSpec("sne", kernels.default_gamma(a))
    g = kernels.kernel_matrix(spec, kernels.build_sources(a))
    return kernels.center(g)[0]


def rotated(s, n, m, seed):
    """An n x m matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    q_u = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    q_v = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    return (q_u * s) @ q_v.T


class TestSvdExactTopR:
    @pytest.mark.parametrize("shape", [(7, 9), (9, 7)])
    def test_check_rejects_a_missing_copy(self, shape):
        # sigma = 3, 3, 2, 1.5, 1, 0.5: a set holding one 3 leaves out a
        # value above its smallest; wide and tall shapes use either Gram
        a = rotated([3.0, 3.0, 2.0, 1.5, 1.0, 0.5], *shape, seed=1)
        full = linalg.svd_exact(a)

        def triplets(*idx):
            idx = list(idx)
            return linalg.SvdResult(u=full.u[:, idx], s=full.s[idx],
                                    v=full.v[:, idx])

        assert not linalg.is_complete(a, triplets(0, 2))
        assert not linalg.is_complete(a, triplets(0, 1, 3))
        assert linalg.is_complete(a, triplets(0, 1, 2))
        # a missing copy of the smallest value itself is within the margin
        assert linalg.is_complete(a, triplets(0))

    @pytest.mark.parametrize("a, r", [
        (circulant(300), 3),
        (circulant(300), 2),
        (np.diag(np.r_[5.0, 5.0, 5.0, np.linspace(4.0, 0.1, 57)]), 4),
        (rotated(np.r_[3.0, 3.0, 3.0, np.linspace(1.0, 0.1, 117)],
                 120, 130, seed=2), 3),
        (cycle_kernel(), 4),
        (rotated([4.0, 2.0, 1.0], 40, 50, seed=3), 6),
    ], ids=["circulant-r3", "circulant-r2", "diagonal-555",
            "rotated-333", "cycle60", "rank-deficient"])
    def test_top_r_matches_the_full_svd(self, a, r):
        # repeated values leave the vectors free within their subspace, so
        # the triplets are checked as singular triplets of a
        full = linalg.svd_exact(a)
        res = linalg.svd_exact(a, r)
        assert res.rank == min(r, full.rank)
        tol = 1e-12 * full.s[0]
        np.testing.assert_allclose(res.s, full.s[:res.rank], rtol=0, atol=tol)
        assert np.max(np.abs(a @ res.v - res.u * res.s)) <= tol
        assert np.max(np.abs(a.T @ res.u - res.v * res.s)) <= tol
        for side in (res.u, res.v):
            np.testing.assert_allclose(side.T @ side, np.eye(res.rank),
                                       rtol=0, atol=1e-12)
        peaks = res.u[np.argmax(np.abs(res.u), axis=0), np.arange(res.rank)]
        assert np.all(peaks > 0)

    @staticmethod
    def spy_on_the_check(monkeypatch):
        checked = []
        check = linalg.is_complete

        def spy(*args):
            checked.append(check(*args))
            return checked[-1]

        monkeypatch.setattr(linalg, "is_complete", spy)
        return checked

    def test_lanczos_result_passes_the_check(self, monkeypatch):
        # a graph kernel with a clear top r takes no full SVD
        a = datasets.synth_directed_graph("two_block", 200, seed=0).adjacency
        spec = kernels.KernelSpec("sne", kernels.default_gamma(a))
        g = kernels.center(kernels.kernel_matrix(
            spec, kernels.build_sources(a)))[0]
        checked = self.spy_on_the_check(monkeypatch)
        res = linalg.svd_exact(g, 8)
        assert checked == [True]
        full = np.linalg.svd(g, compute_uv=False)
        np.testing.assert_allclose(res.s, full[:8], rtol=0,
                                   atol=1e-12 * full[0])

    def test_check_catches_the_circulant_missing_copies(self, monkeypatch):
        # Lanczos converges on 4.3, 4.299317, 4.297267 with one copy of
        # each pair; the check sends the fit to LAPACK, which has both
        a = circulant(300)
        checked = self.spy_on_the_check(monkeypatch)
        res = linalg.svd_exact(a, 3)
        assert checked == [False]
        np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False)
                                   [:3], rtol=1e-14)
        assert res.s[1] - res.s[2] <= 1e-14 * res.s[0]

    @pytest.mark.parametrize("a, r", [
        (rotated(np.r_[8.0, 4.0, 2.0, 0.5 * 0.8 ** np.arange(42)], 60, 45,
                 seed=4), 3),
        (rotated(np.r_[8.0, 4.0, 2.0, 0.5 * 0.8 ** np.arange(42)], 45, 60,
                 seed=4), 3),
        (cycle_kernel(), 4),
    ], ids=["tall", "wide", "cycle60"])
    def test_failed_check_falls_back_to_the_full_svd(self, monkeypatch, a, r):
        # each Lanczos result here passes the real check
        full = linalg.svd_exact(a)
        monkeypatch.setattr(linalg, "is_complete", lambda *args: False)
        res = linalg.svd_exact(a, r)
        for got, want in ((res.u, full.u[:, :r]), (res.s, full.s[:r]),
                          (res.v, full.v[:, :r])):
            assert np.array_equal(got, want)

    def test_r_above_min_dimension_keeps_every_triplet(self):
        a = make_matrix(6, 4, seed=2)
        full = linalg.svd_exact(a)
        res = linalg.svd_exact(a, 9)
        assert np.array_equal(res.s, full.s) and np.array_equal(res.u, full.u)


class TestSvdRandomized:
    def test_full_oversampling_exact(self):
        res = linalg.svd_randomized(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]),
                                    r=2, oversample=10, power_iters=2, seed=0)
        np.testing.assert_allclose(res.s, [5.0, 4.0], atol=1e-12)

    def test_small_sketch_accuracy(self):
        a = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        ref = linalg.svd_exact(a)
        res = linalg.svd_randomized(a, r=2, oversample=2, power_iters=2, seed=0)
        assert eta_oracle(ref.u, ref.s, ref.v, res.u, res.v, 2) <= 1e-6

    def test_oversampling_helps_on_flat_spectrum(self):
        rng = np.random.default_rng(7)
        q1, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        svals = np.concatenate([[1.0, 0.99], np.linspace(0.9, 0.05, 18)])
        a = q1 @ np.diag(svals) @ q2.T
        ref = linalg.svd_exact(a)
        eta0 = eta_oracle(ref.u, ref.s, ref.v,
                          *(lambda r: (r.u, r.v))(
                              linalg.svd_randomized(a, 1, oversample=0, seed=3)), 1)
        eta10 = eta_oracle(ref.u, ref.s, ref.v,
                           *(lambda r: (r.u, r.v))(
                               linalg.svd_randomized(a, 1, oversample=10, seed=3)), 1)
        assert eta0 > eta10

    def test_matches_exact_under_full_sketch(self):
        a = make_matrix(12, 8, seed=2)
        ref = linalg.svd_exact(a)
        res = linalg.svd_randomized(a, r=3, oversample=8, power_iters=1, seed=4)
        np.testing.assert_allclose(res.s, ref.s[:3], atol=1e-8)
        for k in range(3):
            assert min(np.linalg.norm(res.u[:, k] - ref.u[:, k]),
                       np.linalg.norm(res.u[:, k] + ref.u[:, k])) < 1e-8

    def test_deterministic(self):
        a = make_matrix(30, 20, seed=9)
        r1 = linalg.svd_randomized(a, 4, seed=13)
        r2 = linalg.svd_randomized(a, 4, seed=13)
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.v, r2.v)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            linalg.svd_randomized(np.eye(4), r=5)


class TestSvdTruncated:
    def test_diagonal_top3(self):
        res = linalg.svd_truncated(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), r=3)
        np.testing.assert_allclose(res.s, [5.0, 4.0, 3.0], atol=1e-10)

    def test_oracle_comparison(self):
        a = make_matrix(50, 30, seed=21)
        ref = linalg.svd_exact(a)
        res = linalg.svd_truncated(a, r=5)
        assert eta_oracle(ref.u, ref.s, ref.v, res.u, res.v, 5) <= 1e-8

    def test_rank_deflation(self):
        rng = np.random.default_rng(6)
        a = np.outer(rng.standard_normal(10), rng.standard_normal(7))
        a += np.outer(rng.standard_normal(10), rng.standard_normal(7))
        res = linalg.svd_truncated(a, r=2, tol=1e-10)
        assert res.rank == 2
        ref = linalg.svd_exact(a)
        np.testing.assert_allclose(res.s, ref.s[:2], rtol=1e-9)

    def test_deterministic(self):
        a = make_matrix(25, 18, seed=3)
        r1 = linalg.svd_truncated(a, 4)
        r2 = linalg.svd_truncated(a, 4)
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.s, r2.s)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            linalg.svd_truncated(np.eye(3), r=4)

    def test_breakdown_restarts_until_r_values(self):
        # every start vector meets the cycle kernel's one nonzero value in
        # a single step, then breaks down: each restart finds another copy
        g = cycle_kernel()
        res = linalg.svd_truncated(g, 4)
        full = linalg.svd_exact(g)
        np.testing.assert_allclose(res.s, full.s[:4], rtol=1e-14)
        assert np.max(np.abs(g @ res.v - res.u * res.s)) <= 1e-14 * full.s[0]
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_rank_below_r_stops_once_the_rest_is_null(self, shape):
        # a fresh vector that breaks down at once shows the rest is null
        a = rotated([4.0, 2.0, 1.0], *shape, seed=5)
        res = linalg.svd_truncated(a, 6)
        np.testing.assert_allclose(res.s, [4.0, 2.0, 1.0], rtol=1e-13)


class TestPlumbing:
    def test_csv_round_trip(self, tmp_path):
        a = make_matrix(7, 5, seed=17) * 1e3
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, a)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        np.testing.assert_allclose(back, a, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(NonFiniteError):
            linalg.as_matrix([[np.inf, 0.0]])
        with pytest.raises(ShapeMismatchError):
            linalg.as_matrix(np.zeros((2, 2, 2)))
