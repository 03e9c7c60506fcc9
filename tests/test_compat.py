import numpy as np
import pytest

from aksvd import compat, kernels
from aksvd.errors import ConfigError, ShapeMismatchError
from aksvd.linalg import svd_exact
from conftest import make_matrix


class TestPseudoInverse:
    def test_diagonal(self):
        c = compat.compat_pseudoinverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(c.c, np.diag([0.5, 0.25]), atol=1e-12)

    def test_orthonormal_columns(self):
        a = np.linalg.qr(make_matrix(8, 3, seed=1))[0]
        c = compat.compat_pseudoinverse(a)
        np.testing.assert_allclose(c.c, a.T, atol=1e-10)

    def test_moore_penrose_conditions(self):
        a = make_matrix(6, 4, seed=2)
        c = compat.compat_pseudoinverse(a).c
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ c @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(c @ a @ c - c) <= 1e-8 * np.linalg.norm(c)
        ac = a @ c
        ca = c @ a
        assert np.linalg.norm(ac - ac.T) <= 1e-8
        assert np.linalg.norm(ca - ca.T) <= 1e-8


class TestPca:
    def test_near_rank_one(self):
        # centered rank-one data: the column means are zero, and centering
        # the outer product leaves it rank one, so C's first column alone
        # reconstructs it
        rng = np.random.default_rng(3)
        u = rng.standard_normal(8)
        a = np.outer(u - u.mean(), rng.standard_normal(5))
        a += 1e-12 * rng.standard_normal((8, 5))
        c = compat.compat_pca(a).c
        assert c.shape == (5, 5)
        recon = a @ c[:, :1] @ c[:, :1].T
        assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)

    def test_full_target_reconstructs(self):
        a = make_matrix(8, 4, seed=4)
        ac = a - a.mean(axis=0)
        c = compat.compat_pca(a).c
        assert np.linalg.norm(ac - ac @ c @ c.T) <= 1e-8 * np.linalg.norm(ac)

    def test_orthonormal_columns(self):
        c = compat.compat_pca(make_matrix(10, 6, seed=5)).c
        np.testing.assert_allclose(c.T @ c, np.eye(6), atol=1e-10)

    def test_objective_equals_tail_energy(self):
        # C's columns come in descending order of variance: its first two
        # leave exactly the energy of the last two singular values
        a = make_matrix(10, 4, seed=6)
        ac = a - a.mean(axis=0)
        c = compat.compat_pca(a).c[:, :2]
        objective = np.linalg.norm(ac - ac @ c @ c.T) ** 2
        s = svd_exact(ac).s
        assert abs(objective - (s[2] ** 2 + s[3] ** 2)) <= 1e-8

    def test_beats_random_orthonormal(self):
        a = make_matrix(10, 5, seed=7)
        ac = a - a.mean(axis=0)
        c = compat.compat_pca(a).c[:, :2]
        best = np.linalg.norm(ac - ac @ c @ c.T)
        rng = np.random.default_rng(8)
        for _ in range(5):
            q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
            other = np.linalg.norm(ac - ac @ q @ q.T)
            assert other >= best - 1e-8


class TestRandom:
    def test_deterministic(self):
        a = make_matrix(4, 9, seed=9)
        c1 = compat.compat_random(a, seed=5).c
        c2 = compat.compat_random(a, seed=5).c
        np.testing.assert_array_equal(c1, c2)

    def test_seed_changes_matrix(self):
        a = make_matrix(4, 9, seed=9)
        c1 = compat.compat_random(a, seed=5).c
        c2 = compat.compat_random(a, seed=6).c
        assert np.linalg.norm(c1 - c2) > 0

    def test_column_norm_concentration(self):
        a = make_matrix(20, 200, seed=10)
        for seed in range(3):
            c = compat.compat_random(a, seed=seed).c
            assert c.shape == (200, 20)
            norms = np.linalg.norm(c, axis=0)
            assert norms.min() >= 0.6 and norms.max() <= 1.4


class TestApply:
    def test_identity_square(self):
        src = kernels.build_sources(make_matrix(4, 4, seed=11))
        out = compat.apply_compat(compat.IDENTITY, src)
        assert out is src

    def test_identity_rejects_rectangular(self):
        src = kernels.build_sources(make_matrix(3, 5, seed=12))
        with pytest.raises(ShapeMismatchError):
            compat.apply_compat(compat.IDENTITY, src)

    def test_projects_long_x_side(self):
        a = make_matrix(3, 5, seed=13)
        src = kernels.build_sources(a)
        out = compat.apply_compat(compat.make_compat(a, "a2", seed=0), src)
        assert out.x.shape == (3, 3)
        assert out.z.shape == (5, 3)

    def test_projects_long_z_side(self):
        a = make_matrix(5, 3, seed=14)
        src = kernels.build_sources(a)
        out = compat.apply_compat(compat.make_compat(a, "a0"), src)
        assert out.x.shape == (5, 3)
        assert out.z.shape == (3, 3)

    def test_kernel_matrix_ready_after_apply(self):
        a = make_matrix(4, 7, seed=15)
        src = compat.apply_compat(compat.make_compat(a, "a1"),
                                  kernels.build_sources(a))
        spec = kernels.KernelSpec(family="rbf", gamma=2.0)
        g = kernels.kernel_matrix(spec, src)
        assert g.shape == (4, 7)
        assert np.all(g > 0) and np.all(g <= 1)

    def test_side_must_fit_the_matrix(self):
        # a matrix needs the side it projects, identity has none
        with pytest.raises(ConfigError):
            compat.CompatMatrix(c=np.ones((3, 3)), mode="a0")
        with pytest.raises(ConfigError):
            compat.CompatMatrix(c=None, mode="identity", side="x")
        with pytest.raises(ConfigError):
            compat.CompatMatrix(c=np.ones((3, 3)), mode="a0", side="y")

    def test_shape_mismatch(self):
        a = make_matrix(3, 5, seed=16)
        wrong = compat.CompatMatrix(c=np.ones((4, 3)), mode="a2", seed=0,
                                    side="x")
        with pytest.raises(ShapeMismatchError):
            compat.apply_compat(wrong, kernels.build_sources(a))


class TestMakeCompat:
    def test_linear_recovery_wide(self):
        # pinv compat with a linear kernel reproduces the data matrix
        a = make_matrix(4, 6, seed=17, cond=10)
        sources = compat.apply_compat(compat.make_compat(a, "a0"),
                                      kernels.build_sources(a))
        g = kernels.kernel_matrix(kernels.KernelSpec(family="linear"), sources)
        assert np.linalg.norm(g - a) <= 1e-10 * np.linalg.norm(a)

    def test_linear_recovery_tall(self):
        a = make_matrix(6, 4, seed=18, cond=10)
        sources = compat.apply_compat(compat.make_compat(a, "a0"),
                                      kernels.build_sources(a))
        g = kernels.kernel_matrix(kernels.KernelSpec(family="linear"), sources)
        assert np.linalg.norm(g - a) <= 1e-10 * np.linalg.norm(a)

    def test_auto_is_identity_when_square_and_a0_otherwise(self):
        assert compat.make_compat(make_matrix(4, 4, seed=22)) is \
            compat.IDENTITY
        for n, m, side in ((3, 5, "x"), (5, 3, "z")):
            a = make_matrix(n, m, seed=23)
            auto, a0 = compat.make_compat(a), compat.make_compat(a, "a0")
            assert (auto.mode, auto.side) == ("a0", side) == (a0.mode, a0.side)
            assert np.array_equal(auto.c, a0.c)

    def test_projected_side(self):
        # the longer side is projected; square A projects x
        assert [compat.projected_side(s) for s in ((3, 5), (5, 3), (4, 4))] \
            == ["x", "z", "x"]

    def test_identity_requires_square(self):
        with pytest.raises(ConfigError):
            compat.make_compat(make_matrix(3, 5, seed=19), "identity")

    def test_a2_requires_seed(self):
        with pytest.raises(ConfigError):
            compat.make_compat(make_matrix(3, 5, seed=20), "a2")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            compat.make_compat(make_matrix(3, 3, seed=21), "a9")
