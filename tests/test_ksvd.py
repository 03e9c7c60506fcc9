"""Model fitting, stationarity checks, embeddings, out-of-sample, persistence."""
import dataclasses
import json
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from aksvd import datasets, kernels, ksvd, linalg, nystrom, parallel
from aksvd.errors import (
    ConfigError,
    DegenerateKernelWarning,
    DimensionMismatchError,
    EmptyDenominatorWarning,
    NonFiniteError,
    ParseError,
    RankTooLargeError,
    ShapeMismatchError,
    SubproblemRankDeficientWarning,
    ToleranceUnreachableError,
)
from aksvd.kernels import CenteringStats, DataSources, KernelSpec
from aksvd.nystrom import NystromConfig, Sampler, resolve_sample_sizes

from conftest import assert_close_to_largest, dense_lift, make_matrix


def centered_g(model):
    """Rebuild the (optionally centered) kernel matrix a model was fit on."""
    g = kernels.kernel_matrix(model.kernel, DataSources(x=model.train_x,
                                                        z=model.train_z))
    return kernels.center(g)[0] if model.centered else g


def objective(model, g_c):
    """Value of the coupled variance objective at the model's coefficients:
    (||G_c^T B_phi||^2 + ||G_c B_psi||^2) / 2."""
    return float(0.5 * np.linalg.norm(g_c.T @ model.b_phi) ** 2
                 + 0.5 * np.linalg.norm(g_c @ model.b_psi) ** 2)


def column_sign_distance(u, v):
    """Max over columns of the sign-insensitive gap between two factors."""
    gaps = [min(np.linalg.norm(u[:, i] - v[:, i]),
                np.linalg.norm(u[:, i] + v[:, i]))
            for i in range(u.shape[1])]
    return max(gaps)


def rbf_spec(data, scale=1.0):
    return KernelSpec(family="rbf", gamma=scale * kernels.default_gamma(data))


class TestFit:
    def test_linear_recovery_singular_values(self):
        a = make_matrix(8, 8, seed=21, cond=10.0)
        model = ksvd.fit(a, KernelSpec(family="linear"), r=4, compat="a0",
                         center=False)
        ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(model.lam, ref[:4], atol=1e-8, rtol=1e-8)

    def test_linear_recovery_subspaces(self):
        a = make_matrix(8, 8, seed=21, cond=10.0)
        model = ksvd.fit(a, KernelSpec(family="linear"), r=4, compat="a0",
                         center=False)
        u_np, _, vt_np = np.linalg.svd(a)
        left = ksvd.transform(model, "left").features
        right = ksvd.transform(model, "right").features
        assert np.max(subspace_angles(left, u_np[:, :4])) <= 1e-6
        assert np.max(subspace_angles(right, vt_np[:4].T)) <= 1e-6

    def test_symmetric_data_ties_factors(self):
        rng = np.random.default_rng(22)
        b = rng.standard_normal((10, 10))
        a = 0.5 * (b + b.T)
        model = ksvd.fit(a, rbf_spec(a), r=5)
        assert column_sign_distance(model.b_phi, model.b_psi) <= 1e-8

    def test_seeded_sne_with_pca_compat(self):
        a = make_matrix(12, 9, seed=23)
        spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=4, compat="a1")
        res_psi, res_phi, gap = ksvd.verify_kkt(model, centered_g(model))
        assert res_psi <= 1e-8
        assert res_phi <= 1e-8
        assert gap <= 1e-8

    def test_lambda_positive_descending(self):
        a = make_matrix(11, 7, seed=24)
        model = ksvd.fit(a, rbf_spec(a), r=5, compat="a0")
        assert np.all(model.lam > 0)
        assert np.all(np.diff(model.lam) <= 1e-12)

    def test_degenerate_rank_truncates_with_warning(self):
        rng = np.random.default_rng(25)
        a = np.outer(rng.standard_normal(9), rng.standard_normal(9)) \
            + np.outer(rng.standard_normal(9), rng.standard_normal(9))
        with pytest.warns(DegenerateKernelWarning):
            model = ksvd.fit(a, KernelSpec(family="linear"), r=5,
                             compat="a0", center=False)
        assert model.rank == 2

    @pytest.mark.parametrize("solver, category", [
        ("exact", DegenerateKernelWarning),
        ("nystrom", SubproblemRankDeficientWarning)])
    def test_rank_warning_names_the_callers_line(self, solver, category):
        # the exact fit warns inside its dead-row wrapper, the sampled one
        # two calls down in the lift; both name this file
        rng = np.random.default_rng(25)
        a = np.outer(rng.standard_normal(9), rng.standard_normal(9))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            ksvd.fit(a, KernelSpec(family="linear"), r=3, compat="a0",
                     center=False, solver=solver)
        rank = [w for w in seen if issubclass(w.category, category)]
        assert len(rank) == 1
        assert rank[0].filename == __file__

    @pytest.mark.parametrize("solver", ["exact", "truncated"])
    def test_cycle_kernel_gives_r_equal_values(self, solver):
        # the centered sne kernel of a 60-node cycle has one nonzero value,
        # repeated 59 times; Lanczos meets it once per start vector
        a = datasets.synth_directed_graph("cycle", 60, seed=0).adjacency
        spec = KernelSpec("sne", kernels.default_gamma(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateKernelWarning)
            model = ksvd.fit(a, spec, r=4, solver=solver)
        assert model.rank == 4
        np.testing.assert_allclose(model.lam, model.lam[0], rtol=1e-14)

    @pytest.mark.parametrize("n, seed, r", [(300, 0, 8), (80, 3, 4)],
                             ids=["extract-dense", "criterion-8"])
    def test_exact_fit_agrees_with_lapack(self, n, seed, r):
        # extract-dense's graph and one of criterion 8's, at the default
        # bandwidth: the top r triplets of LAPACK's full SVD
        a = datasets.synth_directed_graph("two_block", n, seed=seed).adjacency
        model = ksvd.fit(a, KernelSpec("sne", kernels.default_gamma(a)), r=r)
        u, s, vt = np.linalg.svd(centered_g(model))
        assert np.max(np.abs(model.lam - s[:r])) <= 1e-12 * s[0]
        root = np.sqrt(model.lam)
        eta = nystrom.eta_accuracy(model.b_phi * root, model.b_psi * root,
                                   linalg.SvdResult(u=u, s=s, v=vt.T), r)
        assert eta <= 1e-12

    def test_iterative_solvers_match_exact(self):
        a = make_matrix(12, 12, seed=26)
        spec = rbf_spec(a)
        exact = ksvd.fit(a, spec, r=3)
        for solver in ("truncated", "randomized"):
            other = ksvd.fit(a, spec, r=3, solver=solver)
            np.testing.assert_allclose(other.lam, exact.lam, rtol=1e-8)
            assert column_sign_distance(other.b_phi, exact.b_phi) <= 1e-6
            assert column_sign_distance(other.b_psi, exact.b_psi) <= 1e-6

    def test_rank_guard(self):
        a = make_matrix(6, 4, seed=1)
        with pytest.raises(RankTooLargeError):
            ksvd.fit(a, rbf_spec(a), r=5, compat="a0")

    def test_unknown_solver(self):
        a = make_matrix(6, 6, seed=1)
        with pytest.raises(ConfigError):
            ksvd.fit(a, rbf_spec(a), r=2, solver="lobpcg")


class TestVerifyKkt:
    def test_exact_model_satisfies_system(self):
        a = make_matrix(10, 10, seed=27)
        model = ksvd.fit(a, rbf_spec(a), r=4)
        res_psi, res_phi, gap = ksvd.verify_kkt(model, centered_g(model))
        assert max(res_psi, res_phi, gap) <= 1e-8

    def test_perturbation_opens_constraint_gap(self):
        a = make_matrix(10, 10, seed=27)
        model = ksvd.fit(a, rbf_spec(a), r=4)
        rng = np.random.default_rng(0)
        bad = dataclasses.replace(
            model, b_phi=model.b_phi + 1e-3 * rng.standard_normal(
                model.b_phi.shape))
        _, _, gap = ksvd.verify_kkt(bad, centered_g(model))
        assert gap >= 1e-4

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(28)
        a = np.outer(rng.standard_normal(7), rng.standard_normal(5))
        model = ksvd.fit(a, KernelSpec(family="linear"), r=1, compat="a0",
                         center=False)
        res_psi, res_phi, _ = ksvd.verify_kkt(model, centered_g(model))
        assert res_psi <= 1e-12
        assert res_phi <= 1e-12

    def test_shape_mismatch(self):
        a = make_matrix(8, 8, seed=2)
        model = ksvd.fit(a, rbf_spec(a), r=2)
        with pytest.raises(ShapeMismatchError):
            ksvd.verify_kkt(model, np.eye(5))


class TestObjective:
    def test_rank_one_value_is_singular_value(self):
        rng = np.random.default_rng(29)
        u = rng.standard_normal(8)
        v = rng.standard_normal(6)
        a = np.outer(u, v)
        d = np.linalg.norm(u) * np.linalg.norm(v)
        model = ksvd.fit(a, KernelSpec(family="linear"), r=1, compat="a0",
                         center=False)
        assert objective(model, centered_g(model)) == pytest.approx(d, rel=1e-10)

    def test_equals_lambda_sum(self):
        a = make_matrix(10, 8, seed=30)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        obj = objective(model, centered_g(model))
        assert abs(obj - model.lam.sum()) <= 1e-8

    def test_orthogonal_mixing_preserves_value(self):
        # feasible reparameterizations (B_phi R, B_psi R^-T): an orthogonal R
        # keeps the objective at its stationary value
        a = make_matrix(10, 8, seed=30)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        g_c = centered_g(model)
        rot = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
        mixed = dataclasses.replace(model, b_phi=model.b_phi @ rot,
                                    b_psi=model.b_psi @ rot)
        _, _, gap = ksvd.verify_kkt(mixed, g_c)
        assert gap <= 1e-8
        assert objective(mixed, g_c) == pytest.approx(
            objective(model, g_c), abs=1e-8)

    def test_rescaling_feasible_increases_value(self):
        # scaling B_phi by c and B_psi by 1/c stays feasible but lifts the
        # objective to (c^2 + c^-2)/2 of the lambda sum: the solution is the
        # minimum over this family, not the maximum
        a = make_matrix(10, 8, seed=30)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        g_c = centered_g(model)
        c = 1.7
        scaled = dataclasses.replace(model, b_phi=c * model.b_phi,
                                     b_psi=model.b_psi / c)
        _, _, gap = ksvd.verify_kkt(scaled, g_c)
        assert gap <= 1e-8
        base = objective(model, g_c)
        lifted = objective(scaled, g_c)
        assert lifted > base + 1e-6
        expect = 0.5 * (c**2 + c**-2) * model.lam.sum()
        assert lifted == pytest.approx(expect, rel=1e-10)


class TestTransform:
    def test_full_rank_returns_unit_singular_vectors(self):
        a = make_matrix(9, 7, seed=31)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        left = ksvd.transform(model, "left").features
        norms = np.linalg.norm(left, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        np.testing.assert_allclose(left.T @ left, np.eye(4), atol=1e-8)

    def test_prefix_of_full_embedding(self):
        a = make_matrix(9, 7, seed=31)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        full = ksvd.transform(model, "right").features
        two = ksvd.transform(model, "right", r=2).features
        np.testing.assert_allclose(two, full[:, :2])

    def test_symmetric_sides_match(self):
        rng = np.random.default_rng(32)
        b = rng.standard_normal((9, 9))
        a = 0.5 * (b + b.T)
        model = ksvd.fit(a, rbf_spec(a), r=4)
        left = ksvd.transform(model, "left").features
        right = ksvd.transform(model, "right").features
        assert column_sign_distance(left, right) <= 1e-8

    def test_rank_guard_and_side_validation(self):
        a = make_matrix(8, 8, seed=2)
        model = ksvd.fit(a, rbf_spec(a), r=3)
        with pytest.raises(RankTooLargeError):
            ksvd.transform(model, "left", r=4)
        with pytest.raises(ConfigError):
            ksvd.transform(model, "sideways")


class TestTransformOos:
    def test_training_rows_replay_left_embedding(self):
        a = make_matrix(9, 9, seed=33)
        model = ksvd.fit(a, rbf_spec(a), r=4)
        scores = ksvd.transform_oos(model, new_x=a)
        np.testing.assert_allclose(
            scores, ksvd.transform(model, "left").features, atol=1e-6)

    def test_training_columns_replay_right_embedding(self):
        a = make_matrix(9, 9, seed=33)
        model = ksvd.fit(a, rbf_spec(a), r=4)
        scores = ksvd.transform_oos(model, new_z=a.T)
        np.testing.assert_allclose(
            scores, ksvd.transform(model, "right").features, atol=1e-6)

    def test_sne_replay_uses_stored_normalizers(self):
        a = make_matrix(10, 10, seed=34)
        spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=3)
        scores = ksvd.transform_oos(model, new_z=a.T)
        np.testing.assert_allclose(
            scores, ksvd.transform(model, "right").features, atol=1e-6)

    def test_replay_through_pseudoinverse_compat(self):
        a = make_matrix(10, 14, seed=35)
        model = ksvd.fit(a, KernelSpec(family="linear"), r=3, compat="a0",
                         center=False)
        scores = ksvd.transform_oos(model, new_x=a)
        np.testing.assert_allclose(
            scores, ksvd.transform(model, "left").features, atol=1e-6)

    def test_rank_one_score_is_projection_on_v(self):
        rng = np.random.default_rng(36)
        a = np.outer(rng.standard_normal(7), rng.standard_normal(6))
        model = ksvd.fit(a, KernelSpec(family="linear"), r=1, compat="a0",
                         center=False)
        x = rng.standard_normal(6)
        score = ksvd.transform_oos(model, new_x=x)
        v1 = model.b_psi[:, 0] * np.sqrt(model.lam[0])
        krow = x @ model.train_z.T  # compat acted on the z side, x is raw
        assert score[0] == pytest.approx((krow @ v1) / model.lam[0], rel=1e-10)

    def test_zero_kernel_row_gives_zero_score(self):
        a = make_matrix(8, 8, seed=37)
        model = ksvd.fit(a, KernelSpec(family="linear"), r=2, center=False)
        score = ksvd.transform_oos(model, new_x=np.zeros(8))
        np.testing.assert_allclose(score, 0.0, atol=1e-15)

    def test_vector_in_vector_out(self):
        a = make_matrix(8, 8, seed=37)
        model = ksvd.fit(a, rbf_spec(a), r=3)
        single = ksvd.transform_oos(model, new_x=a[2])
        assert single.shape == (3,)
        batch = ksvd.transform_oos(model, new_x=a[2:3])
        np.testing.assert_allclose(single, batch[0])

    def test_argument_validation(self):
        a = make_matrix(8, 8, seed=37)
        model = ksvd.fit(a, rbf_spec(a), r=3)
        with pytest.raises(ConfigError):
            ksvd.transform_oos(model)
        with pytest.raises(ConfigError):
            ksvd.transform_oos(model, new_x=a[0], new_z=a[:, 0])
        with pytest.raises(DimensionMismatchError):
            ksvd.transform_oos(model, new_x=np.ones(5))


class TestNystromSolver:
    def test_full_sampling_matches_exact_fit(self):
        a = make_matrix(14, 10, seed=38)
        spec = rbf_spec(a)
        exact = ksvd.fit(a, spec, r=3, compat="a0")
        sampled = ksvd.fit(a, spec, r=3, compat="a0", solver="nystrom",
                           solver_opts={"n": 14, "m": 10,
                                        "subproblem": "exact"})
        np.testing.assert_allclose(sampled.lam, exact.lam, rtol=1e-8)
        assert column_sign_distance(sampled.b_phi, exact.b_phi) <= 1e-6
        assert column_sign_distance(sampled.b_psi, exact.b_psi) <= 1e-6

    def test_partial_sampling_yields_working_model(self):
        a = make_matrix(40, 30, seed=39)
        model = ksvd.fit(a, rbf_spec(a), r=3, compat="a0", solver="nystrom",
                         solver_opts={"m": 12, "subproblem": "exact"})
        assert model.b_phi.shape == (40, 3)
        assert model.b_psi.shape == (30, 3)
        assert np.all(model.lam > 0)
        assert np.all(np.diff(model.lam) <= 1e-12)
        scores = ksvd.transform_oos(model, new_x=np.zeros(30))
        assert scores.shape == (3,)
        assert np.all(np.isfinite(scores))

    def test_full_centering_stats_option(self):
        a = make_matrix(30, 24, seed=40)
        spec = rbf_spec(a)
        model = ksvd.fit(a, spec, r=3, compat="a0", solver="nystrom",
                         solver_opts={"m": 10, "center_stats": "full",
                                      "subproblem": "exact"})
        sources, _ = ksvd._transformed_sources(kernels.build_sources(a),
                                               model.compat)
        _, stats = kernels.center(kernels.kernel_matrix(spec, sources))
        np.testing.assert_allclose(model.centering.row_means,
                                   stats.row_means, atol=1e-12)
        np.testing.assert_allclose(model.centering.col_means,
                                   stats.col_means, atol=1e-12)
        assert model.centering.grand_mean == pytest.approx(stats.grand_mean,
                                                           abs=1e-12)

    def test_sampled_sne_matches_dense_scale(self):
        # sampled sne rows are normalized at full-matrix scale, so the
        # sampled fit estimates the dense spectrum, not an M/m-fold one,
        # under either source of centering statistics. The sampled-stats
        # top vector sits at cosine 0.9898 with m=64 columns of 1000
        a = datasets.synth_directed_graph("two_block", 1000, seed=0).adjacency
        spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        dense = ksvd.fit(a, spec, r=8, solver="truncated")
        top = ksvd.transform(dense, "left", 1).features[:, 0]
        for center_stats in ("sampled", "full"):
            model = ksvd.fit(a, spec, r=8, solver="nystrom",
                             solver_opts={"m": 64,
                                          "center_stats": center_stats})
            fold = model.lam[0] / dense.lam[0]
            assert abs(fold - 1.0) <= 0.1, (center_stats, fold)
            ours = ksvd.transform(model, "left", 1).features[:, 0]
            cosine = abs(ours @ top) / np.linalg.norm(ours)
            assert cosine >= 0.98, (center_stats, cosine)

    def test_full_sampling_sne_replay_matches_transform(self):
        a = make_matrix(30, 24, seed=42)
        spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=3, compat="a0", solver="nystrom",
                         solver_opts={"n": 30, "m": 24,
                                      "subproblem": "exact"})
        np.testing.assert_allclose(
            ksvd.transform_oos(model, new_x=a),
            ksvd.transform(model, "left").features, atol=1e-10)
        np.testing.assert_allclose(
            ksvd.transform_oos(model, new_z=a.T),
            ksvd.transform(model, "right").features, atol=1e-10)

    def test_min_dimension_above_two_thousand(self):
        # compat a1 takes the full SVD of the 2100 x 2200 data matrix
        a = (np.random.default_rng(41).random((2100, 2200)) < 0.01) * 1.0
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a1", solver="nystrom",
                         solver_opts={"m": 64})
        assert model.lam.shape == (4,)
        assert np.all(np.isfinite(model.lam)) and np.all(model.lam > 0)


class TestPersistence:
    def make_model(self, n=12, m=9, compat="a1"):
        a = make_matrix(n, m, seed=41)
        spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
        return ksvd.fit(a, spec, r=4, compat=compat)

    def test_round_trip(self, tmp_path):
        # identity, x-side a1 and z-side a1: the training data are rebuilt
        # from the one stored copy of A and must come back bit for bit
        for n, m, compat in ((9, 9, "identity"), (9, 12, "a1"),
                             (12, 9, "a1")):
            model = self.make_model(n, m, compat)
            out = tmp_path / f"{n}x{m}"
            ksvd.save_model(model, out)
            assert [p.name for p in out.iterdir()] == ["model.npz"]
            back = ksvd.load_model(out)
            for field in ("b_phi", "b_psi", "lam", "train_x", "train_z",
                          "sne_row_denoms"):
                assert np.array_equal(getattr(back, field),
                                      getattr(model, field)), (compat, field)
            for field in ("row_means", "col_means", "grand_mean"):
                assert np.array_equal(getattr(back.centering, field),
                                      getattr(model.centering, field)), field
            if compat == "identity":
                assert back.compat.c is None
            else:
                assert np.array_equal(back.compat.c, model.compat.c)
            assert back.compat.mode == model.compat.mode
            assert back.kernel == model.kernel
            assert back.compat_side == model.compat_side
            assert back.centered == model.centered

    def test_bad_model_file_raises_parse_error(self, tmp_path):
        good = tmp_path / "good"
        ksvd.save_model(self.make_model(), good)
        blob = (good / "model.npz").read_bytes()
        with np.load(good / "model.npz") as npz:
            arrays = dict(npz)

        def rewrite(contents):
            out = tmp_path / "bad"
            out.mkdir(exist_ok=True)
            np.savez(out / "model.npz", **contents)
            return out

        snap = json.loads(str(arrays["snapshot"]))
        cases = {
            "truncated": blob[: len(blob) // 2],
            "not a zip": b"B_phi,B_psi\n1,2\n",
            "empty": b"",
        }
        for name, content in cases.items():
            out = tmp_path / name.replace(" ", "_")
            out.mkdir()
            (out / "model.npz").write_bytes(content)
            with pytest.raises(ParseError, match="model.npz"):
                ksvd.load_model(out)
        with pytest.raises(ParseError, match="model.npz"):
            ksvd.load_model(tmp_path / "missing")
        snap["format"] = 2
        with pytest.raises(ParseError, match="format 2"):
            ksvd.load_model(rewrite({**arrays, "snapshot": json.dumps(snap)}))
        with pytest.raises(ParseError, match="disagree"):
            ksvd.load_model(rewrite({**arrays, "lam": arrays["lam"][:3]}))
        for key in ("b_psi", "sne_row_denoms"):
            lacking = {k: v for k, v in arrays.items() if k != key}
            with pytest.raises(ParseError, match=key):
                ksvd.load_model(rewrite(lacking))

    @staticmethod
    def graph_models():
        """A square 0/1 model (identity compat) and a rectangular one (a0)."""
        rng = np.random.default_rng(44)
        for shape, compat in (((40, 40), "identity"), ((30, 24), "a0")):
            a = (rng.random(shape) < 0.3).astype(float)
            spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
            yield ksvd.fit(a, spec, r=3, compat=compat)

    def assert_same_model(self, back, model):
        for field in ("b_phi", "b_psi", "lam", "train_x", "train_z",
                      "sne_row_denoms"):
            got, want = getattr(back, field), getattr(model, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        for field in ("row_means", "col_means", "grand_mean"):
            assert np.array_equal(getattr(back.centering, field),
                                  getattr(model.centering, field)), field

    def test_data_dtype_in_the_file(self, tmp_path):
        # 0/1 data take one byte an entry, and so do integers up to 255;
        # integers below 0 or above 255 keep their float32 stored form, and
        # non-integral data float64
        models = [(m, np.uint8) for m in self.graph_models()]
        models.append((self.make_model(), np.float64))
        rng = np.random.default_rng(45)
        for low, high, dtype in ((0, 256, np.uint8), (-1, 255, np.float32),
                                 (0, 257, np.float32)):
            a = rng.integers(low, high, (20, 20)).astype(float)
            a[0, 0] = high - 1
            spec = KernelSpec(family="sne", gamma=kernels.default_gamma(a))
            models.append((ksvd.fit(a, spec, r=3), dtype))
        for i, (model, dtype) in enumerate(models):
            ksvd.save_model(model, tmp_path / str(i))
            with np.load(tmp_path / str(i) / "model.npz") as npz:
                assert npz["data"].dtype == dtype
            self.assert_same_model(ksvd.load_model(tmp_path / str(i)), model)

    def test_float64_data_file_still_loads(self, tmp_path):
        # files that hold A as float64, as written before A was narrowed,
        # load bit for bit
        for i, model in enumerate(self.graph_models()):
            ksvd.save_model(model, tmp_path / "new")
            with np.load(tmp_path / "new" / "model.npz") as npz:
                arrays = dict(npz)
            arrays["data"] = arrays["data"].astype(np.float64)
            (tmp_path / str(i)).mkdir()
            np.savez(tmp_path / str(i) / "model.npz", **arrays)
            self.assert_same_model(ksvd.load_model(tmp_path / str(i)), model)

    def test_oos_after_reload(self, tmp_path):
        model = self.make_model()
        ksvd.save_model(model, tmp_path / "model")
        back = ksvd.load_model(tmp_path / "model")
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((3, model.train_x.shape[1]))
        np.testing.assert_allclose(ksvd.transform_oos(back, new_x=pts),
                                   ksvd.transform_oos(model, new_x=pts),
                                   atol=1e-12)


def _dense_nystrom_fit(a, spec, r, center, center_stats, m, seed):
    """fit(solver="nystrom") as a dense formula: statistics, centering and
    lift on np.asarray of the sampled blocks. Returns (U~, V~, lambda,
    centering statistics)."""
    lazy = kernels.LazyKernelSource(spec, kernels.build_sources(a))
    cfg = NystromConfig(r=r, m=m, seed=seed)
    rows, cols, _ = Sampler(lazy.shape, seed).draw(
        *resolve_sample_sizes(lazy.shape, cfg))
    g_nm, g_big_m, g_n_big = (np.asarray(b)
                              for b in lazy.sample_blocks(rows, cols))
    if not center:
        stats = CenteringStats(np.zeros(a.shape[0]), np.zeros(a.shape[1]),
                               0.0)
    elif center_stats == "full":
        stats = lazy.streaming_stats()
    else:
        stats = CenteringStats(g_big_m.mean(axis=1), g_n_big.mean(axis=0),
                               float(g_nm.mean()))
    if center:
        rm, cm, gm = stats.row_means, stats.col_means, stats.grand_mean
        g_nm = g_nm - rm[rows, None] - cm[None, cols] + gm
        g_big_m = g_big_m - rm[:, None] - cm[None, cols] + gm
        g_n_big = g_n_big - rm[rows, None] - cm[None, :] + gm
    return (*dense_lift(g_nm, g_big_m, g_n_big, cfg), stats)


class TestSolverOpts:
    """Every solver_opts key is read by the solver it is given to."""

    @pytest.mark.parametrize("solver, opts", [
        ("exact", {"m": 5}),
        ("exact", {"tol": 1e-8}),
        ("truncated", {"m": 5}),
        ("truncated", {"oversample": 4}),
        ("randomized", {"tol": 1e-8}),
        ("nystrom", {"mm": 5}),
        ("nystrom", {"tol": 1e-8}),
    ])
    def test_unread_key_rejected(self, solver, opts):
        a = make_matrix(12, 12, seed=80)
        with pytest.raises(ConfigError, match=next(iter(opts))):
            ksvd.fit(a, rbf_spec(a), r=3, solver=solver, solver_opts=opts)

    @pytest.mark.parametrize("center", [True, False])
    def test_unknown_center_stats_rejected(self, center):
        a = make_matrix(12, 12, seed=81)
        with pytest.raises(ConfigError, match="fulll"):
            ksvd.fit(a, rbf_spec(a), r=3, solver="nystrom", center=center,
                     solver_opts={"center_stats": "fulll"})

    @pytest.mark.parametrize("solver", list(ksvd.SOLVER_OPTS))
    def test_every_listed_key_is_accepted(self, solver):
        a = make_matrix(12, 12, seed=82)
        values = {"tol": 1e-10, "seed": 1, "oversample": 4, "power_iters": 1,
                  "n": 8, "m": 8, "subproblem": "exact",
                  "center_stats": "full"}
        opts = {key: values[key] for key in ksvd.SOLVER_OPTS[solver]}
        assert ksvd.fit(a, rbf_spec(a), r=3, solver=solver,
                        solver_opts=opts).rank == 3

    @pytest.mark.parametrize("solver, opts", [
        ("randomized", {"oversample": -3}),
        ("randomized", {"power_iters": -1}),
        ("truncated", {"tol": -1.0}),
        ("truncated", {"tol": float("nan")}),
    ])
    def test_negative_or_nan_option_rejected(self, solver, opts):
        # the dense solvers would clamp, skip or ignore these values
        a = make_matrix(12, 12, seed=83)
        with pytest.raises(ConfigError, match=f"{next(iter(opts))} must be"):
            ksvd.fit(a, rbf_spec(a), r=3, solver=solver, solver_opts=opts)

    def test_zero_tolerance_is_accepted(self):
        a = make_matrix(12, 12, seed=84)
        got = ksvd.fit(a, rbf_spec(a), r=3, solver="truncated",
                       solver_opts={"tol": 0.0})
        want = ksvd.fit(a, rbf_spec(a), r=3)
        np.testing.assert_allclose(got.lam, want.lam, rtol=1e-10)

    def test_kernel_spec_has_no_compat(self):
        # the one compat transform is fit's ``compat`` argument
        assert [f.name for f in dataclasses.fields(KernelSpec)] == \
            ["family", "gamma"]


class TestChunkedNystromFit:
    """The centering rides on the chunked blocks as rank-one corrections."""

    @pytest.mark.parametrize("center_stats", ["sampled", "full"])
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("family", ["sne", "rbf", "linear"])
    @pytest.mark.parametrize("data", ["graph", "normal"])
    def test_matches_dense_formula(self, data, family, center, center_stats):
        a = (datasets.synth_directed_graph("two_block", 200, seed=9).adjacency
             if data == "graph" else make_matrix(200, 200, seed=70))
        spec = KernelSpec(family, kernels.default_gamma(a))
        opts = {"m": 48, "seed": 3, "center_stats": center_stats}
        if center_stats == "full" and not center:
            # an uncentered fit uses no statistics to compute in full
            with pytest.raises(ConfigError, match="center=False"):
                ksvd.fit(a, spec, r=5, solver="nystrom", center=center,
                         solver_opts=opts)
            return
        model = ksvd.fit(a, spec, r=5, solver="nystrom", center=center,
                         solver_opts=opts)
        u, v, lam, stats = _dense_nystrom_fit(a, spec, 5, center,
                                              center_stats, 48, 3)
        np.testing.assert_array_equal(model.lam, lam)
        for got, want in ((ksvd.transform(model, "left").features, u),
                          (ksvd.transform(model, "right").features, v),
                          (model.b_phi, u / np.sqrt(lam)),
                          (model.b_psi, v / np.sqrt(lam))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for field in ("row_means", "col_means", "grand_mean"):
            np.testing.assert_array_equal(getattr(model.centering, field),
                                          getattr(stats, field))


class TestOosPreparedSides:
    """A model carries its training sides' norms and scales."""

    def test_projections_never_measure_the_training_sides(self, tmp_path,
                                                           monkeypatch):
        a = datasets.synth_directed_graph("two_block", 150, seed=10).adjacency
        model = ksvd.fit(a, KernelSpec("sne", kernels.default_gamma(a)), r=4)
        ksvd.save_model(model, tmp_path)
        loaded = ksvd.load_model(tmp_path)
        for side in ("x_stats", "z_stats"):
            for got, want in zip(getattr(loaded.train, side),
                                 getattr(model.train, side)):
                assert np.array_equal(got, want)
        seen = []
        prepare_side = kernels.prepare_side

        def counted(arr, *args, **kwargs):
            seen.append(arr)
            return prepare_side(arr, *args, **kwargs)

        monkeypatch.setattr(kernels, "prepare_side", counted)
        new = (np.random.default_rng(11).random((2, 10, 150)) < 0.2) * 1.0
        for _ in range(2):
            ksvd.transform_oos(loaded, new_x=new[0])
            ksvd.transform_oos(loaded, new_z=new[1])
        # only the new points are measured, once per call
        assert len(seen) == 4
        assert all(arr.shape == (10, 150) for arr in seen)

    def test_integer_points_hold_no_float64_copy(self, monkeypatch):
        # uint8 points go to float32 straight from their own type; with
        # small chunks, their kernel blocks are small beside that copy
        import tracemalloc
        monkeypatch.setattr(ksvd, "OOS_CHUNK", 128)
        n = 1200
        rng = np.random.default_rng(15)
        a = (rng.random((n, n)) < 0.3).astype(np.uint8)
        model = ksvd.fit(a, KernelSpec("sne", 40.0), r=2, solver="randomized")
        new = (rng.random((2, n, n)) < 0.3).astype(np.uint8)
        want = [ksvd.transform_oos(model, new_x=new[0].astype(float)),
                ksvd.transform_oos(model, new_z=new[1].astype(float))]
        for pts, expect in zip(({"new_x": new[0]}, {"new_z": new[1]}), want):
            tracemalloc.start()
            try:
                got = ksvd.transform_oos(model, **pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(got, expect)
            # each live unit: its chunk's float32 points, its float64 block
            # and the packed tile's two float32 temporaries of 64 rows; no
            # copy of the batch, 11.5 MB in float64, is ever made
            chunk = ksvd.OOS_CHUNK
            unit = chunk * n * 4 + chunk * n * 8 + 2 * (chunk // 2) * n * 4
            assert peak < parallel.POOL_SIZE * unit + 2 ** 20

    @pytest.mark.parametrize("family", ["sne", "rbf", "linear"])
    @pytest.mark.parametrize("data", ["graph", "normal"])
    def test_dense_model_projection_is_unchanged(self, data, family):
        # a model whose sides carry no statistics measures them afresh on
        # every call; the prepared ones must give the same bits
        rng = np.random.default_rng(12)
        if data == "graph":
            a = datasets.synth_directed_graph("two_block", 120,
                                              seed=13).adjacency
            new_x, new_z = (rng.random((2, 15, 120)) < 0.2) * 1.0
        else:
            a = make_matrix(120, 120, seed=14)
            new_x, new_z = rng.standard_normal((2, 15, 120))
        spec = KernelSpec(family, kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=4, solver="truncated")
        bare = dataclasses.replace(model, train=DataSources(
            x=model.train_x, z=model.train_z))
        for pts in ({"new_x": new_x}, {"new_z": new_z}):
            np.testing.assert_array_equal(ksvd.transform_oos(model, **pts),
                                          ksvd.transform_oos(bare, **pts))


def dense_oos(model, side, pts):
    """transform_oos as the dense formula: the whole batch's normalized
    kernel rows or columns, centered with ``center_oos``, times
    B / sqrt(lambda). ``pts`` are already through the compat transform."""
    train, scale = model.train, np.sqrt(model.lam)[None, :]
    if side == "x":
        g = kernels.kernel_matrix(model.kernel, DataSources(x=pts, z=train.z))
        if model.centered:
            g = kernels.center_oos(g, model.centering, "row")
        return g @ model.b_psi / scale
    g = kernels.LazyKernelSource(model.kernel, DataSources(
        x=train.x, z=pts))._block()
    if model.kernel.family == "sne":
        kernels._divide_rows(g, model.sne_row_denoms, train.z.shape[0])
    if model.centered:
        g = kernels.center_oos(g, model.centering, "column")
    return g.T @ model.b_phi / scale


def replay_in_batches(model, side, data, batch):
    """transform_oos of every point of ``data``, ``batch`` points a call."""
    key = "new_x" if side == "x" else "new_z"
    return np.vstack([ksvd.transform_oos(model, **{key: data[i:i + batch]})
                      for i in range(0, len(data), batch)])


def one_warning(call):
    """Run ``call``; return its result and the one EmptyDenominatorWarning
    it gave, which must name this file."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = call()
    dead = [w for w in seen if issubclass(w.category, EmptyDenominatorWarning)]
    assert len(dead) == 1, [str(w.message) for w in dead]
    assert dead[0].filename == __file__
    return out, dead[0]


class TestChunkedOos:
    """transform_oos works a chunk of new points at a time."""

    CHUNK = 8
    BATCHES = (1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
    def test_replay_every_training_point(self, monkeypatch, family, center):
        monkeypatch.setattr(ksvd, "OOS_CHUNK", self.CHUNK)
        a = make_matrix(40, 40, seed=90)
        spec = KernelSpec(family, kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=4, center=center)
        left = ksvd.transform(model, "left").features
        right = ksvd.transform(model, "right").features
        for batch in self.BATCHES:
            assert_close_to_largest(replay_in_batches(model, "x", a, batch),
                                    left, 1e-12)
            assert_close_to_largest(replay_in_batches(model, "z", a.T, batch),
                                    right, 1e-12)

    @pytest.mark.parametrize("family", ["linear", "rbf", "sne"])
    def test_chunks_agree_with_the_dense_formula(self, monkeypatch, family):
        monkeypatch.setattr(ksvd, "OOS_CHUNK", self.CHUNK)
        a = make_matrix(30, 24, seed=91)
        model = ksvd.fit(a, KernelSpec(family, kernels.default_gamma(a)),
                         r=3, compat="a1")
        rng = np.random.default_rng(92)
        for batch in self.BATCHES:
            new_x = rng.standard_normal((batch, 24))
            new_z = rng.standard_normal((batch, 30))
            # A is tall, so the compat transform acts on the z side
            assert_close_to_largest(ksvd.transform_oos(model, new_x=new_x),
                                    dense_oos(model, "x", new_x), 1e-12)
            assert_close_to_largest(
                ksvd.transform_oos(model, new_z=new_z),
                dense_oos(model, "z", new_z @ model.compat.c), 1e-12)

    @pytest.mark.parametrize("side", ["x", "z"])
    def test_packed_batches_equal_each_point_alone(self, side):
        # at the real OOS_CHUNK of 512, against 600 training points, the new
        # points are the shorter side of each Gram product and pack two to a
        # float32 lane; 511 leave an odd last row, 513 a chunk of one row
        a = datasets.synth_directed_graph("two_block", 600, seed=7).adjacency
        model = ksvd.fit(a, KernelSpec("sne", kernels.default_gamma(a)), r=3)
        pts = (np.random.default_rng(99).random((513, 600)) < 0.3) * 1.0
        key = "new_" + side
        alone = np.array([ksvd.transform_oos(model, **{key: p}) for p in pts])
        for batch in (1, 2, 511, 513):
            assert_close_to_largest(
                ksvd.transform_oos(model, **{key: pts[:batch]}),
                alone[:batch], 1e-12)

    @pytest.mark.parametrize("side", ["x", "z"])
    def test_one_chunk_block_at_a_time(self, side):
        import tracemalloc
        n = 1500
        rng = np.random.default_rng(16)
        a = (rng.random((n, n)) < 0.3).astype(np.uint8)
        model = ksvd.fit(a, KernelSpec("sne", 40.0), r=2, solver="randomized")
        pts = (rng.random((n, n)) < 0.3).astype(np.uint8)
        tracemalloc.start()
        try:
            ksvd.transform_oos(model, **{"new_" + side: pts})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each live unit: its chunk's float32 points (3.1 MB), its float64
        # block of 512 points against the training side (6.1 MB) and the
        # packed tile's two float32 temporaries of 256 rows (3.1 MB), with
        # 1 MB for the rest; a block held over from a finished unit would
        # add 6.1 MB, and float32 points of the whole batch 9.0 MB
        points, block = ksvd.OOS_CHUNK * n * 4, ksvd.OOS_CHUNK * n * 8
        packed = 2 * (ksvd.OOS_CHUNK // 2) * n * 4
        assert peak < parallel.POOL_SIZE * (points + block + packed) + 2 ** 20

    def test_dead_new_row(self, monkeypatch):
        # the new rows 3 and 11, in different chunks, lie so far from every
        # training column that their sne sums underflow: they read 1/M
        monkeypatch.setattr(ksvd, "OOS_CHUNK", self.CHUNK)
        a = make_matrix(20, 20, seed=93)
        model = ksvd.fit(a, KernelSpec("sne", 2.0), r=3)
        new_x = np.random.default_rng(94).standard_normal((12, 20))
        new_x[[3, 11]] = 1e3
        got, warning = one_warning(
            lambda: ksvd.transform_oos(model, new_x=new_x))
        assert str(warning.message).startswith("2 sne row(s)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyDenominatorWarning)
            want = dense_oos(model, "x", new_x)
        assert_close_to_largest(got, want, 1e-12)
        # a uniform row centers to minus the column means plus the grand mean
        stats, w = model.centering, model.b_psi / np.sqrt(model.lam)
        uniform = (stats.grand_mean - stats.col_means) @ w
        np.testing.assert_allclose(got[3], uniform, rtol=1e-12)
        np.testing.assert_array_equal(got[3], got[11])

    def test_dead_new_row_on_a_pool_of_two(self, monkeypatch):
        # the two dead rows lie in two units, each run in a worker thread
        monkeypatch.setattr(parallel, "POOL_SIZE", 2)
        self.test_dead_new_row(monkeypatch)

    @pytest.mark.parametrize("center", [True, False])
    def test_dead_training_row_on_the_z_side(self, monkeypatch, center):
        monkeypatch.setattr(ksvd, "OOS_CHUNK", self.CHUNK)
        a = make_matrix(20, 20, seed=95)
        model = ksvd.fit(a, KernelSpec("sne", kernels.default_gamma(a)), r=3,
                         center=center)
        denoms = model.sne_row_denoms.copy()
        denoms[6] = 0.0  # training row 6 reads 1/M in every new column
        model = dataclasses.replace(model, sne_row_denoms=denoms)
        new_z = np.random.default_rng(96).standard_normal((19, 20))
        got, warning = one_warning(
            lambda: ksvd.transform_oos(model, new_z=new_z))
        assert str(warning.message).startswith("1 sne row(s)")
        assert_close_to_largest(got, dense_oos(model, "z", new_z), 1e-12)

    @pytest.mark.parametrize("side", ["x", "z"])
    def test_large_batch_holds_no_kernel_block_of_the_batch(self, side):
        # the raw points shrink through the compat transform, so nothing of
        # the batch's own size need be made; 3000 x 1200 float64 is 28.8 MB
        import tracemalloc
        rng = np.random.default_rng(97)
        shape, n_new, train = (30, 1200), 3000, 1200
        a = rng.standard_normal(shape if side == "x" else shape[::-1])
        model = ksvd.fit(a, KernelSpec("sne", kernels.default_gamma(a)), r=3,
                         compat="a0")
        pts = rng.standard_normal((n_new, train))
        key = "new_x" if side == "x" else "new_z"
        ksvd.transform_oos(model, **{key: pts[:10]})
        tracemalloc.start()
        try:
            ksvd.transform_oos(model, **{key: pts})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each live unit: its chunk's projected points and its float64
        # block (4.9 MB), beside the projected batch (0.7 MB), with 1 MB
        # for the rest; a block of the whole batch would be 28.8 MB
        chunk, projected = ksvd.OOS_CHUNK, n_new * shape[0] * 8
        unit = chunk * shape[0] * 8 + chunk * train * 8
        assert peak < parallel.POOL_SIZE * unit + projected + 2 ** 20


class TestOosPool:
    """Chunks of new points run as units on a thread pool: the scores,
    errors and entry counts are those of the chunks run one by one."""

    @pytest.mark.parametrize("compat", ["identity", "a0", "a1"])
    @pytest.mark.parametrize("family", ["sne", "rbf", "linear"])
    @pytest.mark.parametrize("data", ["graph", "normal"])
    def test_same_bits_at_any_pool_size(self, monkeypatch, data, family,
                                        compat):
        # a0 on wide data projects the x side, a1 on tall data the z side;
        # 511 points leave one unit, 513 a second of one point
        shape = {"identity": (60, 60), "a0": (48, 60), "a1": (60, 48)}[compat]
        rng = np.random.default_rng(20)
        if data == "graph":
            a = datasets.synth_directed_graph("two_block", 60, seed=21)\
                .adjacency[:shape[0], :shape[1]]
        else:
            a = rng.standard_normal(shape)
        model = ksvd.fit(a, KernelSpec(family, kernels.default_gamma(a)), r=3,
                         compat=compat)
        for side, length in (("x", shape[1]), ("z", shape[0])):
            for batch in (1, 511, 513, 2000):
                if data == "graph":
                    pts = (rng.random((batch, length)) < 0.2).astype(np.uint8)
                else:
                    pts = rng.standard_normal((batch, length))
                scores = []
                for size in (1, 2):
                    monkeypatch.setattr(parallel, "POOL_SIZE", size)
                    scores.append(ksvd.transform_oos(
                        model, **{"new_" + side: pts}))
                assert np.array_equal(*scores), (side, batch)

    @pytest.mark.parametrize("compat", ["identity", "a0"])
    def test_nan_in_the_third_chunk(self, monkeypatch, compat):
        monkeypatch.setattr(ksvd, "OOS_CHUNK", 8)
        a = make_matrix(20, 20, seed=23)
        model = ksvd.fit(a, KernelSpec("sne", 2.0), r=3, compat=compat)
        new_x = np.random.default_rng(24).standard_normal((40, 20))
        # row 19 of the third chunk: found in that chunk's unit, or under
        # a0 before the one compat product of the whole batch
        new_x[19, 4] = np.nan
        for size in (1, 2):
            monkeypatch.setattr(parallel, "POOL_SIZE", size)
            with pytest.raises(NonFiniteError,
                               match="^points contains NaN or Inf$"):
                ksvd.transform_oos(model, new_x=new_x)

    @pytest.mark.parametrize("size", [2, 8])
    @pytest.mark.parametrize("side", ["x", "z"])
    def test_entry_count_is_exact(self, monkeypatch, side, size):
        # more workers than cores, switching threads as often as it can: a
        # chunk lost or run twice, or rows written by another unit, show
        monkeypatch.setattr(ksvd, "OOS_CHUNK", 8)
        a = make_matrix(40, 30, seed=25)
        model = ksvd.fit(a, KernelSpec("rbf", kernels.default_gamma(a)), r=3,
                         compat="a0")
        # new x points have A's 30 columns, new z points its 40 rows
        key, length = ("new_x", 30) if side == "x" else ("new_z", 40)
        pts = np.random.default_rng(26).standard_normal((203, length))
        monkeypatch.setattr(parallel, "POOL_SIZE", 1)
        want = ksvd.transform_oos(model, **{key: pts})
        entries, lock = [], threading.Lock()
        raw_block = kernels._raw_block

        def counted(*args):
            block = raw_block(*args)
            with lock:
                entries.append(block.size)
            return block

        monkeypatch.setattr(kernels, "_raw_block", counted)
        monkeypatch.setattr(parallel, "POOL_SIZE", size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ksvd.transform_oos(model, **{key: pts})
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)
        # 26 chunks, each against every training point of the other side
        assert len(entries) == 26
        assert sum(entries) == 203 * (30 if side == "x" else 40)


class TestDeadRowWarning:
    """One EmptyDenominatorWarning a call, at the caller's line."""

    @staticmethod
    def far_row_data():
        """x row 5 far from every z; 1100 z rows span three column blocks
        of the streaming statistics."""
        rng = np.random.default_rng(98)
        x = rng.standard_normal((60, 4))
        x[5] = 1e3
        return x, rng.standard_normal((1100, 4))

    @pytest.mark.parametrize("solver, opts", [
        ("exact", {}),
        # sampled blocks and the streaming statistics both see the row
        ("nystrom", {"m": 8, "center_stats": "full"}),
    ])
    def test_fit(self, solver, opts):
        # row 4 of x is 1e3 throughout; every column z carries 1e3 in its
        # coordinate 4, but only x_4 is that far from all of them
        a = make_matrix(12, 12, seed=99)
        a[4] = 1e3
        _, warning = one_warning(lambda: ksvd.fit(
            a, KernelSpec("sne", 100.0), r=2, solver=solver,
            solver_opts=opts))
        assert str(warning.message).startswith("1 sne row(s)")

    def test_solve_to_tolerance(self):
        x, z = self.far_row_data()
        spec = KernelSpec("sne", 2.0)
        source = kernels.LazyKernelSource(spec, DataSources(x=x, z=z))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyDenominatorWarning)
            g = source.full()
        reference = linalg.svd_exact(g)

        def solve():
            # every attempt's normalizer estimates find the dead row; the
            # last attempt, at the column cap M, gives up
            with pytest.raises(ToleranceUnreachableError) as err:
                nystrom.solve_to_tolerance(
                    kernels.LazyKernelSource(spec, DataSources(x=x, z=z)),
                    "asym_nystrom", 0.0, reference,
                    NystromConfig(r=2, m=8, seed=1))
            return err.value.report

        report, _ = one_warning(solve)
        assert len(report.history) > 1

    def test_lazy_source_methods(self):
        x, z = self.far_row_data()
        src = kernels.LazyKernelSource(KernelSpec("sne", 2.0),
                                       DataSources(x=x, z=z))
        one_warning(src.full)
        one_warning(src.streaming_stats)
        one_warning(lambda: src.sample_blocks(np.arange(60), np.arange(50)))
        one_warning(lambda: kernels.kernel_matrix(
            src._spec, DataSources(x=x, z=z)))


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 14), st.integers(3, 12), st.integers(0, 500))
def test_exact_solver_invariants(n, m, seed):
    """Constraint and stationarity hold on random inputs for the exact path."""
    a = make_matrix(n, m, seed=seed)
    r = min(3, n, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateKernelWarning)
        model = ksvd.fit(a, rbf_spec(a),
                         r=r, compat=None)
    g_c = centered_g(model)
    res_psi, res_phi, gap = ksvd.verify_kkt(model, g_c)
    assert max(res_psi, res_phi, gap) <= 1e-8
    assert np.all(model.lam > 0)
    assert np.all(np.diff(model.lam) <= 1e-12)
