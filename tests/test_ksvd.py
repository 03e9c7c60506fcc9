"""Model fitting, stationarity checks, embeddings, out-of-sample, persistence."""
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from aksvd import datasets, kernels, ksvd
from aksvd.errors import (
    ConfigError,
    DegenerateKernelWarning,
    DimensionMismatchError,
    ParseError,
    RankTooLargeError,
    ShapeMismatchError,
)
from aksvd.kernels import DataSources, KernelSpec

from conftest import make_matrix


def centered_g(model):
    """Rebuild the (optionally centered) kernel matrix a model was fit on."""
    spec = dataclasses.replace(model.kernel)
    g = kernels.kernel_matrix(spec, DataSources(x=model.train_x,
                                                z=model.train_z))
    return kernels.center(g)[0] if model.centered else g


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
        assert ksvd.objective(model, centered_g(model)) == pytest.approx(d, rel=1e-10)

    def test_equals_lambda_sum(self):
        a = make_matrix(10, 8, seed=30)
        model = ksvd.fit(a, rbf_spec(a), r=4, compat="a0")
        obj = ksvd.objective(model, centered_g(model))
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
        assert ksvd.objective(mixed, g_c) == pytest.approx(
            ksvd.objective(model, g_c), abs=1e-8)

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
        base = ksvd.objective(model, g_c)
        lifted = ksvd.objective(scaled, g_c)
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
        sources, _ = ksvd._transformed_sources(np.asarray(a, dtype=float),
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
        # 0/1 data take one byte an entry; non-integral data keep float64
        models = [(m, np.uint8) for m in self.graph_models()]
        models.append((self.make_model(), np.float64))
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
