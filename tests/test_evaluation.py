"""Classifier, metric, graph-reconstruction, and train/test split checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aksvd import evaluation as ev
from aksvd import kernels, ksvd
from aksvd.errors import (
    ConfigError,
    DegreeTooLargeError,
    LengthMismatchError,
    ShapeMismatchError,
    SingleClassError,
    SingularSystemError,
)
from aksvd.evaluation import LabeledFeatures
from aksvd.kernels import KernelSpec


def blobs(seed, centers, spread=0.1, per_class=20):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for cls, center in enumerate(centers):
        feats.append(center + spread * rng.standard_normal(
            (per_class, len(center))))
        labels.extend([cls] * per_class)
    return np.vstack(feats), np.array(labels)


class TestLssvm:
    def test_separable_clusters_perfect_training_accuracy(self):
        feats, labels = blobs(0, [(-10.0, 0.0), (10.0, 0.0)])
        model = ev.lssvm_fit(LabeledFeatures(feats, labels))
        pred = ev.lssvm_predict(model, feats)
        assert ev.accuracy(pred, labels) == 1.0

    def test_sign_consistent_weight(self):
        f = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = ev.lssvm_fit(LabeledFeatures(f, y))
        # column for class 1 must point along the positive feature axis
        assert model.weights[0, 1] > 0
        assert model.weights[0, 0] < 0

    def test_three_class_blobs(self):
        accs = []
        for seed in range(5):
            feats, labels = blobs(seed, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)])
            model = ev.lssvm_fit(LabeledFeatures(feats, labels))
            accs.append(ev.accuracy(ev.lssvm_predict(model, feats), labels))
        assert np.all(np.asarray(accs) >= 0.99)

    def test_duplicated_feature_columns_keep_decisions(self):
        feats, labels = blobs(3, [(-1.0, 0.5), (1.0, -0.5)], spread=0.8)
        base = ev.lssvm_fit(LabeledFeatures(feats, labels))
        doubled = ev.lssvm_fit(LabeledFeatures(np.hstack([feats, feats]),
                                               labels))
        np.testing.assert_array_equal(
            ev.lssvm_predict(base, feats),
            ev.lssvm_predict(doubled, np.hstack([feats, feats])))

    def test_ridge_solution_oracle(self):
        # one feature: w = sum(f*y) / (sum(f^2) + 1/gamma), closed form
        f = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, -1.0, 1.0])
        w, b = ev._ridge_solve(f, y, 2.0)
        expect_w = (f[:, 0] @ y) / (f[:, 0] @ f[:, 0] + 0.5)
        assert w[0] == pytest.approx(expect_w, rel=1e-12)
        assert b == pytest.approx(np.mean(y - f[:, 0] * w[0]), rel=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            ev.lssvm_fit(LabeledFeatures(np.ones((4, 2)), np.zeros(4)))

    def test_non_finite_rejected(self):
        f = np.ones((4, 2))
        f[1, 0] = np.nan
        with pytest.raises(SingularSystemError):
            ev.lssvm_fit(LabeledFeatures(f, np.array([0, 0, 1, 1])))

    def test_row_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            LabeledFeatures(np.ones((4, 2)), np.zeros(3))

    def test_regression_fit_recovers_line(self):
        # mean-zero features so the post-hoc bias picks up the intercept
        rng = np.random.default_rng(4)
        f = rng.standard_normal((50, 3))
        f -= f.mean(axis=0)
        w_true = np.array([2.0, -1.0, 0.5])
        y = f @ w_true + 0.3
        fit = ev.ridge_fit(f, y, gamma_reg=1e6)
        assert ev.rmse(ev.ridge_predict(fit, f), y) <= 1e-3


class TestF1:
    def test_perfect(self):
        y = np.array([0, 1, 2, 1, 0])
        assert ev.f1_scores(y, y) == (1.0, 1.0)

    def test_all_positive_binary(self):
        truth = np.array([1, 1, 0, 0])
        pred = np.ones(4, dtype=int)
        micro, macro = ev.f1_scores(pred, truth)
        assert micro == pytest.approx(2 / 3)
        assert macro == pytest.approx(1 / 3)

    def test_spurious_class_drags_macro(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 2])
        micro, macro = ev.f1_scores(pred, truth)
        # per class: f1(0)=1, f1(1)=2/3, f1(2)=0; pooled tp=3 fp=1 fn=1
        assert macro == pytest.approx((1.0 + 2 / 3 + 0.0) / 3)
        assert micro == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ev.f1_scores(np.zeros(3), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
           st.integers(0, 1000))
    def test_permutation_invariant(self, labels, seed):
        truth = np.array(labels)
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, size=truth.size)
        perm = rng.permutation(truth.size)
        assert ev.f1_scores(pred, truth) == ev.f1_scores(pred[perm],
                                                         truth[perm])


class TestAuroc:
    def test_perfect_ranking(self):
        assert ev.auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_ranking(self):
        assert ev.auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied(self):
        assert ev.auroc(np.ones(6), [0, 1, 0, 1, 0, 1]) == 0.5

    def test_partial_tie_hand_value(self):
        # midranks of [1,2,2,3] are [1, 2.5, 2.5, 4]; U = 6.5 - 3 = 3.5
        assert ev.auroc([1.0, 2.0, 2.0, 3.0],
                        [0, 0, 1, 1]) == pytest.approx(3.5 / 4)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            ev.auroc([0.1, 0.2], [1, 1])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_monotone_transform_invariant(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(20)
        truth = rng.integers(0, 2, size=20)
        if len(np.unique(truth)) < 2:
            truth[0], truth[1] = 0, 1
        base = ev.auroc(scores, truth)
        assert ev.auroc(np.exp(scores), truth) == pytest.approx(base)
        assert ev.auroc(3.0 * scores - 7.0, truth) == pytest.approx(base)


class TestRmse:
    def test_zero(self):
        assert ev.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert ev.rmse([1.5, 2.5, 3.5], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_hand_value(self):
        assert ev.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5 / np.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ev.rmse([0.0], [1.0, 2.0])


class TestGraphReconstruct:
    def test_line_geometry(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        recon = ev.graph_reconstruct(emb, [1, 1, 1])
        expect = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(recon, expect)

    def test_zero_degrees(self):
        emb = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(ev.graph_reconstruct(emb, np.zeros(5)),
                                      np.zeros((5, 5)))

    def test_distance_ties_pick_smaller_index(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        recon = ev.graph_reconstruct(emb, [2, 0, 0, 0])
        # nodes 1, 2, 3 are all at distance 1 from node 0
        np.testing.assert_array_equal(recon[0], [0, 1, 1, 0])

    def test_directed_cycle_exact_reconstruction(self):
        # adjacency of a 6-cycle is a permutation matrix, so its factors obey
        # A V = U: the left feature of a node equals the right feature of its
        # successor and directed nearest-neighbor search is exact
        n = 6
        adj = np.zeros((n, n))
        adj[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        # pseudoinverse compat makes the linear kernel reproduce A itself
        model = ksvd.fit(adj, KernelSpec(family="linear"), r=n, compat="a0",
                         center=False)
        left = ksvd.transform(model, "left").features
        right = ksvd.transform(model, "right").features
        recon = ev.graph_reconstruct(left, adj.sum(axis=1),
                                     target_embedding=right)
        l1, l2 = ev.reconstruction_error(recon, adj)
        assert l1 == 0.0
        assert l2 == 0.0

    def test_degree_bounds(self):
        emb = np.zeros((4, 2))
        with pytest.raises(DegreeTooLargeError):
            ev.graph_reconstruct(emb, [4, 0, 0, 0])
        with pytest.raises(DegreeTooLargeError):
            ev.graph_reconstruct(emb, [-1, 0, 0, 0])
        with pytest.raises(LengthMismatchError):
            ev.graph_reconstruct(emb, [1, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 500))
    def test_row_sums_equal_degrees(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        emb = rng.standard_normal((n, 3))
        degrees = rng.integers(0, n, size=n)
        recon = ev.graph_reconstruct(emb, degrees)
        np.testing.assert_array_equal(recon.sum(axis=1), degrees)
        assert np.all(np.diag(recon) == 0)


class TestReconstructionError:
    def test_identity(self):
        a = np.eye(4)
        assert ev.reconstruction_error(a, a) == (0.0, 0.0)

    def test_single_flip(self):
        truth = np.zeros((3, 3))
        moved = truth.copy()
        moved[0, 1] = 1.0
        assert ev.reconstruction_error(moved, truth) == (1.0, 1.0)
        swapped = truth.copy()
        swapped[0, 1] = 1.0
        truth2 = truth.copy()
        truth2[0, 2] = 1.0
        l1, l2 = ev.reconstruction_error(swapped, truth2)
        assert l1 == 2.0
        assert l2 == pytest.approx(np.sqrt(2))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        a = (rng.random((6, 6)) > 0.5).astype(float)
        b = (rng.random((6, 6)) > 0.5).astype(float)
        l1, l2 = ev.reconstruction_error(a, b)
        assert l1 == pytest.approx(sum(abs(a[i, j] - b[i, j])
                                       for i in range(6) for j in range(6)))
        assert l2 == pytest.approx(np.sqrt(sum((a[i, j] - b[i, j]) ** 2
                                               for i in range(6)
                                               for j in range(6))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ev.reconstruction_error(np.zeros((3, 3)), np.zeros((4, 4)))


class TestSideFeatures:
    def make_model(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((10, 10))
        a = 0.5 * (b + b.T)
        spec = KernelSpec(family="rbf", gamma=kernels.default_gamma(a))
        return ksvd.fit(a, spec, r=6)

    def test_both_splits_ceil_floor(self):
        model = self.make_model()
        both = ev.side_features(model, "both", r=5)
        left = ksvd.transform(model, "left", 3).features
        right = ksvd.transform(model, "right", 2).features
        np.testing.assert_allclose(both, np.hstack([left, right]))

    def test_single_sides(self):
        model = self.make_model()
        np.testing.assert_allclose(
            ev.side_features(model, "left", r=4),
            ksvd.transform(model, "left", 4).features)
        np.testing.assert_allclose(
            ev.side_features(model, "right", r=4),
            ksvd.transform(model, "right", 4).features)

    def test_rectangular_both_rejected(self):
        a = np.random.default_rng(12).standard_normal((10, 7))
        spec = KernelSpec(family="rbf", gamma=kernels.default_gamma(a))
        model = ksvd.fit(a, spec, r=3, compat="a0")
        with pytest.raises(ShapeMismatchError):
            ev.side_features(model, "both")
        with pytest.raises(ConfigError):
            ev.side_features(model, "middle")


class TestSplit:
    def test_stratified_keeps_every_class(self):
        labels = np.array([0] * 40 + [1] * 10)
        train, test = ev.split_train_test(labels, 0.2, seed=1)
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).size == 50
        assert set(labels[test]) == {0, 1}
        assert list(labels[test]).count(0) == 8
        assert list(labels[test]).count(1) == 2

    def test_uniform_split_sizes(self):
        train, test = ev.split_train_test(np.arange(30, dtype=float), 0.2,
                                          seed=2, stratify=False)
        assert test.size == 6
        assert train.size == 24

    def test_deterministic(self):
        labels = np.array([0, 1] * 20)
        first = ev.split_train_test(labels, 0.25, seed=9)
        second = ev.split_train_test(labels, 0.25, seed=9)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            ev.split_train_test(np.array([0, 1]), 1.5)
