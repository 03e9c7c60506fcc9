"""Downstream evaluation: linear classifiers on features, metrics, graphs.

The classifier is a least-squares SVM in primal ridge form, fit one-vs-rest
on +-1 targets. Features come from a fitted model (left side, right side,
or both concatenated), so a linear decision function is all that is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ksvd
from .errors import (
    ConfigError,
    DegreeTooLargeError,
    LengthMismatchError,
    ShapeMismatchError,
    SingleClassError,
    SingularSystemError,
)
from .linalg import as_matrix

SIDES = ("both", "left", "right")


@dataclass(frozen=True)
class LabeledFeatures:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # finiteness is judged by the consumer, not here, so that lssvm_fit
        # can report bad numerics as a solver-level failure
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", np.asarray(self.labels))
        if self.features.shape[0] != self.labels.shape[0]:
            raise LengthMismatchError(
                f"{self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels")


@dataclass(frozen=True)
class LssvmModel:
    weights: np.ndarray  # d x C, one column per class
    biases: np.ndarray
    classes: np.ndarray
    gamma_reg: float


def _ridge_solve(f: np.ndarray, y: np.ndarray, gamma_reg: float):
    """Solve (F^T F + I/gamma) w = F^T y, bias from the mean residual."""
    gram = f.T @ f + np.eye(f.shape[1]) / gamma_reg
    w = np.linalg.solve(gram, f.T @ y)
    b = float(np.mean(y - f @ w))
    return w, b


def lssvm_fit(train: LabeledFeatures, gamma_reg: float = 1.0) -> LssvmModel:
    """One-vs-rest ridge classifier on +-1 targets per class."""
    if not gamma_reg > 0:
        raise ConfigError(f"gamma_reg must be positive, got {gamma_reg!r}")
    f = train.features
    if not np.isfinite(f).all():
        raise SingularSystemError("features contain non-finite values")
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise SingleClassError("need at least two classes to fit a classifier")
    weights = np.empty((f.shape[1], classes.size))
    biases = np.empty(classes.size)
    for j, cls in enumerate(classes):
        y = np.where(train.labels == cls, 1.0, -1.0)
        weights[:, j], biases[j] = _ridge_solve(f, y, gamma_reg)
    return LssvmModel(weights=weights, biases=biases, classes=classes,
                      gamma_reg=float(gamma_reg))


def lssvm_decision(model: LssvmModel, features) -> np.ndarray:
    """Per-class decision scores, one row per sample."""
    f = as_matrix(features, "features")
    return f @ model.weights + model.biases[None, :]


def lssvm_predict(model: LssvmModel, features) -> np.ndarray:
    scores = lssvm_decision(model, features)
    return model.classes[np.argmax(scores, axis=1)]


def ridge_fit(features, targets, gamma_reg: float = 1.0):
    """Plain ridge regression on real targets; returns (weights, bias)."""
    f = as_matrix(features, "features")
    y = np.asarray(targets, dtype=float)
    if f.shape[0] != y.shape[0]:
        raise LengthMismatchError(
            f"{f.shape[0]} feature rows vs {y.shape[0]} targets")
    if not (np.isfinite(f).all() and np.isfinite(y).all()):
        raise SingularSystemError("regression input contains non-finite values")
    return _ridge_solve(f, y, gamma_reg)


def ridge_predict(w_b, features) -> np.ndarray:
    w, b = w_b
    return as_matrix(features, "features") @ w + b


# --- metrics -------------------------------------------------------------------

def _confusion_counts(pred, truth, cls):
    tp = int(np.sum((pred == cls) & (truth == cls)))
    fp = int(np.sum((pred == cls) & (truth != cls)))
    fn = int(np.sum((pred != cls) & (truth == cls)))
    return tp, fp, fn


def _f1_from_counts(tp, fp, fn) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def f1_scores(pred, truth) -> tuple[float, float]:
    """(micro, macro) F1.

    Macro averages per-class F1 over every class seen in either argument,
    so spurious predicted classes pull the average down. Two-class problems
    score the larger label as the positive class for the micro figure; with
    more classes the micro average pools counts over all of them.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"{pred.shape[0]} predictions vs {truth.shape[0]} labels")
    classes = np.unique(np.concatenate([pred, truth]))
    counts = [_confusion_counts(pred, truth, cls) for cls in classes]
    macro = float(np.mean([_f1_from_counts(*c) for c in counts]))
    if classes.size == 2:
        micro = _f1_from_counts(*counts[-1])
    else:
        pooled = np.sum(counts, axis=0)
        micro = _f1_from_counts(*pooled)
    return float(micro), macro


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"{pred.shape[0]} predictions vs {truth.shape[0]} labels")
    return float(np.mean(pred == truth))


def _midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    sx = x[order]
    edges = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1], True])
    ranks = np.empty(x.size)
    for a, b in zip(edges[:-1], edges[1:]):
        ranks[order[a:b]] = 0.5 * (a + b + 1)
    return ranks


def auroc(scores, truth) -> float:
    """Probability a random positive outscores a random negative; ties 0.5."""
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel()
    if scores.shape != truth.shape:
        raise LengthMismatchError(
            f"{scores.shape[0]} scores vs {truth.shape[0]} labels")
    classes = np.unique(truth)
    if classes.size != 2:
        raise SingleClassError(
            f"auroc needs exactly two classes, got {classes.size}")
    pos = truth == classes[-1]
    n_pos = int(pos.sum())
    n_neg = truth.size - n_pos
    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"{pred.shape[0]} predictions vs {truth.shape[0]} targets")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


# --- graph reconstruction --------------------------------------------------------

def graph_reconstruct(embedding, out_degrees, target_embedding=None) -> np.ndarray:
    """Rebuild a 0/1 adjacency by per-node nearest neighbors in feature space.

    Row v gets ones at the out_degrees[v] nearest nodes (Euclidean, self
    excluded, distance ties broken by ascending node index). For directed
    graphs pass ``target_embedding``: sources are matched in the query
    embedding, destinations in the target one.
    """
    query = as_matrix(embedding, "embedding")
    target = query if target_embedding is None else as_matrix(
        target_embedding, "target_embedding")
    n = query.shape[0]
    if target.shape[0] != n:
        raise ShapeMismatchError(
            f"target embedding has {target.shape[0]} rows, expected {n}")
    degrees = np.asarray(out_degrees)
    if degrees.shape != (n,):
        raise LengthMismatchError(
            f"out_degrees has length {degrees.size}, expected {n}")
    degrees = degrees.astype(int)
    if degrees.min(initial=0) < 0 or (degrees >= n).any():
        raise DegreeTooLargeError(
            f"out-degrees must lie in [0, {n - 1}]")
    sq = (query * query).sum(axis=1)[:, None] \
        + (target * target).sum(axis=1)[None, :] - 2.0 * (query @ target.T)
    np.fill_diagonal(sq, np.inf)
    recon = np.zeros((n, n))
    idx = np.arange(n)
    for v in range(n):
        k = degrees[v]
        if k == 0:
            continue
        order = np.lexsort((idx, sq[v]))
        recon[v, order[:k]] = 1.0
    return recon


def reconstruction_error(recon, truth) -> tuple[float, float]:
    recon = as_matrix(recon, "recon")
    truth = as_matrix(truth, "truth")
    if recon.shape != truth.shape:
        raise ShapeMismatchError(
            f"reconstruction is {recon.shape}, truth is {truth.shape}")
    diff = recon - truth
    return float(np.abs(diff).sum()), float(np.linalg.norm(diff))


# --- model features and selection ------------------------------------------------

def side_features(model, sides: str = "both", r: int | None = None) -> np.ndarray:
    """Sample features from a fitted model: left, right, or both concatenated.

    "both" allocates ceil(r/2) left columns and floor(r/2) right ones, so the
    requested total is preserved; it needs equally many row and column
    samples (square input).
    """
    if sides not in SIDES:
        raise ConfigError(f"sides must be one of {SIDES}, got {sides!r}")
    if r is None:
        r = model.rank
    if sides == "left":
        return ksvd.transform(model, "left", r).features
    if sides == "right":
        return ksvd.transform(model, "right", r).features
    if model.b_phi.shape[0] != model.b_psi.shape[0]:
        raise ShapeMismatchError(
            "sides='both' needs matching row/column sample counts, got "
            f"{model.b_phi.shape[0]} and {model.b_psi.shape[0]}")
    r_left = math.ceil(r / 2)
    r_right = r - r_left
    left = ksvd.transform(model, "left", r_left).features
    if r_right == 0:
        return left
    right = ksvd.transform(model, "right", r_right).features
    return np.hstack([left, right])


def split_train_test(labels, test_fraction: float = 0.2, seed: int = 0,
                     stratify: bool = True):
    """Seeded train/test split; stratified per class for classification."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(
            f"test_fraction must lie in (0, 1), got {test_fraction!r}")
    rng = np.random.default_rng(seed)
    if not stratify:
        perm = rng.permutation(n)
        cut = max(1, int(round(test_fraction * n)))
        return np.sort(perm[cut:]), np.sort(perm[:cut])
    test = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        take = max(1, int(round(test_fraction * members.size)))
        test.append(members[:take])
    test = np.sort(np.concatenate(test))
    train = np.setdiff1d(np.arange(n), test)
    return train, test
