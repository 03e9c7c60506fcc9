"""Asymmetric kernel matrices from paired row/column data.

A data matrix ``A`` is read twice: its rows ``x_i`` form the row data set,
its columns ``z_j`` form the column data set. The kernel matrix is
``G[i, j] = kappa(x_i, z_j)`` (after an optional compatibility transform
when the two sides have different feature lengths). Three families are
supported:

* ``rbf``      exp(-||x - z||^2 / gamma^2)
* ``sne``      the rbf numerator normalized over the column data set, so
               every row of G sums to one
* ``linear``   plain inner product

``LazyKernelSource`` is the one place kernel blocks are evaluated: it
materializes G, evaluates sampled blocks of G for the Nystrom solver, and
streams its centering statistics. A sampled sne block cannot see each
row's full normalizer, a sum over all M columns, so it uses the unbiased
estimate from the m sampled columns, (sampled sum) * M/m. Sampled blocks
thus estimate the same matrix as the full one, at the same scale, and
agree with it exactly when every column is sampled.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompatibilityMissingError,
    ConfigError,
    EmptyDenominatorWarning,
    LengthMismatchError,
)
from .linalg import as_matrix

FAMILIES = ("rbf", "sne", "linear")

# row-block size for streaming assembly; results do not depend on it
_BLOCK = 512


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth, with an optional compatibility transform."""

    family: str
    gamma: float | None = None
    compat: object | None = None  # CompatMatrix, kept untyped to avoid a cycle

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}; "
                              f"expected one of {FAMILIES}")
        if self.family in ("rbf", "sne"):
            if self.gamma is None or not self.gamma > 0:
                raise ConfigError(f"{self.family} kernel needs gamma > 0, "
                                  f"got {self.gamma!r}")


@dataclass(frozen=True)
class DataSources:
    """Row data set (rows of A) and column data set (columns of A, as rows)."""

    x: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class CenteringStats:
    row_means: np.ndarray
    col_means: np.ndarray
    grand_mean: float


def build_sources(a) -> DataSources:
    a = as_matrix(a, "A")
    return DataSources(x=a.copy(), z=np.ascontiguousarray(a.T))


def default_gamma(data, k: float = 1.0) -> float:
    """Data-dependent bandwidth: k * sqrt(feature_dim * var(data))."""
    data = as_matrix(data, "data")
    if not k > 0:
        raise ConfigError(f"gamma scale k must be positive, got {k!r}")
    var = float(data.var())
    if var == 0.0:
        raise ConfigError("cannot derive a bandwidth from constant data")
    return k * float(np.sqrt(data.shape[1] * var))


def _sqdist(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of x and rows of z."""
    d = (x * x).sum(1)[:, None] - 2.0 * (x @ z.T) + (z * z).sum(1)[None, :]
    return np.maximum(d, 0.0)


def _raw_block(spec: KernelSpec, x, z) -> np.ndarray:
    """Linear products, or the rbf numerators that sne rows are divided by."""
    if spec.family == "linear":
        return x @ z.T
    return np.exp(-_sqdist(x, z) / (spec.gamma * spec.gamma))


def _sne_normalize(block: np.ndarray, denom: np.ndarray, width: int) -> None:
    """Divide sne rows by their normalizers in place.

    Rows whose normalizer underflowed to zero become uniform at 1/width,
    with a warning; ``width`` is the column count M of the full matrix.
    """
    dead = denom == 0.0
    if dead.any():
        warnings.warn(
            f"{int(dead.sum())} sne row(s) underflowed to zero; "
            "substituting uniform rows", EmptyDenominatorWarning, stacklevel=3)
        denom = np.where(dead, 1.0, denom)
    block /= denom[:, None]
    block[dead] = 1.0 / width


def kernel_matrix(spec: KernelSpec, sources: DataSources) -> np.ndarray:
    """Assemble the full kernel matrix G (rows of x against rows of z)."""
    return LazyKernelSource(spec, sources).full()


def center(g) -> tuple[np.ndarray, CenteringStats]:
    """Double-center G so all row and column sums become zero."""
    g = as_matrix(g, "G")
    row_means = g.mean(axis=1)
    col_means = g.mean(axis=0)
    grand = float(g.mean())
    gc = g - row_means[:, None] - col_means[None, :] + grand
    return gc, CenteringStats(row_means=row_means, col_means=col_means,
                              grand_mean=grand)


def center_oos(values, stats: CenteringStats, side: str) -> np.ndarray:
    """Center fresh kernel rows or columns consistently with training stats.

    A new row (kernel values of one out-of-sample x against all training z)
    is centered with the training column means and its own mean; a new
    column mirrors this with the training row means. ``values`` is one row
    or column as a vector, or a batch laid out as it would extend G: new
    rows stacked as rows, new columns side by side as columns. Replaying a
    training row reproduces the corresponding row of the centered G exactly.
    """
    single = np.ndim(values) == 1
    v = as_matrix(values, "values")  # a vector becomes one row
    if side == "row":
        axis, against = 1, stats.col_means[None, :]
    elif side == "column":
        axis, against = 0, stats.row_means[:, None]
        if single:
            v = v.T
    else:
        raise ConfigError(f"side must be 'row' or 'column', got {side!r}")
    if v.shape[axis] != against.size:
        raise LengthMismatchError(
            f"{side} vector has length {v.shape[axis]}, expected {against.size}")
    out = v - v.mean(axis=axis, keepdims=True)
    out -= against
    out += stats.grand_mean
    return out.ravel() if single else out


# --- block sources for subsampled evaluation ---------------------------------

class MatrixSource:
    """Block access to an already materialized kernel matrix."""

    def __init__(self, g):
        self._g = as_matrix(g, "G")
        self.entries_evaluated = 0

    @property
    def shape(self):
        return self._g.shape

    def sample_blocks(self, row_idx, col_idx):
        g_nm = self._g[np.ix_(row_idx, col_idx)]
        g_big_m = self._g[:, col_idx]
        g_n_big = self._g[row_idx, :]
        self.entries_evaluated += g_big_m.size + g_n_big.size
        return g_nm, g_big_m, g_n_big

    def full(self) -> np.ndarray:
        self.entries_evaluated += self._g.size
        return self._g


class LazyKernelSource:
    """Evaluate kernel blocks on demand; the full G is never stored.

    A sampled run touches N*m + n*M entries. For the sne family each row's
    normalizer, its sum over all M columns, is estimated without bias from
    the m sampled columns as (sampled sum) * M/m, and both sampled blocks
    are divided by the same estimates. The factor M/m is common to every
    row: it puts the blocks at the full matrix's scale and leaves the
    singular vectors of a plain sampled-sum normalization unchanged.
    ``row_denoms`` holds the sne normalizers behind the latest blocks:
    estimates after ``sample_blocks``, exact after ``full``.
    """

    def __init__(self, spec: KernelSpec, sources: DataSources):
        if spec.compat is not None:
            from .compat import apply_compat
            sources = apply_compat(spec.compat, sources)
        if sources.x.shape[1] != sources.z.shape[1]:
            raise CompatibilityMissingError(
                f"row data has feature length {sources.x.shape[1]} but column "
                f"data has {sources.z.shape[1]}; a compatibility transform is "
                "required")
        self._spec = spec
        self._x = sources.x
        self._z = sources.z
        self.entries_evaluated = 0
        self.row_denoms = None

    @property
    def shape(self):
        return self._x.shape[0], self._z.shape[0]

    def sample_blocks(self, row_idx, col_idx):
        """Return (G_nm, G_Nm, G_nM) for the given sampled index sets.

        G_nm is sliced out of G_Nm, so the three blocks are mutually
        consistent by construction.
        """
        row_idx = np.asarray(row_idx, dtype=int)
        col_idx = np.asarray(col_idx, dtype=int)
        g_big_m = _raw_block(self._spec, self._x, self._z[col_idx])    # N x m
        g_n_big = _raw_block(self._spec, self._x[row_idx], self._z)    # n x M
        if self._spec.family == "sne":
            big_m = self._z.shape[0]
            denom = g_big_m.sum(1) * (big_m / col_idx.size)
            self.row_denoms = denom
            _sne_normalize(g_big_m, denom, big_m)
            _sne_normalize(g_n_big, denom[row_idx], big_m)
        g_nm = g_big_m[row_idx, :]
        self.entries_evaluated += g_big_m.size + g_n_big.size
        return g_nm, g_big_m, g_n_big

    def full(self) -> np.ndarray:
        """Materialize the exact kernel matrix (full sne normalization)."""
        g = _raw_block(self._spec, self._x, self._z)
        if self._spec.family == "sne":
            self.row_denoms = g.sum(1)
            _sne_normalize(g, self.row_denoms, self._z.shape[0])
        self.entries_evaluated += g.size
        return g

    def streaming_stats(self) -> CenteringStats:
        """Exact centering stats of the full matrix in O(N + M) memory.

        One pass over column blocks (two for sne, whose normalizers must be
        known first). Nothing larger than a block is ever held.
        """
        n_rows, n_cols = self.shape
        starts = range(0, n_cols, _BLOCK)
        denom = None
        if self._spec.family == "sne":
            denom = np.zeros(n_rows)
            for start in starts:
                denom += _raw_block(self._spec, self._x,
                                    self._z[start:start + _BLOCK]).sum(1)
        row_sums = np.zeros(n_rows)
        col_sums = np.zeros(n_cols)
        for start in starts:
            block = _raw_block(self._spec, self._x,
                               self._z[start:start + _BLOCK])
            if denom is not None:
                _sne_normalize(block, denom, n_cols)
            row_sums += block.sum(1)
            col_sums[start:start + block.shape[1]] = block.sum(0)
        grand = float(row_sums.sum() / (n_rows * n_cols))
        return CenteringStats(row_means=row_sums / n_cols,
                              col_means=col_sums / n_rows,
                              grand_mean=grand)


def as_kernel_source(obj):
    """Wrap a plain matrix in a MatrixSource; pass sources through unchanged."""
    if isinstance(obj, (MatrixSource, LazyKernelSource)):
        return obj
    return MatrixSource(obj)
