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

Every side of the kernel data is stored once, in the narrowest float type
that holds it exactly (``stored``): float32 when every entry is an integer
of magnitude at most 2^24, float64 otherwise. The 0/1 adjacency matrices of
directed graphs are stored in float32, which halves their memory.

Every block rests on one Gram product, ``x @ z.T``, taken from the stored
operands. When d * max(|x|, 1) * max(|z|, 1) <= 2^24, d the feature length,
both sides are float32 and the product is computed in float32: every
product and partial sum is then an integer that float32 holds, in any
summation order, so the result equals the float64 product bit for bit.
Graphs always qualify up to d = 2^24. Past that bound the product is taken
in float64.
"""
from __future__ import annotations

import functools
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

# row-block size for streaming assembly, for the passes over stored data and
# for the rows of a float32 Gram product; results do not depend on it
_BLOCK = 512

# float32 holds every integer of magnitude up to 2^24 exactly
_F32_EXACT = 2 ** 24


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
    """Rows and columns of A, both in stored form (see ``stored``)."""
    a = as_matrix(a, "A")
    scale = _scale(a)  # x and z hold the same entries
    x = stored(a, scale)
    # a float64 A comes back as itself; the sources must not alias it
    return DataSources(x=x.copy() if x is a else x, z=stored(a.T, scale))


def default_gamma(data, k: float = 1.0) -> float:
    """Data-dependent bandwidth: k * sqrt(feature_dim * var(data))."""
    data = as_matrix(data, "data")
    if not k > 0:
        raise ConfigError(f"gamma scale k must be positive, got {k!r}")
    var = float(data.var())
    if var == 0.0:
        raise ConfigError("cannot derive a bandwidth from constant data")
    return k * float(np.sqrt(data.shape[1] * var))


def _row_blocks(a):
    """``a`` a block of rows at a time, read as float64."""
    for start in range(0, a.shape[0], _BLOCK):
        yield np.asarray(a[start:start + _BLOCK], dtype=np.float64)


def _fold_scale(scale: float, b: np.ndarray) -> float:
    """The float32 scale of the rows seen so far, extended by block ``b``:
    max(scale, max|b|) while every entry is an integer, inf from the first
    entry that is not."""
    if scale == np.inf or not np.array_equal(np.rint(b), b):
        return np.inf
    return max(scale, float(b.max()), float(-b.min()))


def _scale(a) -> float:
    """The float32 scale of ``a``: max(max|a|, 1) when every entry is an
    integer, inf otherwise."""
    return functools.reduce(_fold_scale, _row_blocks(a), 1.0)


def stored(a, scale: float | None = None) -> np.ndarray:
    """``a`` in the form kernel data is kept in: C-ordered, in float32 when
    every entry is an integer of magnitude at most 2^24, which float32 holds
    exactly, and in float64 otherwise. ``scale`` is the float32 scale of
    ``a`` when the caller has it. ``a`` itself is returned when it is
    already in that form."""
    if scale is None:
        scale = _scale(a)
    dtype = np.float32 if scale <= _F32_EXACT else np.float64
    return np.ascontiguousarray(a, dtype=dtype)


def _side_stats(a) -> tuple[np.ndarray, float]:
    """Squared Euclidean norm of every row, (a * a).sum(1), and the float32
    scale of ``a``. One pass, a block of rows at a time read as float64, so
    the norms of a float32 side keep their bits and no temporary as large
    as ``a`` is made."""
    norms = []
    scale = 1.0
    for b in _row_blocks(a):
        norms.append((b * b).sum(1))
        scale = _fold_scale(scale, b)
    return np.concatenate(norms), scale


def _gram(x, z, x_scale: float, z_scale: float) -> np.ndarray:
    """x @ z.T in float64, from stored operands.

    The scales come from ``_side_stats``. When d * x_scale * z_scale <=
    2^24 both sides are stored in float32, and their float32 product, exact,
    is written into the float64 result a block of rows at a time, so no
    operand is cast and no float32 temporary is larger than a block. Past
    the bound the product is taken in float64, float32 sides upcast.
    """
    if x.shape[1] * x_scale * z_scale > _F32_EXACT:
        return np.asarray(x, dtype=np.float64) @ np.asarray(
            z, dtype=np.float64).T
    out = np.empty((x.shape[0], z.shape[0]))
    for start in range(0, x.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        out[rows] = x[rows] @ z.T
    return out


def _raw_block(spec: KernelSpec, x, z, sides) -> np.ndarray:
    """Linear products, or the rbf numerators that sne rows are divided by.

    x and z are stored sides and ``sides`` their ``_side_stats``, squared
    row norms and float32 scales. The Gram product ``x @ z.T`` comes from
    ``_gram``; the rbf arithmetic then runs in place on it.
    """
    (x_sq, x_scale), (z_sq, z_scale) = sides
    d = _gram(x, z, x_scale, z_scale)
    if spec.family == "linear":
        return d
    d *= -2.0
    d += x_sq[:, None]
    d += z_sq
    np.maximum(d, 0.0, out=d)
    d /= -(spec.gamma * spec.gamma)
    np.exp(d, out=d)
    return d


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


def _positions(have: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Index in ``have`` of every entry of ``want``; each must be there."""
    order = np.argsort(have, kind="stable")
    return order[np.searchsorted(have, want, sorter=order)]


@dataclass(frozen=True)
class _Sample:
    """Raw blocks of the sampled index sets, in the order evaluated."""

    rows: np.ndarray
    cols: np.ndarray
    big_m: np.ndarray           # N x m: linear products or rbf numerators
    n_big: np.ndarray           # n x M
    sums: np.ndarray | None     # sne: row sums of big_m


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

    x and z are evaluated in stored form (see ``stored``; hand-built sources
    of another dtype are converted). Their squared row norms and float32
    scales are computed once, on first use, in the same pass that decides
    the stored form, and every block the source evaluates reuses them.
    ``entries_evaluated`` counts the kernel entries actually evaluated.
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
        self._sides = None
        self._sample = None
        self.entries_evaluated = 0
        self.row_denoms = None

    @property
    def shape(self):
        return self._x.shape[0], self._z.shape[0]

    def _block(self, x_rows=slice(None), z_rows=slice(None)) -> np.ndarray:
        """Raw block of x[x_rows] against z[z_rows], counted."""
        if self._sides is None:
            self._sides = (_side_stats(self._x), _side_stats(self._z))
            self._x = stored(self._x, self._sides[0][1])
            self._z = stored(self._z, self._sides[1][1])
        (x_sq, x_scale), (z_sq, z_scale) = self._sides
        block = _raw_block(self._spec, self._x[x_rows], self._z[z_rows],
                           ((x_sq[x_rows], x_scale), (z_sq[z_rows], z_scale)))
        self.entries_evaluated += block.size
        return block

    def sample_blocks(self, row_idx, col_idx):
        """Return (G_nm, G_Nm, G_nM) for the given sampled index sets.

        The raw blocks of the latest call are kept. When both index sets
        contain the previous call's, only the new columns of G_Nm and the
        new rows of G_nM are evaluated; otherwise every entry is. Each call
        returns new arrays, sne rows divided by the current estimates.
        G_nm is sliced out of G_Nm, so the three blocks are mutually
        consistent by construction.
        """
        row_idx = np.array(row_idx, dtype=int)
        col_idx = np.array(col_idx, dtype=int)
        sne = self._spec.family == "sne"
        prev = self._sample
        if prev is None or not (np.isin(prev.rows, row_idx).all()
                                and np.isin(prev.cols, col_idx).all()):
            big_n, big_m = self.shape
            empty = np.empty(0, dtype=int)
            prev = _Sample(empty, empty, np.empty((big_n, 0)),
                           np.empty((0, big_m)),
                           np.zeros(big_n) if sne else None)
        new_rows = row_idx[~np.isin(row_idx, prev.rows)]
        new_cols = col_idx[~np.isin(col_idx, prev.cols)]
        fresh_big_m = self._block(z_rows=new_cols)
        sample = _Sample(
            rows=np.concatenate([prev.rows, new_rows]),
            cols=np.concatenate([prev.cols, new_cols]),
            big_m=np.concatenate([prev.big_m, fresh_big_m], axis=1),
            n_big=np.concatenate([prev.n_big, self._block(x_rows=new_rows)]),
            sums=prev.sums + fresh_big_m.sum(1) if sne else None)
        self._sample = sample
        # the previous blocks are copied into ``sample``; free them before
        # the returned blocks are taken, the call's peak memory
        del prev, fresh_big_m

        g_big_m = np.take(sample.big_m, _positions(sample.cols, col_idx), 1)
        g_n_big = np.take(sample.n_big, _positions(sample.rows, row_idx), 0)
        if sne:
            big_m = self._z.shape[0]
            denom = sample.sums * (big_m / col_idx.size)
            self.row_denoms = denom
            _sne_normalize(g_big_m, denom, big_m)
            _sne_normalize(g_n_big, denom[row_idx], big_m)
        g_nm = g_big_m[row_idx, :]
        return g_nm, g_big_m, g_n_big

    def full(self) -> np.ndarray:
        """Materialize the exact kernel matrix (full sne normalization)."""
        g = self._block()
        if self._spec.family == "sne":
            self.row_denoms = g.sum(1)
            _sne_normalize(g, self.row_denoms, self._z.shape[0])
        return g

    def streaming_stats(self) -> CenteringStats:
        """Exact centering stats of the full matrix in O(N + M) memory.

        One pass over column blocks (two for sne, whose normalizers must be
        known first). Nothing larger than a block is ever held.
        """
        n_rows, n_cols = self.shape
        blocks = [slice(start, start + _BLOCK)
                  for start in range(0, n_cols, _BLOCK)]
        denom = None
        if self._spec.family == "sne":
            denom = np.zeros(n_rows)
            for cols in blocks:
                denom += self._block(z_rows=cols).sum(1)
        row_sums = np.zeros(n_rows)
        col_sums = np.zeros(n_cols)
        for cols in blocks:
            block = self._block(z_rows=cols)
            if denom is not None:
                _sne_normalize(block, denom, n_cols)
            row_sums += block.sum(1)
            col_sums[cols] = block.sum(0)
        grand = float(row_sums.sum() / (n_rows * n_cols))
        return CenteringStats(row_means=row_sums / n_cols,
                              col_means=col_sums / n_rows,
                              grand_mean=grand)


def as_kernel_source(obj):
    """Wrap a plain matrix in a MatrixSource; pass sources through unchanged."""
    if isinstance(obj, (MatrixSource, LazyKernelSource)):
        return obj
    return MatrixSource(obj)
