"""Asymmetric kernel matrices from paired row/column data.

A data matrix ``A`` is read twice: its rows ``x_i`` form the row data set,
its columns ``z_j`` form the column data set. The kernel matrix is
``G[i, j] = kappa(x_i, z_j)``. When the two sides have different feature
lengths, ``compat.apply_compat`` maps them to one length first; the
sources given here must already agree. Three families are supported:

* ``rbf``      exp(-||x - z||^2 / gamma^2)
* ``sne``      the rbf numerator normalized over the column data set, so
               every row of G sums to one
* ``linear``   plain inner product

``LazyKernelSource`` is the one place kernel blocks are evaluated: it
materializes G and evaluates sampled blocks of G for the Nystrom solver,
whose centering statistics are those blocks' own means. A sampled sne
block cannot see each row's full normalizer, a sum over all M columns, so
it uses the unbiased estimate from the m sampled columns, (sampled sum) *
M/m. Sampled blocks thus estimate the same matrix as the full one, at the
same scale, and agree with it exactly when every column is sampled.

The two large sampled blocks, G_Nm and G_nM, are ``ChunkedBlock``s: the
raw column and row chunks exactly as they were evaluated, grown chunk by
chunk as the sample grows, in its nested order (``nystrom.Sampler``), and
never copied, reordered or normalized. The sne row normalizers and any
double centering are applied to the thin factors that multiply a block and
to the r-column products, as a diagonal and rank-one corrections;
``np.asarray`` of a block gives the dense block bit for bit.
``ChunkedBlock`` also serves the out-of-sample projection
(``ksvd.transform_oos``): the raw kernel rows or columns of a chunk of new
points form one block, centered with their own means, which the same thin
product yields through one more column.

An sne row whose normalizer underflows to zero reads uniformly 1/M. The
public calls that can meet one (``fit``, ``transform_oos``,
``solve_to_tolerance`` and the ``LazyKernelSource`` methods) give at most
one ``EmptyDenominatorWarning`` a call (``warns_dead_rows``), naming the
caller's line rather than a line of this package.

Every side of the kernel data is stored and measured once, by
``prepare_side``, whichever path it comes by: ``build_sources``,
``compat.apply_compat``, ``LazyKernelSource`` (a side given without
statistics), ``ksvd.transform_oos`` (new points) and, through
``build_sources``, ``ksvd.load_model``; new points are stored a chunk at a
time, each chunk in its own unit of work (``parallel.parallel_map``). A
side is stored in float32 when every entry is an integer of magnitude at
most 2^24, in float64 otherwise, so graphs take half the memory; integer
or boolean data, as a saved model's uint8 graph, go to float32 with no
float64 copy. Each side's ``SideStats``, its squared row norms, float32
scale and row spans (the columns from each row's first to its last
nonzero), travel with it in ``DataSources``, and every kernel source and
out-of-sample projection over it reuses them.

Every block rests on one Gram product, ``x @ z.T``, taken from the stored
operands. When d * max(|x|, 1) * max(|z|, 1) <= 2^24, d the feature length,
both sides are float32 and the product is computed in float32: every
product and partial sum is then an integer that float32 holds, in any
summation order, so the result equals the float64 product bit for bit.
Graphs always qualify up to d = 2^24. Past that bound the product is taken
in float64, over every column. The float32 product runs in tiles, and each
tile contracts only the columns where both of its panels have nonzeros, the
intersection of their row spans; a tile whose intersection is empty is
zero. The tiles are laid out over panels of 512 rows of the side with fewer
rows, x on a tie, against panels of 512 rows of the other side, and the
other side's neighbouring panels that a panel meets over the same columns
are one product, so on dense data each 512-row panel takes one product
against all of the other side. Every term left out is zero and every sum
exact, so the result is still the float64 product bit for bit. The saving
rests on one property of the data: the nonzeros of nearby rows lie in a
narrow range of columns. A DAG numbered in topological order is strictly
upper-triangular, so a panel of its rows starts late and a panel of its
columns ends early. The share of the dense contraction that the tiles keep
is 0.46 over the blocks the leverage-sampled Nystrom solve of a 4000-node
``random_dag`` evaluates as its sample grows (3.49e9 multiply-adds for
1,896,000 entries of 4000 features: a chunk of sampled columns or rows is a
sorted random subset of all of them, so its panels span nearly every
feature), 0.23 for the full kernel of that graph, 0.19 for that of a
2000-node ``cycle``, and 1.0 for ``two_block`` graphs, whose every panel
reaches both ends. Each tile is one unit of work on the thread pool
(``parallel.parallel_map``) that writes its own region of the result and,
for rbf and sne, runs the kernel's arithmetic there, so the result is the
same bits at any pool size.

Each tile also takes two rows of the shorter side's panel in one float32
lane, which halves its multiply-adds: rows i and i + 1 are packed as
row i + B * row (i+1) and multiplied against the other side once, and each
packed value v = p + B q, p and q the two rows' products, is read back as
q = rint(v / B) and p = v - B q; an odd last row takes the plain product.
This is exact under one more bound. Let c = isqrt(max(1, max |x|^2) *
max(1, max |z|^2)), from the two sides' squared row norms. By
Cauchy-Schwarz, c bounds |x . z| over any subset of the columns, so it
bounds every partial sum of p and of q that a BLAS forms, in any order.
B is the least power of two >= 2c + 2, and rows are packed only when
c (B + 1) <= 2^24. Every packed entry (at most e (B + 1), e the packed
side's largest entry, and e <= c, since each norm counts at least 1), every
product and every partial sum is then an integer of magnitude at most
c (B + 1) that float32 holds; dividing by B is exact, and since
|p| <= c < B/2, rint recovers q for signed data too. On 0/1 data c is the
geometric mean of the two sides' largest row degrees, rounded down, so a
graph packs while that is at most 2047: c is 864 for the 2000-node
training side of the benchmark's projection and 1283 for its 4000-node
``random_dag``, while a 5000-node ``two_block`` graph (c = 2121) takes the
plain product.
"""
from __future__ import annotations

import copy
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import (
    CompatibilityMissingError,
    ConfigError,
    EmptyDenominatorWarning,
    LengthMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    warn_outside,
)
from .linalg import as_matrix

FAMILIES = ("rbf", "sne", "linear")

# row-block size for blockwise copies and means and for the rows of a
# float32 Gram product; results do not depend on it
_BLOCK = 512
# entries in a panel of rows that ``prepare_side`` reads at a time, so that
# a float64 panel and its temporaries stay in a core's cache
_PANEL = 2 ** 16
# leading columns searched for a row's first nonzero before the whole row
# is: on dense data nearly every row has one there
_PROBE = 64

# float32 holds every integer of magnitude up to 2^24 exactly
_F32_EXACT = 2 ** 24


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth."""

    family: str
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}; "
                              f"expected one of {FAMILIES}")
        if self.family in ("rbf", "sne"):
            if self.gamma is None or not self.gamma > 0:
                raise ConfigError(f"{self.family} kernel needs gamma > 0, "
                                  f"got {self.gamma!r}")


class SideStats(NamedTuple):
    """What ``prepare_side`` measures of a side as it stores it.

    ``sq_norms`` holds every row's squared Euclidean norm, ``scale`` the
    side's float32 scale (max(1, max|a|) while every entry is an integer,
    inf otherwise) and ``spans`` every row's nonzero columns as a half-open
    range: row i's nonzeros all lie in ``spans[i, 0]:spans[i, 1]``, the
    first and one past the last nonzero column, (d, 0) for a row of zeros.
    Only the float32 Gram product reads spans, so a side whose scale
    exceeds 2^24, which never takes it, has None.
    """

    sq_norms: np.ndarray
    scale: float
    spans: np.ndarray | None

    def take(self, rows) -> SideStats:
        """The statistics of rows ``rows`` of the side."""
        spans = None if self.spans is None else self.spans[rows]
        return SideStats(self.sq_norms[rows], self.scale, spans)


@dataclass(frozen=True)
class DataSources:
    """Row data set (rows of A) and column data set (columns of A, as rows).

    ``x_stats`` and ``z_stats`` are the sides' ``SideStats``, set where a
    side is stored (``prepare_side``, through ``build_sources`` and
    ``compat.apply_compat``). A side given without them is stored and
    measured by ``LazyKernelSource``.
    """

    x: np.ndarray
    z: np.ndarray
    x_stats: SideStats | None = None
    z_stats: SideStats | None = None


@dataclass(frozen=True)
class CenteringStats:
    row_means: np.ndarray
    col_means: np.ndarray
    grand_mean: float


def build_sources(a) -> DataSources:
    """Rows and columns of A, both stored and measured by ``prepare_side``:
    x is A stored and z its transposed copy. The sources never alias A."""
    x, x_stats = prepare_side(a, "A")
    if np.may_share_memory(x, a):
        x = x.copy()
    # z by row panels (twice as fast as one strided copy), from A if narrower
    arr = np.asarray(a)
    src = arr if arr.shape == x.shape and arr.itemsize < x.itemsize else x
    z = np.empty(x.shape[::-1], dtype=x.dtype)
    for start in range(0, x.shape[0], _BLOCK):
        z[:, start:start + _BLOCK] = src[start:start + _BLOCK].T
    z, z_stats = prepare_side(z, scale=x_stats.scale)
    return DataSources(x=x, z=z, x_stats=x_stats, z_stats=z_stats)


def default_gamma(data, k: float = 1.0) -> float:
    """Data-dependent bandwidth: k * sqrt(feature_dim * var(data)).

    Integer or boolean matrices are read as they are, with no float64 copy:
    the sum of their entries is exact (below 2^53), so the mean, every
    deviation from it and the variance are the float64 copy's bit for
    bit."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biu" or arr.ndim != 2 or arr.size == 0:
        arr = as_matrix(data, "data")
    if not k > 0:
        raise ConfigError(f"gamma scale k must be positive, got {k!r}")
    # booleans as 0/1 bytes: numpy's var of booleans takes a second copy
    var = float((arr.view(np.uint8) if arr.dtype == bool else arr).var())
    if var == 0.0:
        raise ConfigError("cannot derive a bandwidth from constant data")
    return k * float(np.sqrt(arr.shape[1] * var))


def _first_nonzero(a) -> np.ndarray:
    """Column of each row's first nonzero, the row length for a row of
    zeros. The first ``_PROBE`` columns of every row are read at once; only
    the rows without a nonzero among them are read whole, a panel of about
    ``_PANEL`` entries at a time."""
    first = np.full(a.shape[0], a.shape[1])
    open_rows = _settle(first, np.arange(a.shape[0]), a[:, :_PROBE] != 0)
    step = max(1, _PANEL // a.shape[1])
    for start in range(0, open_rows.size, step):
        rows = open_rows[start:start + step]
        _settle(first, rows, a[rows] != 0)
    return first


def _settle(first: np.ndarray, rows: np.ndarray,
            nonzero: np.ndarray) -> np.ndarray:
    """Set ``first[rows[i]]`` to the column of the first True in row i of
    ``nonzero``; return the rows that have none."""
    # argmax gives a row's first True, and 0 for a row without one
    at = nonzero.argmax(1)
    found = nonzero[np.arange(rows.size), at]
    first[rows[found]] = at[found]
    return rows[~found]


def _spans(a) -> np.ndarray:
    """The ``SideStats.spans`` of the rows of ``a``."""
    return np.stack([_first_nonzero(a),
                     a.shape[1] - _first_nonzero(a[:, ::-1])], 1)


def as_side(a, name: str = "data") -> np.ndarray:
    """``a`` as the 2-D array that ``prepare_side`` stores: booleans,
    integers and floats in their own type, anything else as float64, a
    vector as one row. Raises ShapeMismatchError unless it is 2-D and
    non-empty; its entries are not checked."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "biuf":
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeMismatchError(
            f"{name} must be 2-D and non-empty, got shape {arr.shape}")
    return arr


def prepare_side(a, name: str = "data",
                 scale: float | None = None) -> tuple[np.ndarray, SideStats]:
    """``a`` in stored form with its ``SideStats``: the one routine that
    stores and measures a side of kernel data.

    ``a`` is a 2-D array of booleans, integers or floats (a vector is one
    row), non-empty and finite. Its scale comes from its extremes for an
    integer type, and from float64 row panels for floats; ``scale`` gives
    it for a side already checked. The side is stored in float32 when the
    scale is at most 2^24, in float64 otherwise (``a`` itself when already
    so), never through a float64 copy of integer input. Its norms are sums
    of float64 squares, or float32 sums where the Gram product's rule makes
    them exact; its spans are taken only where that product reads them."""
    arr = as_side(a, name)
    step = max(1, _PANEL // arr.shape[1])
    if scale is None and arr.dtype.kind in "biu":
        scale = float(max(1, int(arr.max()), -int(arr.min())))
    elif scale is None:
        # in one call: checked on panels, the small temporaries left glibc
        # mapping later kernel blocks afresh (2155 page faults a solve, not 8)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name} contains NaN or Inf")
        scale = 1.0
        for start in range(0, arr.shape[0], step):
            b = np.asarray(arr[start:start + step], dtype=np.float64)
            if not np.array_equal(np.rint(b), b):
                scale = np.inf
                break
            scale = max(scale, float(b.max()), float(-b.min()))
    exact = scale <= _F32_EXACT
    out = np.ascontiguousarray(arr, dtype=np.float32 if exact else np.float64)
    if out.shape[1] * scale * scale <= _F32_EXACT:
        # the Gram product's own rule: every square and partial sum is an
        # integer that float32 holds, so the norms are exact in any order
        sq_norms = np.einsum("ij,ij->i", out, out).astype(np.float64)
    else:
        sq_norms = np.empty(out.shape[0])
        for start in range(0, out.shape[0], step):
            rows = slice(start, start + step)
            sq_norms[rows] = np.square(out[rows], dtype=np.float64).sum(1)
    return out, SideStats(sq_norms, scale, _spans(out) if exact else None)


def _panels(spans: np.ndarray):
    """(rows, lo, hi) of every panel of ``_BLOCK`` rows of a side, from its
    spans: the rows and the columns lo:hi that hold all of their
    nonzeros."""
    for begin in range(0, len(spans), _BLOCK):
        rows = slice(begin, min(begin + _BLOCK, len(spans)))
        yield rows, int(spans[rows, 0].min()), int(spans[rows, 1].max())


def _gram(x, z, x_side: SideStats, z_side: SideStats,
          finish=None) -> np.ndarray:
    """x @ z.T in float64, from stored operands and their ``SideStats``;
    ``finish(region, x_rows, z_rows)``, when given, runs in place on each
    region of the result as it is written.

    When d times the two sides' scales is at most 2^24, both sides are
    stored in float32, and their float32 product, exact, is written into
    the float64 result a tile at a time, so no operand is cast and no
    float32 temporary is larger than a panel of ``_BLOCK`` rows of one side
    against all of the other. The tiles are laid out over the panels of the
    side with fewer rows, x on a tie (``_layout``); each contracts only the
    columns where both sides have nonzeros, the intersection of their
    spans, and is zero when that is empty; the terms left out are all zero,
    so the integer result is the same. Each tile is one unit of work
    (``parallel.parallel_map``) that writes and finishes its own region:
    every entry takes the same operations on any thread, so the result is
    the same bits at any pool size. Past the bound the product is taken in
    float64, float32 sides upcast, over every column, as one product and
    one region, since OpenBLAS rounds slices of it differently.

    When c (B + 1) <= 2^24, c = isqrt(max(1, max |x|^2) * max(1, max |z|^2))
    from the sides' norms and B the least power of two >= 2c + 2, each tile
    packs pairs of rows of its shorter-side panel as row i + B * row (i+1)
    and takes one float32 product of half the rows; each packed value v is
    decoded into the two rows (columns when z is the shorter side) of the
    float64 result as q = rint(v / B) and v - B q. An odd last row takes the
    plain product. c bounds every dot product over any subset of columns,
    so every packed entry, product and partial sum is an integer that
    float32 holds, in any order, and the lower row's part, at most c < B/2
    in magnitude, is what rint rounds away: the result is still the float64
    product bit for bit.
    """
    d = x.shape[1]
    if d * x_side.scale * z_side.scale > _F32_EXACT:
        out = np.asarray(x, dtype=np.float64) @ np.asarray(
            z, dtype=np.float64).T
        if finish is not None:
            finish(out, slice(None), slice(None))
        return out
    out = np.empty((x.shape[0], z.shape[0]))
    flip = z.shape[0] < x.shape[0]
    (short, s32), (long, l32) = ((z_side, z), (x_side, x)) if flip else (
        (x_side, x), (z_side, z))
    # o[i, j] is short row i against long row j; each product is taken in
    # out's own orientation, x rows against z rows
    o = out.T if flip else out

    def product(a, b):
        return (b @ a.T).T if flip else a @ b.T

    # c bounds |x . z| over any columns; base is the least power of two
    # >= 2c + 2, and 0 where packing would not be exact
    c = math.isqrt(max(1, int(x_side.sq_norms.max()))
                   * max(1, int(z_side.sq_norms.max())))
    base = 1 << (2 * c + 1).bit_length()
    if c * (base + 1) > _F32_EXACT:
        base = 0

    def fill(rows, cols, lo, hi):
        if lo >= hi:
            o[rows, cols] = 0.0
            return
        panel, other = s32[rows, lo:hi], l32[cols, lo:hi]
        # rows i and i + 1 share a float32 lane as row i + base * row i+1
        pairs = len(panel) // 2 * 2 if base else 0
        if pairs:
            v = product(panel[1:pairs:2] * np.float32(base)
                        + panel[:pairs:2], other)
            stop = rows.start + pairs
            high = o[rows.start + 1:stop:2, cols]
            low = o[rows.start:stop:2, cols]
            np.multiply(v, 1.0 / base, out=high)
            np.rint(high, out=high)
            np.multiply(high, -base, out=low)
            low += v
            del v
        if pairs < len(panel):
            o[rows.start + pairs:rows.stop, cols] = product(
                panel[pairs:], other)

    def unit(tile):
        rows, cols = tile[:2]
        fill(*tile)
        if finish is not None:
            finish(*((out[cols, rows], cols, rows) if flip
                     else (out[rows, cols], rows, cols)))

    parallel.parallel_map(unit, [(rows, *tile) for rows, tiles in _layout(
        short.spans, long.spans) for tile in tiles])
    return out


def _layout(short: np.ndarray, long: np.ndarray):
    """(rows, tiles) of a Gram product, from the spans of its sides:
    ``short``, the side whose panels the tiles are laid out over, and
    ``long``. Every panel of ``_BLOCK`` rows of ``short`` has its tiles
    against the panels of ``_BLOCK`` rows of ``long`` (``_tiles``)."""
    long_panels = list(_panels(long))
    for rows, lo, hi in _panels(short):
        yield rows, _tiles(long_panels, lo, hi)


def _tiles(panels, lo: int, hi: int) -> list:
    """(cols, lo, hi) of the tiles of a panel whose span is lo:hi: the
    columns where it meets each of ``panels``' spans, (0, 0) when they do
    not meet. Neighbouring panels with the same lo:hi form one tile, so a
    panel that meets every one over the same columns, as on dense data,
    takes one product against all of them."""
    tiles = []
    for cols, p_lo, p_hi in panels:
        t_lo, t_hi = max(lo, p_lo), min(hi, p_hi)
        if t_lo >= t_hi:
            t_lo, t_hi = 0, 0
        if tiles and tiles[-1][1:] == (t_lo, t_hi):
            tiles[-1] = (slice(tiles[-1][0].start, cols.stop), t_lo, t_hi)
        else:
            tiles.append((cols, t_lo, t_hi))
    return tiles


def _raw_block(spec: KernelSpec, x, z, sides) -> np.ndarray:
    """Linear products, or the rbf numerators that sne rows are divided by.

    x and z are stored sides and ``sides`` their ``SideStats``. The Gram
    product ``x @ z.T`` comes from ``_gram``, which runs the rbf arithmetic
    in place on each region of it as the region is written.
    """
    x_side, z_side = sides
    if spec.family == "linear":
        return _gram(x, z, x_side, z_side)

    def rbf(d, x_rows, z_rows):
        d *= -2.0
        d += x_side.sq_norms[x_rows, None]
        d += z_side.sq_norms[z_rows]
        np.maximum(d, 0.0, out=d)
        d /= -(spec.gamma * spec.gamma)
        np.exp(d, out=d)

    return _gram(x, z, x_side, z_side, rbf)


class _DeadRows(threading.local):
    """While a public call runs in this thread (``warns_dead_rows``), the
    most underflowed sne rows one of its steps reported; None otherwise."""

    most: int | None = None


_dead_rows = _DeadRows()


def _warn_dead(dead: int) -> None:
    """EmptyDenominatorWarning for ``dead`` rows, at the caller's line that
    reached the underflow (``warn_outside``)."""
    if dead:
        warn_outside(f"{dead} sne row(s) underflowed to zero; substituting "
                     "uniform rows", EmptyDenominatorWarning)


def note_dead(dead: int) -> None:
    """Report ``dead`` underflowed sne rows: kept for the running public
    call's one warning, or warned about at once outside any."""
    if _dead_rows.most is None:
        _warn_dead(dead)
    else:
        _dead_rows.most = max(_dead_rows.most, dead)


def warns_dead_rows(func):
    """Decorate a public entry point so that it gives at most one
    EmptyDenominatorWarning a call, however many blocks, chunks or attempts
    met underflowed sne rows, naming the most that one of them reported;
    it fires when the call returns or raises. Calls nested inside it report
    to it; the state is per thread and cleared when the outermost call
    ends."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if _dead_rows.most is not None:
            return func(*args, **kwargs)
        _dead_rows.most = 0
        try:
            return func(*args, **kwargs)
        finally:
            dead, _dead_rows.most = _dead_rows.most, None
            _warn_dead(dead)
    return wrapper


def _divide_rows(block: np.ndarray, denom: np.ndarray, width: int) -> None:
    """Divide sne rows by their normalizers in place; rows whose normalizer
    underflowed to zero become uniform at 1/width, ``width`` the column
    count M of the full matrix."""
    dead = denom == 0.0
    block /= np.where(dead, 1.0, denom)[:, None]
    block[dead] = 1.0 / width


def _sne_normalize(block: np.ndarray, denom: np.ndarray, width: int) -> None:
    """``_divide_rows``, reporting normalizers that are zero."""
    note_dead(int((denom == 0.0).sum()))
    _divide_rows(block, denom, width)


def kernel_matrix(spec: KernelSpec, sources: DataSources) -> np.ndarray:
    """Assemble the full kernel matrix G (rows of x against rows of z)."""
    return LazyKernelSource(spec, sources).full()


def center(g, out=None) -> tuple[np.ndarray, CenteringStats]:
    """Double-center G so all row and column sums become zero.

    The centered G is a new array, or ``out`` when given; ``out`` may be G
    itself, which is then centered in place with no second array of its
    size. Either way the result is the same, bit for bit.
    """
    g = as_matrix(g, "G")
    row_means = g.mean(axis=1)
    col_means = g.mean(axis=0)
    grand = float(g.mean())
    gc = np.subtract(g, row_means[:, None], out=out)
    gc -= col_means[None, :]
    gc += grand
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

# a row whose sne normalizer is positive but below this takes its products
# with thin factors dense: its raw entries are no larger, so their thin
# products lose bits to underflow, and the reciprocal that scales its
# factor row, above 2**960, overflows on factor entries above 2**64
_TINY = 2.0 ** -960


class ChunkedBlock:
    """A kernel block kept as the raw chunks it was evaluated in.

    ``chunks`` are joined along ``axis``: column chunks (axis 1) for G_Nm,
    row chunks (axis 0) for G_nM, in evaluation order, which is the
    block's order along that axis. Rows are divided by ``denom`` when
    given (sne; a row whose normalizer is zero reads 1/``width``
    throughout), and ``centered`` subtracts row and column means and adds
    back the grand mean. The chunks themselves are never copied, reordered
    or normalized: a product with a thin matrix applies the normalizers as
    a diagonal scaling and the centering as rank-one corrections, so its
    cost is that of the thin products with the chunks. ``np.asarray(block)``
    gives the dense block, bit for bit the array that the division and
    centering make of the joined chunks. A row whose normalizer is positive
    but tiny (below ``_TINY``, subnormal ones among them) has raw entries
    no larger, so its thin products would underflow or its scaled factor
    row overflow: a product takes such rows dense, as ``np.asarray`` does.

    The Nystrom lift multiplies sampled blocks of G this way; an
    out-of-sample projection multiplies the kernel rows or columns of a
    chunk of new points, centered with their own means (``centered`` with
    None).

    A block reports ``shape`` and ``size`` and supports ``block @ w`` and
    ``block.T @ w`` for a 2-D ``w``; it takes no part in other numpy
    arithmetic, so that nothing densifies it unnoticed.
    """

    __array_ufunc__ = None

    def __init__(self, chunks, axis: int, denom=None, width=None):
        self._chunks = tuple(chunks)
        self._axis = axis
        self._denom = denom
        self._width = width
        self._shift = None  # (row means, column means, grand mean)
        self._t = False
        self._join = sum(c.shape[axis] for c in self._chunks)

    @classmethod
    def dense(cls, a) -> ChunkedBlock:
        """A plain matrix as a block of one column chunk."""
        return cls((a,), 1)

    @property
    def shape(self) -> tuple[int, int]:
        lines = self._chunks[0].shape[1 - self._axis]
        shape = (lines, self._join) if self._axis == 1 else (self._join, lines)
        return shape[::-1] if self._t else shape

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def T(self) -> ChunkedBlock:  # noqa: N802 (numpy's name)
        out = copy.copy(self)
        out._t = not self._t
        return out

    def centered(self, row_means, col_means, grand_mean: float) -> ChunkedBlock:
        """The block minus its row and column means plus the grand mean,
        the double centering of a kernel block with training statistics.

        ``row_means`` None stands for the block's own row means, which
        ``block @ w`` takes from the same thin product through one more
        column of ``w``; ``col_means`` None likewise for its own column
        means in ``block.T @ w``. These are the means of a new point's
        kernel row or column, over every training point.
        """
        out = copy.copy(self)
        out._shift = (row_means, col_means, grand_mean)
        return out

    def _dense(self, part=slice(None)) -> np.ndarray:
        """Dense rows (column blocks) or columns (row blocks) ``part``: the
        lines across the join, selected before anything is copied."""
        if self._axis == 1:
            rows, cols = part, slice(None)
            out = np.concatenate([c[part] for c in self._chunks], 1)
        else:
            rows, cols = slice(None), part
            out = np.concatenate([c[:, part] for c in self._chunks])
        if self._denom is not None:
            _divide_rows(out, self._denom[rows], self._width)
        if self._shift is not None:
            if part != slice(None) and any(m is None
                                           for m in self._shift[:2]):
                raise ValueError("own means are those of the whole block")
            row_means, col_means, grand = self._shift
            row_means = out.mean(1) if row_means is None else row_means[rows]
            col_means = out.mean(0) if col_means is None else col_means[cols]
            out -= row_means[:, None]
            out -= col_means[None, :]
            out += grand
        return out

    def __array__(self, dtype=None, copy=None):
        out = self._dense()
        out = out.T if self._t else out
        return out if dtype is None else out.astype(dtype)

    def mean(self, axis: int) -> np.ndarray:
        """``np.asarray(block).mean(axis)`` bit for bit, along the join axis
        of an untransposed block, from dense slabs of ``_BLOCK`` lines."""
        if self._t or axis != self._axis:
            raise ValueError("mean is taken along the join axis of an "
                             "untransposed block")
        lines = self._chunks[0].shape[1 - axis]
        return np.concatenate([
            self._dense(slice(start, start + _BLOCK)).mean(axis)
            for start in range(0, lines, _BLOCK)])

    def _across(self, w: np.ndarray) -> np.ndarray:
        """Raw product contracting the join axis: the chunks' thin products
        with their slices of ``w``, summed."""
        out = np.zeros((self._chunks[0].shape[1 - self._axis], w.shape[1]))
        start = 0
        for c in self._chunks:
            stop = start + c.shape[self._axis]
            out += (c if self._axis == 1 else c.T) @ w[start:stop]
            start = stop
        return out

    def _along(self, w: np.ndarray) -> np.ndarray:
        """Raw product contracting the other axis: the chunks' thin products
        with ``w``, joined."""
        return np.concatenate([(c.T if self._axis == 1 else c) @ w
                               for c in self._chunks])

    def __matmul__(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} block by an "
                             f"array of shape {w.shape}")
        own = self._shift is not None and self._shift[1 if self._t else 0] \
            is None
        if own:  # the mean of every contracted line, as one more column
            w = np.hstack([w, np.full((w.shape[0], 1), 1.0 / w.shape[0])])
        out = self._transposed_times(w) if self._t else self._times(w)
        if self._shift is None:
            return out
        row_means, col_means, grand = self._shift
        if own:
            w, out, means = w[:, :-1], out[:, :-1], out[:, -1]
            row_means, col_means = ((row_means, means) if self._t
                                    else (means, col_means))
        # B_c = B - r 1^T - 1 c^T + g 1 1^T, r and c the row and column means
        total = w.sum(0)
        if self._t:
            out -= row_means @ w
            out -= col_means[:, None] * total
        else:
            out -= row_means[:, None] * total
            out -= col_means @ w
        out += grand * total
        return out

    def _rows(self, tiny: np.ndarray) -> np.ndarray:
        """Rows ``tiny`` (a mask) of the untransposed block, divided by
        their normalizers but not centered."""
        sizes = [len(c) for c in self._chunks[:-1]]
        parts = (np.split(tiny, np.cumsum(sizes)) if self._axis == 0
                 else [tiny] * len(self._chunks))
        out = np.concatenate([c[part] for c, part in zip(self._chunks, parts)],
                             self._axis)
        _divide_rows(out, self._denom[tiny], self._width)
        return out

    def _times(self, w: np.ndarray) -> np.ndarray:
        """B @ w before centering: rows are divided after the product."""
        out = self._across(w) if self._axis == 1 else self._along(w)
        if self._denom is not None:
            small, dead = self._denom < _TINY, self._denom == 0.0
            tiny = small & ~dead
            out /= np.where(small, 1.0, self._denom)[:, None]
            out[dead] = w.sum(0) / self._width
            if tiny.any():
                out[tiny] = self._rows(tiny) @ w
        return out

    def _transposed_times(self, w: np.ndarray) -> np.ndarray:
        """B.T @ w before centering: rows are divided before the product,
        as rows of w."""
        scaled = w
        if self._denom is not None:
            small, dead = self._denom < _TINY, self._denom == 0.0
            tiny = small & ~dead
            scaled = w / np.where(small, 1.0, self._denom)[:, None]
            scaled[small] = 0.0
        out = self._along(scaled) if self._axis == 1 else self._across(scaled)
        if self._denom is not None:
            if dead.any():
                out += w[dead].sum(0) / self._width
            if tiny.any():
                out += self._rows(tiny).T @ w[tiny]
        return out


def as_block(a, name: str) -> ChunkedBlock:
    """Pass a ChunkedBlock through; check a plain matrix (``as_matrix``)
    and wrap it as a block of one chunk."""
    if isinstance(a, ChunkedBlock):
        return a
    return ChunkedBlock.dense(as_matrix(a, name))


class MatrixSource:
    """Block access to an already materialized kernel matrix."""

    def __init__(self, g):
        self._g = as_matrix(g, "G")
        self.entries_evaluated = 0

    @property
    def shape(self):
        return self._g.shape

    def sample_blocks(self, row_idx, col_idx, col_weights=None):
        """(G_nm, G_Nm, G_nM), the large two as blocks of one column and
        one row chunk, as ``LazyKernelSource`` joins them; G holds no
        normalizers to estimate, so ``col_weights`` changes nothing."""
        g_big_m = self._g[:, col_idx]
        g_n_big = self._g[row_idx, :]
        self.entries_evaluated += g_big_m.size + g_n_big.size
        return (g_big_m[row_idx], ChunkedBlock.dense(g_big_m),
                ChunkedBlock((g_n_big,), 0))

    def full(self) -> np.ndarray:
        self.entries_evaluated += self._g.size
        return self._g


def _finite(chunk: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(chunk).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return chunk


@dataclass(frozen=True)
class _Sample:
    """Raw chunks of the sampled index sets, in the order evaluated."""

    rows: np.ndarray
    cols: np.ndarray
    col_chunks: tuple           # N x (new columns): linear or rbf numerators
    row_chunks: tuple           # (new rows) x M


class LazyKernelSource:
    """Evaluate kernel blocks on demand; the full G is never stored.

    A sampled run touches N*m + n*M entries. For the sne family each row's
    normalizer, its sum over all M columns, is estimated without bias from
    the m sampled columns by the Horvitz-Thompson sum of raw_ij / pi_j, pi_j
    the inclusion probability of column j. A uniform sample has pi_j = m/M,
    so the estimate is (sampled sum) * M/m: the factor is common to every
    row, puts the blocks at the full matrix's scale and leaves the singular
    vectors of a plain sampled-sum normalization unchanged. Both sampled
    blocks are divided by the same estimates. ``row_denoms`` holds the sne
    normalizers behind the latest blocks: estimates after ``sample_blocks``,
    exact after ``full``.

    x and z are evaluated in stored form (see ``prepare_side``) with their
    ``SideStats``. Sources from ``build_sources`` or ``compat.apply_compat``
    carry both, and every source over them reuses them; a side given
    without them is stored and measured once, here. ``entries_evaluated``
    counts the kernel entries actually evaluated.
    """

    def __init__(self, spec: KernelSpec, sources: DataSources):
        if sources.x.shape[1] != sources.z.shape[1]:
            raise CompatibilityMissingError(
                f"row data has feature length {sources.x.shape[1]} but column "
                f"data has {sources.z.shape[1]}; a compatibility transform is "
                "required")
        self._spec = spec
        (self._x, x_stats), (self._z, z_stats) = [
            (side, stats) if stats is not None else prepare_side(side, name)
            for side, stats, name in ((sources.x, sources.x_stats, "x"),
                                      (sources.z, sources.z_stats, "z"))]
        self._sides = (x_stats, z_stats)
        self._sample = None
        self.entries_evaluated = 0
        self.row_denoms = None

    @property
    def shape(self):
        return self._x.shape[0], self._z.shape[0]

    def _block(self, x_rows=slice(None), z_rows=slice(None)) -> np.ndarray:
        """Raw block of x[x_rows] against z[z_rows], counted."""
        x_side, z_side = self._sides
        block = _raw_block(self._spec, self._x[x_rows], self._z[z_rows],
                           (x_side.take(x_rows), z_side.take(z_rows)))
        self.entries_evaluated += block.size
        return block

    @warns_dead_rows
    def sample_blocks(self, row_idx, col_idx, col_weights=None):
        """Return (G_nm, G_Nm, G_nM) for the given sampled index sets.

        The raw chunks of the latest call are kept. When both index sets
        begin with the previous call's, as nested draws do, only the
        indices that follow, new columns of G_Nm and new rows of G_nM, are
        evaluated, each as one more raw chunk (checked once for NaN and
        Inf); otherwise every entry is. G_Nm and G_nM are ``ChunkedBlock``s
        over the raw chunks, in requested order and with sne rows divided
        by the current estimates; G_nm is a small dense
        array, the requested rows of G_Nm, so the three blocks are mutually
        consistent by construction.

        ``col_weights`` are the Horvitz-Thompson weights 1/pi_j of the
        requested columns, in their order; None stands for a uniform
        sample, M/m each. sne normalizers are the weighted sums of the raw
        columns; the chunks themselves are never weighted.
        """
        row_idx = np.array(row_idx, dtype=int)
        col_idx = np.array(col_idx, dtype=int)
        big_n, big_m = self.shape
        prev = self._sample
        if prev is None or not (
                np.array_equal(row_idx[:prev.rows.size], prev.rows)
                and np.array_equal(col_idx[:prev.cols.size], prev.cols)):
            empty = np.empty(0, dtype=int)
            prev = _Sample(empty, empty, (np.empty((big_n, 0)),),
                           (np.empty((0, big_m)),))
        new_rows = row_idx[prev.rows.size:]
        new_cols = col_idx[prev.cols.size:]
        col_chunks, row_chunks = prev.col_chunks, prev.row_chunks
        if new_cols.size:
            col_chunks += (_finite(self._block(z_rows=new_cols), "G_Nm"),)
        if new_rows.size:
            row_chunks += (_finite(self._block(x_rows=new_rows), "G_nM"),)
        self._sample = _Sample(row_idx, col_idx, col_chunks, row_chunks)

        denom = None
        if self._spec.family == "sne":
            if col_weights is None:
                denom = sum(c.sum(1) for c in col_chunks) \
                    * (big_m / col_idx.size)
            else:
                denom = (ChunkedBlock(col_chunks, 1)
                         @ np.reshape(col_weights, (-1, 1)))[:, 0]
            self.row_denoms = denom
            note_dead(int((denom == 0.0).sum()))
        g_big_m = ChunkedBlock(col_chunks, 1, denom, big_m)
        g_n_big = ChunkedBlock(row_chunks, 0,
                               None if denom is None else denom[row_idx],
                               big_m)
        return g_big_m._dense(row_idx), g_big_m, g_n_big

    @warns_dead_rows
    def full(self) -> np.ndarray:
        """Materialize the exact kernel matrix (full sne normalization)."""
        g = self._block()
        if self._spec.family == "sne":
            self.row_denoms = g.sum(1)
            _sne_normalize(g, self.row_denoms, self._z.shape[0])
        return g


def as_kernel_source(obj):
    """Wrap a plain matrix in a MatrixSource; pass sources through unchanged."""
    if isinstance(obj, (MatrixSource, LazyKernelSource)):
        return obj
    return MatrixSource(obj)
