"""Feature learning by SVD of a centered asymmetric kernel matrix.

``fit`` builds the kernel matrix G from a data matrix (rows against
columns, through an optional compatibility transform), double-centers it,
and takes its top singular triplets (U, D, V). The sampled solver
("nystrom") takes them instead from ``nystrom.asym_nystrom``, the
asymmetric Nystrom method's one sampled solve, centered with its sampled
blocks' own means; both ways end in the same model. It stores the
scaled coefficient matrices

    B_phi = U D^{-1/2},   B_psi = V D^{-1/2},   Lambda = D,

which satisfy B_phi^T G_c B_psi = I and the coupled stationarity system

    G_c^T G_c B_psi = G_c^T B_phi Lambda,
    G_c G_c^T B_phi = G_c B_psi Lambda.

Training embeddings are the (unit-column) singular vectors themselves.
Out-of-sample points are projected through the adjoint eigenfunctions: a
new x point's kernel values against the training z, normalized and
centered as in training, times B_psi Lambda^{-1/2}, and a new z point's
against the training x times B_phi Lambda^{-1/2}. ``transform_oos`` takes
that product a chunk of new points at a time from the raw kernel values,
with the normalization and centering folded into it, so no batch-sized
kernel block is built.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels, parallel
from .compat import (IDENTITY, CompatMatrix, apply_compat, make_compat,
                     projected_side)
from .errors import (
    ConfigError,
    DegenerateKernelWarning,
    DimensionMismatchError,
    NonFiniteError,
    NumericError,
    ParseError,
    RankTooLargeError,
    warn_outside,
)
from .kernels import CenteringStats, DataSources, KernelSpec, LazyKernelSource
from .linalg import svd_exact, svd_randomized, svd_truncated
from .nystrom import NystromConfig, asym_nystrom

# the solver_opts keys each solver reads; ``fit`` rejects any other key
SOLVER_OPTS = {
    "exact": (),
    "truncated": ("tol", "seed"),
    "randomized": ("oversample", "power_iters", "seed"),
    "nystrom": ("n", "m", "seed"),
}


@dataclass(frozen=True)
class KsvdModel:
    """A fitted model: the scaled coefficients and singular values, and
    what projecting new points needs. ``compat.side`` names the side of
    the training data that the compat transform projected (None for
    identity); ``transform_oos`` projects new points of that side too."""

    b_phi: np.ndarray
    b_psi: np.ndarray
    lam: np.ndarray
    kernel: KernelSpec
    compat: CompatMatrix
    centering: CenteringStats
    # the data fed to the kernel (after the compat transform), stored and
    # measured by ``kernels.prepare_side`` for every projection to reuse
    train: DataSources
    centered: bool = True
    sne_row_denoms: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return int(self.lam.size)

    @property
    def train_x(self) -> np.ndarray:
        """The row side of the training data, read plain."""
        return kernels.plain(self.train.x, self.train.x_stats)

    @property
    def train_z(self) -> np.ndarray:
        """The column side of the training data, read plain."""
        return kernels.plain(self.train.z, self.train.z_stats)


@dataclass(frozen=True)
class Embedding:
    side: str
    features: np.ndarray


@kernels.warns_dead_rows
def fit(a, kernel: KernelSpec, r: int, compat="auto", solver: str = "exact",
        center: bool = True, compat_seed: int | None = None,
        solver_opts: dict | None = None) -> KsvdModel:
    """Fit the model: kernel, centering, rank-r SVD, coefficient scaling.

    ``compat`` is a mode of ``compat.make_compat``: auto (identity for
    square data, a0 otherwise), identity, a0, a1 or a2 (seeded by
    ``compat_seed``).
    ``solver`` selects how the SVD is obtained. "exact", "truncated" and
    "randomized" solve the full kernel matrix, centered in place.
    "nystrom" never materializes it: it is ``nystrom.asym_nystrom`` on the
    kernel source, the growth loop's first attempt at the same m and seed,
    centered with the sampled blocks' own means when ``center`` is set.
    An uncentered model stores zero centering statistics.
    ``solver_opts`` takes only the keys ``SOLVER_OPTS`` lists for the solver.
    """
    sources = kernels.build_sources(a)  # validates A
    big_n, big_m = sources.shape
    if solver not in SOLVER_OPTS:
        raise ConfigError(f"unknown solver {solver!r}; expected one of "
                          f"{tuple(SOLVER_OPTS)}")
    if r < 1 or r > min(big_n, big_m):
        raise RankTooLargeError(
            f"r={r} must lie in [1, min(N, M)={min(big_n, big_m)}]")
    opts = dict(solver_opts or {})
    unread = sorted(set(opts) - set(SOLVER_OPTS[solver]))
    if unread:
        raise ConfigError(f"solver {solver!r} does not read solver_opts "
                          f"{unread}; it reads {SOLVER_OPTS[solver]}")
    for name in ("tol", "oversample", "power_iters"):
        # NaN fails the comparison too
        if name in opts and not opts[name] >= 0:
            raise ConfigError(f"{name} must be >= 0, got {opts[name]}")
    compat = make_compat(a, compat, seed=compat_seed)
    sources = apply_compat(compat, sources)

    source = LazyKernelSource(kernel, sources)
    if solver == "nystrom":
        # the other keys are NystromConfig's fields
        res = asym_nystrom(source, NystromConfig(r=r, **opts), center=center)
        u, v, lam = res.u_tilde, res.v_tilde, res.lambda_tilde
        stats = res.centering
    else:
        g = source.full()
        # g is this call's own array: centered in place
        stats = kernels.center(g, out=g)[1] if center else None
        solve = {"exact": svd_exact, "truncated": svd_truncated,
                 "randomized": svd_randomized}[solver]
        res = solve(g, r, **opts)
        take = min(r, res.rank)
        if take < r:
            warn_outside(
                f"centered kernel matrix has numerical rank {res.rank} < "
                f"requested {r}; model truncated", DegenerateKernelWarning)
        u, v, lam = res.u[:, :take], res.v[:, :take], res.s[:take]
    return KsvdModel(
        b_phi=u / np.sqrt(lam)[None, :], b_psi=v / np.sqrt(lam)[None, :],
        lam=lam, kernel=kernel, compat=compat,
        centering=stats or CenteringStats(np.zeros(big_n), np.zeros(big_m),
                                          0.0),
        train=sources, centered=center, sne_row_denoms=source.row_denoms)


def transform(model: KsvdModel, side: str, r: int | None = None) -> Embedding:
    """Training embeddings: the first r left or right singular vectors."""
    if side not in ("left", "right"):
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    if r is None:
        r = model.rank
    if r > model.rank:
        raise RankTooLargeError(f"r={r} exceeds model rank {model.rank}")
    coeff = model.b_phi if side == "left" else model.b_psi
    feats = coeff[:, :r] * np.sqrt(model.lam[:r])[None, :]
    return Embedding(side=side, features=feats)


# new points are projected this many at a time, each chunk one unit of
# work (``parallel.parallel_map``): a chunk's kernel block, chunk x training
# points in float64, is the largest array a unit holds, and up to
# ``parallel.POOL_SIZE`` units are live at once; each chunk takes its own
# Gram product, which streams the stored training side as it is, so much
# smaller chunks make more passes over that side
OOS_CHUNK = 512


def _oos_scores(model: KsvdModel, side: str, count: int,
                numerators) -> np.ndarray:
    """Scores of ``count`` new points from their raw kernel values.

    ``numerators(rows)`` evaluates new points ``rows`` (a slice): linear
    products or rbf numerators of the new x points against the training z
    (rows x M) on the x side, of the training x against the new z points
    (N x rows) on the z side. Each chunk of ``OOS_CHUNK`` points is one unit
    of work (``parallel.parallel_map``) that evaluates its block, makes it
    one ``ChunkedBlock`` and writes its own rows of the scores with one
    product by W = B / sqrt(lambda), the opposite coefficients: sne rows are
    divided by the new row's own sum (x side) or the training rows' stored
    normalizers (z side), dead rows read 1/M, and a centered model
    subtracts the point's own mean, the training means and adds the grand
    mean, all applied to that one thin product. Units return the dead rows
    they met, which are reported here, in the caller's thread.
    """
    stats, sne = model.centering, model.kernel.family == "sne"
    w = (model.b_psi if side == "x" else model.b_phi) / np.sqrt(model.lam)
    width = model.train.shape[1]
    out = np.empty((count, model.rank))

    def unit(start: int) -> int:
        rows = slice(start, start + OOS_CHUNK)
        values = numerators(rows)
        dead = 0
        if side == "x":
            denom, means = None, (None, stats.col_means)
            if sne:
                denom = values.sum(1)
                dead = int((denom == 0.0).sum())
        else:
            denom, means = model.sne_row_denoms, (stats.row_means, None)
        block = kernels.ChunkedBlock((values,), 1, denom=denom, width=width)
        if model.centered:
            block = block.centered(*means, stats.grand_mean)
        out[rows] = (block if side == "x" else block.T) @ w
        return dead

    dead = sum(parallel.parallel_map(unit, range(0, count, OOS_CHUNK)))
    if side == "z" and sne:
        dead += int((model.sne_row_denoms == 0.0).sum())
    kernels.note_dead(dead)
    return out


@kernels.warns_dead_rows
def transform_oos(model: KsvdModel, new_x=None, new_z=None) -> np.ndarray:
    """Project out-of-sample points into the learned feature space.

    Exactly one of ``new_x`` (a raw row-side point, or a batch of them) and
    ``new_z`` (column-side) must be given. The point is passed through the
    model's compatibility transform when its side was projected during
    training. Its kernel values against the training samples of the other
    side, normalized and centered with the stored statistics, are projected
    on the opposite singular vectors with 1/lambda weights (the adjoint
    eigenfunctions), which reproduces training embeddings when training
    points are replayed. New points go ``OOS_CHUNK`` at a time, and each
    chunk's raw kernel block meets the weights in one thin product
    (``_oos_scores``): no kernel row of the whole batch is ever built.
    Chunks are independent units, up to ``parallel.POOL_SIZE`` of them at
    once, so that many chunk blocks may be live together; the scores are
    the same bits at any pool size. A point's kernel values do not depend
    on its batch, but BLAS may sum one row of the thin product in another
    order alone than within a batch, so a point's projection agrees across
    batch sizes to rounding (about 1e-16 relative), not bit for bit.
    """
    if (new_x is None) == (new_z is None):
        raise ConfigError("provide exactly one of new_x and new_z")
    side, raw = ("x", new_x) if new_z is None else ("z", new_z)
    points = kernels.as_side(raw, "points")
    c = model.compat.c if model.compat.side == side else None
    # a stored side has its plain feature length, packed or not
    expect = getattr(model.train, side).shape[1] if c is None else c.shape[0]
    if points.shape[1] != expect:
        raise DimensionMismatchError(
            f"new_{side} has length {points.shape[1]}, expected {expect}")
    if c is not None:
        # checked before the product, which would warn on inf * 0
        if points.dtype.kind == "f" and not np.isfinite(points).all():
            raise NonFiniteError("points contains NaN or Inf")
        # one product over the whole batch: BLAS may round a float64
        # product taken a chunk at a time differently
        points = np.asarray(points, dtype=np.float64) @ c
    train = model.train

    def numerators(rows):
        # in the chunk's unit: its points are stored and measured there,
        # plain, since the chunk's one product reads them as its short side;
        # the training side's statistics come with the model
        pts, stats = kernels.prepare_side(points[rows], "points", pack=False)
        sides = (DataSources(x=pts, z=train.z, x_stats=stats,
                             z_stats=train.z_stats) if side == "x" else
                 DataSources(x=train.x, z=pts, x_stats=train.x_stats,
                             z_stats=stats))
        return LazyKernelSource(model.kernel, sides)._block()

    scores = _oos_scores(model, side, len(points), numerators)
    return scores[0] if np.ndim(raw) == 1 else scores


# --- persistence --------------------------------------------------------------

MODEL_FILE = "model.npz"
MODEL_FORMAT = 1


def save_model(model: KsvdModel, path) -> None:
    """Write the model as one uncompressed ``<path>/model.npz``.

    The data matrix A is stored once (``load_model`` redoes the compat
    transform), as uint8 when every entry is an integer in 0..255, as for
    graphs, and in its stored form otherwise, next to a JSON snapshot of the
    settings. Zip entries carry a fixed timestamp, so saving the same model
    writes the same bytes.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    snapshot = {"format": MODEL_FORMAT, "kernel.family": model.kernel.family,
                "kernel.gamma": model.kernel.gamma,
                "compat.mode": model.compat.mode,
                "compat.seed": model.compat.seed, "centered": model.centered}
    # A itself is the side the compat transform left untouched; its scale is
    # max(1, max|A|) while every entry is an integer
    data, stats = ((model.train_z.T, model.train.z_stats)
                   if model.compat.side == "x"
                   else (model.train_x, model.train.x_stats))
    if stats.scale <= 255 and data.min() >= 0:
        data = data.astype(np.uint8)
    arrays = {"b_phi": model.b_phi, "b_psi": model.b_psi, "lam": model.lam,
              "row_means": model.centering.row_means,
              "col_means": model.centering.col_means,
              "grand_mean": model.centering.grand_mean, "data": data}
    if model.compat.c is not None:
        arrays["compat"] = model.compat.c
    if model.sne_row_denoms is not None:
        arrays["sne_row_denoms"] = model.sne_row_denoms
    np.savez(path / MODEL_FILE, snapshot=json.dumps(snapshot), **arrays)


def load_model(path) -> KsvdModel:
    """Read ``<path>/model.npz``. Stored arrays come back exactly, A in its
    stored form whichever dtype it was written in (uint8, float32 or
    float64); the side of the training data that the compat transform
    touched is recomputed as A @ C, as ``fit`` does, so it is bit-identical
    on the same BLAS build. Both sides' squared row norms and float32
    scales are computed here, once, for every later projection.

    Raises ParseError, naming the file, when it is missing, truncated or not
    an npz, lacks a key (sne models need ``sne_row_denoms``), has another
    format number or disagreeing shapes.
    """
    file = Path(path) / MODEL_FILE
    try:
        # np.load leaves a file it opened open when the file is bad
        with open(file, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            f = dict(npz)
        snap = json.loads(str(f["snapshot"]))
        if snap["format"] != MODEL_FORMAT:
            raise ParseError(f"{file}: model format {snap['format']!r}, "
                             f"expected {MODEL_FORMAT}")
        (n, m), r = f["data"].shape, f["lam"].size
        want = {"b_phi": (n, r), "b_psi": (m, r), "lam": (r,),
                "row_means": (n,), "col_means": (m,), "grand_mean": (),
                "sne_row_denoms": (n,)}
        bad = [k for k, shp in want.items() if k in f and f[k].shape != shp]
        if bad:
            raise ParseError(f"{file}: {bad} disagree with data {(n, m)} "
                             f"at rank {r}")
        mode = snap["compat.mode"]
        compat = IDENTITY if mode == "identity" else CompatMatrix(
            c=f["compat"], mode=mode, seed=snap["compat.seed"],
            side=projected_side((n, m)))
        sources = apply_compat(compat, kernels.build_sources(f["data"]))
        stats = CenteringStats(f["row_means"], f["col_means"],
                               float(f["grand_mean"]))
        return KsvdModel(
            b_phi=f["b_phi"], b_psi=f["b_psi"], lam=f["lam"],
            kernel=KernelSpec(snap["kernel.family"], snap["kernel.gamma"]),
            compat=compat, centering=stats,
            train=sources, centered=snap["centered"],
            sne_row_denoms=f["sne_row_denoms"]
            if snap["kernel.family"] == "sne" else None)
    except KeyError as exc:
        raise ParseError(f"{file}: missing {exc}") from None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, ConfigError,
            NumericError) as exc:
        raise ParseError(f"{file}: {exc}") from None
