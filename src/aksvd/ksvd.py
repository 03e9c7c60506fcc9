"""Feature learning by SVD of a centered asymmetric kernel matrix.

``fit`` builds the kernel matrix G from a data matrix (rows against
columns, through an optional compatibility transform), double-centers it,
and takes its top singular triplets (U, D, V). The model stores the
scaled coefficient matrices

    B_phi = U D^{-1/2},   B_psi = V D^{-1/2},   Lambda = D,

which satisfy B_phi^T G_c B_psi = I and the coupled stationarity system

    G_c^T G_c B_psi = G_c^T B_phi Lambda,
    G_c G_c^T B_phi = G_c B_psi Lambda.

Training embeddings are the (unit-column) singular vectors themselves;
out-of-sample points are projected through their centered kernel rows or
columns.
"""
from __future__ import annotations

import json
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .compat import IDENTITY, CompatMatrix, apply_compat, make_compat
from .errors import (
    ConfigError,
    DegenerateKernelWarning,
    DimensionMismatchError,
    NumericError,
    ParseError,
    RankTooLargeError,
    ShapeMismatchError,
)
from .kernels import CenteringStats, DataSources, KernelSpec, LazyKernelSource
from .linalg import as_matrix, svd_exact, svd_randomized, svd_truncated
from .nystrom import NystromConfig, lift_blocks, sample_indices

SOLVERS = ("exact", "truncated", "randomized", "nystrom")


@dataclass(frozen=True)
class KsvdModel:
    b_phi: np.ndarray
    b_psi: np.ndarray
    lam: np.ndarray
    kernel: KernelSpec
    compat: CompatMatrix
    compat_side: str | None  # "x", "z", or None for identity
    centering: CenteringStats
    # the row and column data actually fed to the kernel (after the compat
    # transform), in stored form: float32 when every entry is an integer of
    # magnitude at most 2^24, as for graphs, float64 otherwise
    train_x: np.ndarray
    train_z: np.ndarray
    centered: bool = True
    sne_row_denoms: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return int(self.lam.size)


@dataclass(frozen=True)
class Embedding:
    side: str
    features: np.ndarray


def _zero_stats(n: int, m: int) -> CenteringStats:
    return CenteringStats(row_means=np.zeros(n), col_means=np.zeros(m),
                          grand_mean=0.0)


def _transformed_sources(a: np.ndarray, compat: CompatMatrix):
    sources = kernels.build_sources(a)
    out = apply_compat(compat, sources)
    if compat.mode == "identity":
        side = None
    elif a.shape[1] >= a.shape[0]:
        side = "x"
    else:
        side = "z"
    return out, side


def _resolve_compat(a, compat, compat_seed, compat_target_dim, compat_center):
    if isinstance(compat, CompatMatrix):
        return compat
    if compat is None:
        compat = "identity" if a.shape[0] == a.shape[1] else "a0"
    return make_compat(a, compat, seed=compat_seed,
                       target_dim=compat_target_dim, center=compat_center)


def fit(a, kernel: KernelSpec, r: int, compat="identity", solver: str = "exact",
        center: bool = True, compat_seed: int | None = None,
        compat_target_dim: int | None = None, compat_center: bool = True,
        solver_opts: dict | None = None) -> KsvdModel:
    """Fit the model: kernel, centering, rank-r SVD, coefficient scaling.

    ``compat`` may be a mode string (identity/a0/a1/a2) or a prebuilt
    CompatMatrix; None picks identity for square data and a0 otherwise.
    ``solver`` selects how the SVD is obtained; "nystrom" works from
    sampled kernel blocks and never materializes the full matrix.
    """
    a = as_matrix(a, "A")
    big_n, big_m = a.shape
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if r < 1 or r > min(big_n, big_m):
        raise RankTooLargeError(
            f"r={r} must lie in [1, min(N, M)={min(big_n, big_m)}]")
    opts = dict(solver_opts or {})
    compat = _resolve_compat(a, compat, compat_seed, compat_target_dim,
                             compat_center)
    sources, side = _transformed_sources(a, compat)
    spec = KernelSpec(family=kernel.family, gamma=kernel.gamma)

    if solver == "nystrom":
        return _fit_nystrom(a, spec, r, compat, side, sources, center, opts)

    source = LazyKernelSource(spec, sources)
    g = source.full()

    if center:
        gc, stats = kernels.center(g)
    else:
        gc, stats = g, _zero_stats(big_n, big_m)

    if solver == "exact":
        res = svd_exact(gc)
    elif solver == "truncated":
        res = svd_truncated(gc, r, tol=opts.get("tol", 1e-10),
                            start_seed=opts.get("seed", 0))
    else:
        res = svd_randomized(gc, r, oversample=opts.get("oversample", 10),
                             power_iters=opts.get("power_iters", 2),
                             seed=opts.get("seed", 0))
    take = min(r, res.rank)
    if take < r:
        warnings.warn(
            f"centered kernel matrix has numerical rank {res.rank} < "
            f"requested {r}; model truncated", DegenerateKernelWarning,
            stacklevel=2)
    u = res.u[:, :take]
    v = res.v[:, :take]
    lam = res.s[:take]
    return KsvdModel(
        b_phi=u / np.sqrt(lam)[None, :], b_psi=v / np.sqrt(lam)[None, :],
        lam=lam, kernel=spec, compat=compat, compat_side=side,
        centering=stats, train_x=sources.x, train_z=sources.z,
        centered=center, sne_row_denoms=source.row_denoms)


def _fit_nystrom(a, spec, r, compat, side, sources, center, opts):
    lazy = LazyKernelSource(spec, sources)
    cfg = NystromConfig(
        r=r, n=opts.get("n"), m=opts.get("m"), seed=opts.get("seed", 0),
        subproblem=opts.get("subproblem", "rsvd"),
        oversample=opts.get("oversample", 10),
        power_iters=opts.get("power_iters", 2))
    rows, cols = sample_indices(lazy.shape, cfg)
    g_nm, g_big_m, g_n_big = lazy.sample_blocks(rows, cols)
    big_n, big_m = lazy.shape

    if not center:
        stats = _zero_stats(big_n, big_m)
    elif opts.get("center_stats", "sampled") == "full":
        stats = lazy.streaming_stats()
    else:
        # unbiased estimates from the sampled blocks; exact at full sampling
        stats = CenteringStats(row_means=g_big_m.mean(axis=1),
                               col_means=g_n_big.mean(axis=0),
                               grand_mean=float(g_nm.mean()))
    if center:
        g_nm = g_nm - stats.row_means[rows, None] - stats.col_means[None, cols] \
            + stats.grand_mean
        g_big_m = g_big_m - stats.row_means[:, None] \
            - stats.col_means[None, cols] + stats.grand_mean
        g_n_big = g_n_big - stats.row_means[rows, None] \
            - stats.col_means[None, :] + stats.grand_mean

    u_t, v_t, lam = lift_blocks(g_nm, g_big_m, g_n_big, r, cfg)
    return KsvdModel(
        b_phi=u_t / np.sqrt(lam)[None, :], b_psi=v_t / np.sqrt(lam)[None, :],
        lam=lam, kernel=spec, compat=compat, compat_side=side,
        centering=stats, train_x=sources.x, train_z=sources.z,
        centered=center, sne_row_denoms=lazy.row_denoms)


def verify_kkt(model: KsvdModel, g_c) -> tuple[float, float, float]:
    """Residuals of the coupled stationarity system plus the constraint gap."""
    g_c = as_matrix(g_c, "G_c")
    if g_c.shape != (model.b_phi.shape[0], model.b_psi.shape[0]):
        raise ShapeMismatchError(
            f"G_c is {g_c.shape}, model expects "
            f"{(model.b_phi.shape[0], model.b_psi.shape[0])}")
    lhs_psi = g_c.T @ (g_c @ model.b_psi)
    rhs_psi = g_c.T @ (model.b_phi * model.lam[None, :])
    residual_psi = float(np.linalg.norm(lhs_psi - rhs_psi)
                         / max(1.0, np.linalg.norm(lhs_psi)))
    lhs_phi = g_c @ (g_c.T @ model.b_phi)
    rhs_phi = g_c @ (model.b_psi * model.lam[None, :])
    residual_phi = float(np.linalg.norm(lhs_phi - rhs_phi)
                         / max(1.0, np.linalg.norm(lhs_phi)))
    gap = model.b_phi.T @ g_c @ model.b_psi - np.eye(model.rank)
    ortho_gap = float(np.abs(gap).max())
    return residual_psi, residual_phi, ortho_gap


def objective(model: KsvdModel, g_c) -> float:
    """Value of the coupled variance objective at the model's coefficients."""
    g_c = as_matrix(g_c, "G_c")
    if g_c.shape != (model.b_phi.shape[0], model.b_psi.shape[0]):
        raise ShapeMismatchError(
            f"G_c is {g_c.shape}, model expects "
            f"{(model.b_phi.shape[0], model.b_psi.shape[0])}")
    return float(0.5 * np.linalg.norm(g_c.T @ model.b_phi) ** 2
                 + 0.5 * np.linalg.norm(g_c @ model.b_psi) ** 2)


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


def _oos_rows(model: KsvdModel, side: str, pts: np.ndarray) -> np.ndarray:
    """Kernel rows of new x points or kernel columns of new z points, centered
    with the training statistics and laid out one row per new point.

    sne columns are divided by the training rows' stored normalizers, so a
    replayed training column gives back the model's own kernel column.
    """
    stats = model.centering if model.centered else None
    if side == "x":
        g = kernels.kernel_matrix(model.kernel,
                                  DataSources(x=pts, z=model.train_z))
        return g if stats is None else kernels.center_oos(g, stats, "row")
    g = LazyKernelSource(model.kernel,
                         DataSources(x=model.train_x, z=pts))._block()
    if model.kernel.family == "sne":
        kernels._sne_normalize(g, model.sne_row_denoms,
                               model.train_z.shape[0])
    return (g if stats is None else kernels.center_oos(g, stats, "column")).T


def transform_oos(model: KsvdModel, new_x=None, new_z=None) -> np.ndarray:
    """Project out-of-sample points into the learned feature space.

    Exactly one of ``new_x`` (a raw row-side point, or a batch of them) and
    ``new_z`` (column-side) must be given. The point is passed through the
    model's compatibility transform when its side was projected during
    training, its kernel row or column against the training samples is
    computed and centered with the stored statistics, and the result is
    projected on the opposite singular vectors with 1/lambda weights, which
    reproduces training embeddings when training points are replayed.
    """
    if (new_x is None) == (new_z is None):
        raise ConfigError("provide exactly one of new_x and new_z")
    side, raw, train, coeff = (
        ("x", new_x, model.train_x, model.b_psi) if new_z is None
        else ("z", new_z, model.train_z, model.b_phi))
    raw = np.asarray(raw, dtype=float)
    pts = as_matrix(raw, "points")
    c = model.compat.c if model.compat_side == side else None
    expect = train.shape[1] if c is None else c.shape[0]
    if pts.shape[1] != expect:
        raise DimensionMismatchError(
            f"new_{side} has length {pts.shape[1]}, expected {expect}")
    rows = _oos_rows(model, side, pts if c is None else pts @ c)
    scores = rows @ coeff / np.sqrt(model.lam)[None, :]
    return scores[0] if raw.ndim == 1 else scores


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
    # A itself is the side the compat transform left untouched
    data = model.train_z.T if model.compat_side == "x" else model.train_x
    if data.min() >= 0 and data.max() <= 255:
        small = data.astype(np.uint8)
        if np.array_equal(small, data):
            data = small
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
    on the same BLAS build.

    Raises ParseError, naming the file, when it is missing, truncated or not
    an npz, lacks a key (sne models need ``sne_row_denoms``), has another
    format number or disagreeing shapes.
    """
    file = Path(path) / MODEL_FILE
    try:
        with np.load(file, allow_pickle=False) as npz:
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
            c=f["compat"], mode=mode, seed=snap["compat.seed"])
        sources, side = _transformed_sources(f["data"], compat)
        stats = CenteringStats(f["row_means"], f["col_means"],
                               float(f["grand_mean"]))
        return KsvdModel(
            b_phi=f["b_phi"], b_psi=f["b_psi"], lam=f["lam"],
            kernel=KernelSpec(snap["kernel.family"], snap["kernel.gamma"]),
            compat=compat, compat_side=side, centering=stats,
            train_x=sources.x, train_z=sources.z, centered=snap["centered"],
            sne_row_denoms=f["sne_row_denoms"]
            if snap["kernel.family"] == "sne" else None)
    except KeyError as exc:
        raise ParseError(f"{file}: missing {exc}") from None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, ConfigError,
            NumericError) as exc:
        raise ParseError(f"{file}: {exc}") from None
