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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .compat import IDENTITY, CompatMatrix, apply_compat, make_compat
from .errors import (
    ConfigError,
    DegenerateKernelWarning,
    DimensionMismatchError,
    RankTooLargeError,
    ShapeMismatchError,
)
from .kernels import CenteringStats, DataSources, KernelSpec, LazyKernelSource
from .linalg import (
    as_matrix,
    read_matrix_csv,
    svd_exact,
    svd_randomized,
    svd_truncated,
    write_matrix_csv,
)
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
    train_x: np.ndarray  # transformed row data actually fed to the kernel
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


def _kernel_cols(model: KsvdModel, points: np.ndarray) -> np.ndarray:
    """Kernel values of training x rows against new z points (one column each).

    sne entries are divided by the training rows' stored normalizers, so a
    replayed training column gives back the model's own kernel column.
    """
    g = kernels._raw_block(model.kernel, model.train_x, points)
    if model.kernel.family == "sne":
        kernels._sne_normalize(g, model.sne_row_denoms,
                               model.train_z.shape[0])
    return g


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
    raw = np.asarray(new_x if new_x is not None else new_z, dtype=float)
    single = raw.ndim == 1
    pts = as_matrix(raw, "points")

    if new_x is not None:
        if model.compat_side == "x":
            expect = model.compat.c.shape[0]
            if pts.shape[1] != expect:
                raise DimensionMismatchError(
                    f"new_x has length {pts.shape[1]}, expected {expect}")
            pts = pts @ model.compat.c
        elif pts.shape[1] != model.train_x.shape[1]:
            raise DimensionMismatchError(
                f"new_x has length {pts.shape[1]}, expected "
                f"{model.train_x.shape[1]}")
        rows = kernels.kernel_matrix(model.kernel,
                                     DataSources(x=pts, z=model.train_z))
        if model.centered:
            rows = kernels.center_oos(rows, model.centering, "row")
        scores = rows @ model.b_psi / np.sqrt(model.lam)[None, :]
    else:
        if model.compat_side == "z":
            expect = model.compat.c.shape[0]
            if pts.shape[1] != expect:
                raise DimensionMismatchError(
                    f"new_z has length {pts.shape[1]}, expected {expect}")
            pts = pts @ model.compat.c
        elif pts.shape[1] != model.train_z.shape[1]:
            raise DimensionMismatchError(
                f"new_z has length {pts.shape[1]}, expected "
                f"{model.train_z.shape[1]}")
        cols = _kernel_cols(model, pts)
        if model.centered:
            cols = kernels.center_oos(cols, model.centering, "column")
        scores = cols.T @ model.b_phi / np.sqrt(model.lam)[None, :]
    return scores[0] if single else scores


# --- persistence --------------------------------------------------------------

def save_model(model: KsvdModel, path) -> None:
    """Write the model as a directory of CSV factors plus a JSON snapshot."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(path / "B_phi.csv", model.b_phi)
    write_matrix_csv(path / "B_psi.csv", model.b_psi)
    write_matrix_csv(path / "lambda.csv", model.lam.reshape(-1, 1))
    with open(path / "centering.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(f"{v:.17g}" for v in model.centering.row_means) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in model.centering.col_means) + "\n")
        fh.write(f"{model.centering.grand_mean:.17g}\n")
    write_matrix_csv(path / "train_x.csv", model.train_x)
    write_matrix_csv(path / "train_z.csv", model.train_z)
    if model.compat.c is not None:
        write_matrix_csv(path / "compat.csv", model.compat.c)
    if model.sne_row_denoms is not None:
        write_matrix_csv(path / "sne_denoms.csv",
                         np.asarray(model.sne_row_denoms).reshape(-1, 1))
    snapshot = {
        "kernel.family": model.kernel.family,
        "kernel.gamma": model.kernel.gamma,
        "compat.mode": model.compat.mode,
        "compat.seed": model.compat.seed,
        "compat_side": model.compat_side,
        "centered": model.centered,
        "rank": model.rank,
    }
    (path / "config.json").write_text(json.dumps(snapshot, indent=2) + "\n",
                                      encoding="utf-8")


def load_model(path) -> KsvdModel:
    path = Path(path)
    snap = json.loads((path / "config.json").read_text(encoding="utf-8"))
    b_phi = read_matrix_csv(path / "B_phi.csv")
    b_psi = read_matrix_csv(path / "B_psi.csv")
    lam = read_matrix_csv(path / "lambda.csv").ravel()
    lines = (path / "centering.csv").read_text(encoding="utf-8").splitlines()
    stats = CenteringStats(
        row_means=np.array([float(v) for v in lines[0].split(",")]),
        col_means=np.array([float(v) for v in lines[1].split(",")]),
        grand_mean=float(lines[2]))
    train_x = read_matrix_csv(path / "train_x.csv")
    train_z = read_matrix_csv(path / "train_z.csv")
    compat_file = path / "compat.csv"
    if compat_file.exists():
        compat = CompatMatrix(c=read_matrix_csv(compat_file),
                              mode=snap["compat.mode"],
                              seed=snap.get("compat.seed"))
    else:
        compat = IDENTITY
    denom_file = path / "sne_denoms.csv"
    denoms = read_matrix_csv(denom_file).ravel() if denom_file.exists() else None
    spec = KernelSpec(family=snap["kernel.family"], gamma=snap["kernel.gamma"])
    return KsvdModel(b_phi=b_phi, b_psi=b_psi, lam=lam, kernel=spec,
                     compat=compat, compat_side=snap.get("compat_side"),
                     centering=stats, train_x=train_x, train_z=train_z,
                     centered=bool(snap.get("centered", True)),
                     sne_row_denoms=denoms)
