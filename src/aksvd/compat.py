"""Compatibility transforms for rectangular data.

When A is N x M with N != M, the row vectors x_i (length M) and column
vectors z_j (length N) cannot be fed to a kernel directly. A compatibility
matrix C projects one side to the other side's feature length before the
kernel is evaluated. ``projected_side`` picks that side: x (the rows) when
M >= N, z (the columns) otherwise, so the longer side is projected down
and square A with a non-identity mode gets an x-side C. Three
constructions are available:

* a0  pseudo-inverse of A (with a linear kernel this reproduces G = A);
* a1  leading principal directions of the mean-centered data;
* a2  a seeded Gaussian projection, scaled so projected norms stay
      comparable to the originals.

Each constructor builds an x-side C for the matrix it is given: C has
feature_len(x) rows and min(N, M) columns. ``make_compat`` resolves
``auto`` (identity for square A, a0 otherwise) and runs the construction
on A^T for a z-side C; ``apply_compat`` projects the side C names.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeMismatchError, ZeroMatrixError
from . import kernels
from .kernels import DataSources
from .linalg import as_matrix, canonicalize_signs, svd_exact

MODES = ("a0", "a1", "a2", "identity")


@dataclass(frozen=True)
class CompatMatrix:
    c: np.ndarray | None  # None for identity
    mode: str
    seed: int | None = None
    side: str | None = None  # "x" or "z", the side c projects

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown compat mode {self.mode!r}")
        if self.side not in ((None,) if self.c is None else ("x", "z")):
            raise ConfigError(f"compat side must be x or z with a matrix and "
                              f"None without one, got {self.side!r}")


IDENTITY = CompatMatrix(c=None, mode="identity")


def projected_side(shape) -> str:
    """The side of an N x M matrix that C projects: x when M >= N."""
    n, m = shape
    return "x" if m >= n else "z"


def compat_pseudoinverse(a) -> CompatMatrix:
    """C = pinv(A), computed from the exact SVD."""
    a = as_matrix(a, "A")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("cannot take the pseudo-inverse of a zero matrix")
    res = svd_exact(a)
    c = res.v @ (res.u / res.s[None, :]).T
    return CompatMatrix(c=c, mode="a0", side="x")


def compat_pca(a) -> CompatMatrix:
    """Top principal directions of A as projection columns.

    C holds the min(N, M) leading right singular vectors of A after
    column-mean centering, in descending order of singular value, so for
    every k its first k columns C_k make ``A @ C_k @ C_k.T`` the best
    rank-k approximation of the centered A in Frobenius norm. When the
    centered A has lower rank, a seeded orthonormal complement fills the
    remaining columns.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    work = a - a.mean(axis=0, keepdims=True)
    if np.linalg.norm(work) == 0.0:
        raise ZeroMatrixError("data has no variance to project onto")
    c = svd_exact(work).v
    if c.shape[1] < min(n, m):
        # complete the basis: QR of [V | seeded noise] keeps V's columns and
        # fills the remainder with an orthonormal complement, deterministically
        filler = np.random.default_rng(0).standard_normal(
            (m, min(n, m) - c.shape[1]))
        c = np.linalg.qr(np.hstack([c, filler]))[0]
    return CompatMatrix(c=canonicalize_signs(c), mode="a1", side="x")


def compat_random(a, seed: int) -> CompatMatrix:
    """Seeded Gaussian projection to min(N, M) columns.

    Entries are scaled by 1/sqrt(source feature length), so each column of
    C has norm concentrated near 1 and a projected vector lands on the same
    scale as the vectors on the other side of the kernel.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, min(n, m))) / np.sqrt(m)
    return CompatMatrix(c=c, mode="a2", seed=seed, side="x")


def apply_compat(compat: CompatMatrix, sources: DataSources) -> DataSources:
    """Project ``compat.side`` so both feature lengths agree; the projected
    side is stored and measured by ``kernels.prepare_side``, and the other
    side keeps its own form and statistics. C must map the projected
    side's length to the other side's."""
    dx, dz = sources.x.shape[1], sources.z.shape[1]
    if compat.side is None:
        if dx != dz:
            raise ShapeMismatchError(
                f"identity compat needs equal feature lengths, got {dx} and {dz}")
        return sources
    side = compat.side
    want = (dx, dz) if side == "x" else (dz, dx)
    if compat.c.shape != want:
        raise ShapeMismatchError(f"compat matrix is {compat.c.shape}, "
                                 f"projecting the {side} side needs {want}")
    data, stats = kernels.prepare_side(getattr(sources, side) @ compat.c)
    return replace(sources, **{side: data, f"{side}_stats": stats})


def make_compat(a, mode: str = "auto", seed: int | None = None) -> CompatMatrix:
    """Build the compatibility matrix for A in ``mode``: identity, a0, a1,
    a2, or auto (identity for square A, a0 otherwise). The C of a0, a1 and
    a2 projects ``projected_side(A.shape)``; for a z-side C the
    construction runs on A^T.
    """
    square = np.ndim(a) == 2 and len(a) == np.shape(a)[1]
    if mode == "auto":
        mode = "identity" if square else "a0"
    if mode == "identity":  # nothing is computed from A: it stays as it is
        if not square:
            raise ConfigError(
                f"identity compat requires square A, got {np.shape(a)}")
        return IDENTITY
    a = as_matrix(a, "A")
    side = projected_side(a.shape)
    work = a if side == "x" else a.T
    if mode == "a0":
        built = compat_pseudoinverse(work)
    elif mode == "a1":
        built = compat_pca(work)
    elif mode == "a2":
        if seed is None:
            raise ConfigError("compat mode a2 requires a seed")
        built = compat_random(work, seed=seed)
    else:
        raise ConfigError(f"unknown compat mode {mode!r}")
    return replace(built, side=side)
