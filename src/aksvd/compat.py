"""Compatibility transforms for rectangular data.

When A is N x M with N != M, the row vectors x_i (length M) and column
vectors z_j (length N) cannot be fed to a kernel directly. A compatibility
matrix C projects the longer side down to the shorter one before the
kernel is evaluated. Three constructions are available:

* a0  pseudo-inverse of A (with a linear kernel this reproduces G = A);
* a1  leading principal directions of the mean-centered data;
* a2  a seeded Gaussian projection, scaled so projected norms stay
      comparable to the originals.

Each constructor builds C for the "project x" orientation (C has shape
feature_len(x) by target). ``make_compat`` handles the mirrored case
N > M by running the same construction on A^T, producing a z-side C.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    RankTooLargeError,
    ShapeMismatchError,
    ZeroMatrixError,
)
from .kernels import DataSources, stored
from .linalg import as_matrix, canonicalize_signs, svd_exact

MODES = ("a0", "a1", "a2", "identity")


@dataclass(frozen=True)
class CompatMatrix:
    c: np.ndarray | None  # None for identity
    mode: str
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown compat mode {self.mode!r}")


IDENTITY = CompatMatrix(c=None, mode="identity")


def compat_pseudoinverse(a) -> CompatMatrix:
    """C = pinv(A), computed from the exact SVD."""
    a = as_matrix(a, "A")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("cannot take the pseudo-inverse of a zero matrix")
    res = svd_exact(a)
    c = res.v @ (res.u / res.s[None, :]).T
    return CompatMatrix(c=c, mode="a0")


def compat_pca(a, target_dim: int | None = None, center: bool = True) -> CompatMatrix:
    """Top principal directions of A as projection columns.

    C holds the leading ``target_dim`` right singular vectors of A after
    column-mean centering (centering is the recorded default; pass
    center=False for the raw directions). ``A @ C @ C.T`` is then the best
    rank-``target_dim`` approximation of the centered A in Frobenius norm.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if target_dim is None:
        target_dim = min(n, m)
    if target_dim > min(n, m):
        raise RankTooLargeError(
            f"target_dim={target_dim} exceeds min(N, M)={min(n, m)}")
    work = a - a.mean(axis=0, keepdims=True) if center else a
    if np.linalg.norm(work) == 0.0:
        raise ZeroMatrixError("data has no variance to project onto")
    res = svd_exact(work)
    if res.rank < target_dim:
        # complete the basis: QR of [V | seeded noise] keeps V's columns and
        # fills the remainder with an orthonormal complement, deterministically
        filler = np.random.default_rng(0).standard_normal((m, target_dim - res.rank))
        q = np.linalg.qr(np.hstack([res.v, filler]))[0]
        c = q[:, :target_dim]
    else:
        c = res.v[:, :target_dim]
    return CompatMatrix(c=canonicalize_signs(c), mode="a1")


def compat_random(a, seed: int, target_dim: int | None = None) -> CompatMatrix:
    """Seeded Gaussian projection.

    Entries are scaled by 1/sqrt(source feature length), so each column of
    C has norm concentrated near 1 and a projected vector lands on the same
    scale as the vectors on the other side of the kernel.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if target_dim is None:
        target_dim = min(n, m)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, target_dim)) / np.sqrt(m)
    return CompatMatrix(c=c, mode="a2", seed=seed)


def apply_compat(compat: CompatMatrix, sources: DataSources) -> DataSources:
    """Project whichever side is longer so both feature lengths agree; the
    projected side is returned in stored form (``kernels.stored``)."""
    dx = sources.x.shape[1]
    dz = sources.z.shape[1]
    if compat.mode == "identity" or compat.c is None:
        if dx != dz:
            raise ShapeMismatchError(
                f"identity compat needs equal feature lengths, got {dx} and {dz}")
        return sources
    c = compat.c
    if dx >= dz:
        if c.shape[0] != dx:
            raise ShapeMismatchError(
                f"compat matrix has {c.shape[0]} rows, row data needs {dx}")
        new_x = stored(sources.x @ c)
        if new_x.shape[1] != dz and dx != dz:
            raise ShapeMismatchError(
                f"compat maps to length {new_x.shape[1]}, column data has {dz}")
        return DataSources(x=new_x, z=sources.z)
    if c.shape[0] != dz:
        raise ShapeMismatchError(
            f"compat matrix has {c.shape[0]} rows, column data needs {dz}")
    new_z = stored(sources.z @ c)
    if new_z.shape[1] != dx:
        raise ShapeMismatchError(
            f"compat maps to length {new_z.shape[1]}, row data has {dx}")
    return DataSources(x=sources.x, z=new_z)


def make_compat(a, mode: str, seed: int | None = None,
                target_dim: int | None = None, center: bool = True) -> CompatMatrix:
    """Build the compatibility matrix appropriate for A's orientation.

    Square A with a non-identity mode still gets an x-side transform (with
    a0 and a linear kernel that choice reproduces G = A). For N > M the
    construction runs on A^T so the projection applies to the z side.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if mode == "identity":
        if n != m:
            raise ConfigError(
                f"identity compat requires square A, got {n} x {m}")
        return IDENTITY
    work = a if m >= n else a.T
    if mode == "a0":
        return compat_pseudoinverse(work)
    if mode == "a1":
        return compat_pca(work, target_dim=target_dim, center=center)
    if mode == "a2":
        if seed is None:
            raise ConfigError("compat mode a2 requires a seed")
        return compat_random(work, seed=seed, target_dim=target_dim)
    raise ConfigError(f"unknown compat mode {mode!r}")
