"""Dense real linear algebra: the SVD solver family and CSV output.

Three solvers share the ``SvdResult`` contract:

* ``svd_exact``: the full compact SVD from LAPACK (``np.linalg.svd``);
* ``svd_randomized``: Gaussian sketch with block-Krylov power iterations;
* ``svd_truncated``: Golub-Kahan-Lanczos bidiagonalization with full
  reorthogonalization, extended until the leading triplets converge.

All solvers emit singular values in descending order and canonicalize
signs so the largest-magnitude entry of each left vector is positive.
``svd_exact`` and ``svd_randomized`` drop values at or below
``RANK_TOL * sigma_1``; ``svd_truncated`` drops those at or below its
``tol * sigma_1``, the same ``tol`` that decides its convergence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    RankTooLargeError,
    ShapeMismatchError,
    ZeroMatrixError,
)

# relative cutoff below which svd_exact and svd_randomized drop a singular
# value: sigma_k <= RANK_TOL * sigma_1 counts as zero
RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 C-ordered array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeMismatchError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class SvdResult:
    """Compact SVD factors: ``u`` (rows x r), ``s`` (descending), ``v`` (cols x r)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.size)


def canonicalize_signs(u: np.ndarray, v: np.ndarray | None = None):
    """Flip vector pairs so each u column's largest-magnitude entry is positive.

    Flips are applied jointly to (u_s, v_s) so any product u s v^T is preserved.
    """
    # argmax takes the first of tied magnitudes
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = peaks < 0
    u = np.negative(u, out=u.copy(), where=flip)
    if v is None:
        return u
    return u, np.negative(v, out=v.copy(), where=flip)


def svd_exact(a) -> SvdResult:
    """Compact SVD by LAPACK (``np.linalg.svd``); values <= RANK_TOL * s1
    are dropped."""
    a = as_matrix(a, "A")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("svd_exact requires a non-zero matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    u, v = canonicalize_signs(u[:, keep], vt[keep].T)
    return SvdResult(u=u, s=s[keep], v=v)


def svd_randomized(a, r: int, oversample: int = 10, power_iters: int = 2,
                   seed: int = 0) -> SvdResult:
    """Rank-r randomized SVD: Gaussian sketch plus a block-Krylov subspace.

    The projection basis stacks A*Omega with ``power_iters`` repeated
    applications of (A A^T); the stacked basis gives noticeably better
    alignment per pass than plain subspace iteration at the same parameters.
    Deterministic for a fixed seed.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if r > min(n, m):
        raise RankTooLargeError(f"r={r} exceeds min(rows, cols)={min(n, m)}")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("svd_randomized requires a non-zero matrix")
    rng = np.random.default_rng(seed)
    k = min(r + max(int(oversample), 0), min(n, m))
    omega = rng.standard_normal((m, k))
    y, _ = np.linalg.qr(a @ omega)
    blocks = [y]
    for _ in range(int(power_iters)):
        y, _ = np.linalg.qr(a.T @ y)
        y, _ = np.linalg.qr(a @ y)
        blocks.append(y)
    q, _ = np.linalg.qr(np.hstack(blocks))
    b = q.T @ a
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    keep[r:] = False
    u = (q @ ub)[:, keep]
    v = vt[keep].T
    u, v = canonicalize_signs(u, v)
    return SvdResult(u=u, s=s[keep], v=v)


def svd_truncated(a, r: int, tol: float = 1e-10, seed: int = 0) -> SvdResult:
    """Top-r SVD by Golub-Kahan-Lanczos bidiagonalization.

    The Krylov basis is extended in blocks with full reorthogonalization
    until every requested triplet has residual below ``tol * sigma_1`` (or
    the basis exhausts min(N, M), at which point the factorization is
    complete and exact). ``tol`` = 0 asks for no early stop: the basis
    grows until every residual is at most 1e-15 * sigma_1, the check's
    floor, or exhausts, and every nonzero value is kept. Deterministic: the
    start vector comes from a seeded generator.
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    kdim = min(n, m)
    if r > kdim:
        raise RankTooLargeError(f"r={r} exceeds min(rows, cols)={kdim}")
    scale = np.linalg.norm(a)
    if scale == 0.0:
        raise ZeroMatrixError("svd_truncated requires a non-zero matrix")
    rng = np.random.default_rng(seed)

    # the Krylov bases are kept as rows, so every product with the first k
    # of them reads contiguous memory
    big_u = np.zeros((kdim, n))
    big_v = np.zeros((kdim, m))
    alphas = np.zeros(kdim)
    betas = np.zeros(kdim)

    vec = rng.standard_normal(m)
    vec /= np.linalg.norm(vec)
    big_v[0] = vec
    k = 0
    left_break = False  # A v_k fell inside span(U_k): invariant pair found
    while k < kdim:
        u_new = a @ big_v[k]
        if k > 0:
            u_new -= betas[k - 1] * big_u[k - 1]
        # full reorthogonalization, twice for safety
        for _ in range(2):
            u_new -= big_u[:k].T @ (big_u[:k] @ u_new)
        alpha = np.linalg.norm(u_new)
        if alpha <= 1e-13 * scale:
            if k == 0:
                # start vector landed in the null space; redraw
                vec = rng.standard_normal(m)
                big_v[0] = vec / np.linalg.norm(vec)
                continue
            left_break = True
            break
        u_new /= alpha
        big_u[k] = u_new
        alphas[k] = alpha

        v_new = a.T @ u_new - alpha * big_v[k]
        for _ in range(2):
            v_new -= big_v[: k + 1].T @ (big_v[: k + 1] @ v_new)
        beta = np.linalg.norm(v_new)
        k += 1
        if beta <= 1e-13 * scale:
            betas[k - 1] = 0.0
            break
        betas[k - 1] = beta
        if k < kdim:
            big_v[k] = v_new / beta

        if k >= r:
            bid = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1)
            p, sig, qt = np.linalg.svd(bid)
            # A^T u~_i - s_i v~_i = beta_{k-1} p[k-1, i] v_k
            resid = betas[k - 1] * np.abs(p[-1, : min(r, k)])
            if np.all(resid <= max(tol, 1e-15) * sig[0]):
                break
    if left_break:
        # exact relation A V_{k+1} = U_k B with B rectangular k x (k+1)
        bid = np.zeros((k, k + 1))
        bid[np.arange(k), np.arange(k)] = alphas[:k]
        bid[np.arange(k), np.arange(1, k + 1)] = betas[:k]
        p, sig, qt = np.linalg.svd(bid, full_matrices=False)
        nv = k + 1
    else:
        bid = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1)
        p, sig, qt = np.linalg.svd(bid)
        nv = k
    take = min(r, k)
    s = sig[:take]
    keep = s > tol * sig[0]
    s = s[keep]
    u = big_u[:k].T @ p[:, :take][:, keep]
    v = big_v[:nv].T @ qt[:take].T[:, keep]
    u, v = canonicalize_signs(u, v)
    return SvdResult(u=u, s=s, v=v)


# --- CSV output ---------------------------------------------------------------

def write_matrix_csv(path, a) -> None:
    """Plain CSV, no header, 17 significant digits (lossless round-trip)."""
    a = as_matrix(a, "matrix")
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
