"""Dense real linear algebra: the SVD solver family and CSV output.

Three solvers share the ``SvdResult`` contract:

* ``svd_exact``: the compact SVD from LAPACK (``np.linalg.svd``); given a
  rank r and min(N, M) of at least ``LANCZOS_MIN``, the top r triplets
  from Golub-Kahan-Lanczos instead, kept when ``is_complete`` proves that
  no larger value is missing from them, and LAPACK's otherwise;
* ``svd_randomized``: Gaussian sketch with block-Krylov power iterations;
* ``svd_truncated``: Golub-Kahan-Lanczos bidiagonalization with full
  reorthogonalization, extended until the leading triplets converge and
  restarted at every breakdown before they do. Without a breakdown it meets
  a repeated value once, so it can miss the value's other copies.

Both Lanczos paths reorthogonalize each new basis vector by classical
Gram-Schmidt against every vector before it, with the DGKS "twice is
enough" rule: a second pass runs only when the first removed more than
half of the vector's squared norm (eta = 1/sqrt(2)). In the recurrence
the first pass removes little more than rounding error, so a second is
rare: none of the 156 vectors of the 300-node two_block sne kernel's
top-8 solve took one.

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

# svd_exact(a, r) grows a Krylov basis of at most this share of min(N, M)
# before it takes LAPACK's full SVD instead, which is cheaper past it
KRYLOV_SHARE = 0.35

# svd_exact(a, r) takes LAPACK's full SVD at once below this min(N, M): on
# centered sne kernels of two_block graphs at r 4 and 8, Lanczos and its
# check won from 160 nodes up, and below 150 often ran out of basis and
# fell back to LAPACK after all
LANCZOS_MIN = 160

# write_matrix_csv formats this many rows at a time, so the text it holds
# stays under 1 MB for an 8-column embedding however many rows it has
CSV_BLOCK_ROWS = 4096

# is_complete accepts a missing singular value s with s^2 up to
# s_r^2 (1 + COMPLETE_MARGIN): a missing copy of s_r itself is no error
COMPLETE_MARGIN = 1e-8


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


def svd_exact(a, r: int | None = None) -> SvdResult:
    """Compact SVD by LAPACK (``np.linalg.svd``); values <= RANK_TOL * s1
    are dropped.

    With ``r``, only the leading min(r, rank) triplets are returned, and
    LAPACK computes the rest only when it must: Golub-Kahan-Lanczos runs to
    its 1e-15 * s1 residual floor, ``is_complete`` checks that no
    singular value it missed lies above the r-th, and the full LAPACK SVD
    is taken instead when min(N, M) is below ``LANCZOS_MIN``, the check
    fails, fewer than r values clear RANK_TOL, or the Krylov basis would
    outgrow ``KRYLOV_SHARE`` of min(N, M).
    """
    a = as_matrix(a, "A")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("svd_exact requires a non-zero matrix")
    kmax = int(KRYLOV_SHARE * min(a.shape))
    if r is not None and r <= kmax and min(a.shape) >= LANCZOS_MIN:
        res = _lanczos(a, r, 0.0, 0, kmax)
        if res is not None and res.s[-1] > RANK_TOL * res.s[0] \
                and is_complete(a, res):
            return res
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    if r is not None:
        keep[r:] = False
    u, v = canonicalize_signs(u[:, keep], vt[keep].T)
    return SvdResult(u=u, s=s[keep], v=v)


def is_complete(a: np.ndarray, res: SvdResult) -> bool:
    """Whether the singular triplets ``res`` of ``a`` hold every singular
    value above their smallest, s_r, up to ``COMPLETE_MARGIN`` on s_r^2.

    The values missing from ``res`` are those of the Gram matrix deflated
    by it, A A^T - U S^2 U^T (A^T A - V S^2 V^T when A is tall), so a
    Cholesky factorization of s_r^2 (1 + COMPLETE_MARGIN) I minus it exists
    exactly when none of them exceeds s_r by more than the margin.
    """
    wide = a.shape[0] <= a.shape[1]
    gram = a @ a.T if wide else a.T @ a
    side = (res.u if wide else res.v) * res.s
    gram -= side @ side.T
    np.negative(gram, out=gram)
    gram.flat[::gram.shape[0] + 1] += (1.0 + COMPLETE_MARGIN) * res.s[-1] ** 2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


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

    The Krylov basis grows with full reorthogonalization (classical
    Gram-Schmidt, a second pass only when the first removed more than half
    of the new vector's squared norm) until every requested triplet has
    residual below ``tol * sigma_1``, or until it
    spans min(N, M) dimensions. A breakdown (a new basis vector of zero
    norm) ends an invariant pair of subspaces; when it comes before the r
    triplets have converged, the recurrence restarts from a fresh seeded
    vector orthogonal to the basis, so repeated values are found one copy
    per breakdown. Without a breakdown, a single start vector meets each
    repeated value once, and the result can miss its other copies.
    ``tol`` = 0 asks for no early stop: the basis grows until every
    residual is at most 1e-15 * sigma_1, the check's floor, and every
    nonzero value is kept. Deterministic: the start and restart vectors
    come from a seeded generator.
    """
    a = as_matrix(a, "A")
    kdim = min(a.shape)
    if r > kdim:
        raise RankTooLargeError(f"r={r} exceeds min(rows, cols)={kdim}")
    if np.linalg.norm(a) == 0.0:
        raise ZeroMatrixError("svd_truncated requires a non-zero matrix")
    res = _lanczos(a, r, tol, seed, kdim)
    keep = res.s > tol * res.s[0]
    return SvdResult(u=res.u[:, keep], s=res.s[keep], v=res.v[:, keep])


def _lanczos(a: np.ndarray, r: int, tol: float, seed: int,
             kmax: int) -> SvdResult | None:
    """The top r Ritz triplets of a Golub-Kahan-Lanczos basis of at most
    ``kmax`` vectors a side, signs canonical; None when the basis reaches
    ``kmax`` before every residual is at most max(tol, 1e-15) * sigma_1.

    Convergence is checked at r basis vectors, then every time the basis
    has grown by a quarter, and at every breakdown.
    """
    # run on the tall orientation: its right basis exhausts first, and a
    # basis spanning all of R^M leaves no residual
    flip = a.shape[0] < a.shape[1]
    if flip:
        a = a.T
    n, m = a.shape
    rng = np.random.default_rng(seed)
    floor = 1e-13 * np.linalg.norm(a)
    # the Krylov bases are kept as rows, so every product with the first k
    # of them reads contiguous memory; V holds one vector more than U
    big_u = np.zeros((kmax, n))
    big_v = np.zeros((min(kmax + 1, m), m))
    alphas = np.zeros(kmax)
    betas = np.zeros(kmax)

    vec = rng.standard_normal(m)
    big_v[0] = vec / np.linalg.norm(vec)
    k, check_at = 0, r
    while True:
        w = a @ big_v[k]
        if k > 0:
            w -= betas[k - 1] * big_u[k - 1]
        alphas[k] = _extend(big_u, k, w, floor, rng)
        w = a.T @ big_u[k]
        w -= alphas[k] * big_v[k]
        k += 1
        betas[k - 1] = _extend(big_v, k, w, floor, rng)
        # a fresh vector whose first product breaks down as well proves
        # that what the basis leaves out is null: every nonzero value is in
        complete = k == m or alphas[k - 1] == betas[k - 1] == 0.0
        if not complete and (k < r or (k < check_at and k < kmax
                                       and betas[k - 1] > 0.0)):
            continue
        bid = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1)
        p, sig, qt = np.linalg.svd(bid)
        # A^T u~_i - s_i v~_i = beta_{k-1} p[k-1, i] v_k; a top-r Ritz value
        # at the breakdown floor is a null direction the basis met, not a
        # converged triplet, so the basis grows on (after a breakdown, from
        # its fresh vector) until r values converge or the rest is null
        resid = betas[k - 1] * np.abs(p[-1, :r])
        if complete or (np.all(resid <= max(tol, 1e-15) * sig[0])
                        and sig[r - 1] > floor):
            break
        if k == kmax:
            return None
        check_at = k + max(1, k // 4)
    u = big_u[:k].T @ p[:, :r]
    v = big_v[:k].T @ qt[:r].T
    if flip:
        u, v = v, u
    u, v = canonicalize_signs(u, v)
    return SvdResult(u=u, s=sig[:r], v=v)


def _extend(basis: np.ndarray, k: int, w: np.ndarray, floor: float,
            rng: np.random.Generator) -> float:
    """Store ``w``, orthonormalized against the first k rows of ``basis``,
    as row k and return its norm before scaling.

    A norm at or below ``floor`` is a breakdown: row k becomes a fresh
    seeded unit vector orthogonal to the rows before it, and 0 is
    returned. A basis with no row k spans its space, and 0 is returned.
    """
    if k == basis.shape[0]:
        return 0.0
    norm = _orthogonalize(w, basis[:k])
    if norm <= floor:
        w = rng.standard_normal(basis.shape[1])
        norm = _orthogonalize(w, basis[:k])
        basis[k] = w / norm
        return 0.0
    basis[k] = w / norm
    return norm


def _orthogonalize(w: np.ndarray, rows: np.ndarray) -> float:
    """Remove from ``w``, in place, its components along the orthonormal
    ``rows`` and return its norm after.

    One pass of classical Gram-Schmidt, and a second only when the first
    removed more than half of w's squared norm: by the DGKS criterion
    (eta = 1/sqrt(2)), a pass that keeps more leaves w orthogonal to
    working precision, and twice is enough when one does not.
    """
    before = w @ w
    w -= rows.T @ (rows @ w)
    after = w @ w
    if after < 0.5 * before:
        w -= rows.T @ (rows @ w)
        after = w @ w
    return np.sqrt(after)


# --- CSV output ---------------------------------------------------------------

def write_matrix_csv(path, a) -> None:
    """Plain CSV, no header, 17 significant digits (lossless round-trip).

    Writes the bytes ``np.savetxt(path, a, fmt="%.17g", delimiter=",")``
    writes, but formats a block of up to ``CSV_BLOCK_ROWS`` rows with one
    ``%`` and one write instead of one of each per row.
    """
    a = as_matrix(a, "matrix")
    row = ",".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w") as fh:
        for start in range(0, a.shape[0], CSV_BLOCK_ROWS):
            block = a[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
