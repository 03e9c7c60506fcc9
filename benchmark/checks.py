"""The benchmark's own numerics, written against numpy alone.

Nothing here imports aksvd: the kernel, the centering, the accuracy metric
and the projection formula are transcribed from their definitions so that
the program's outputs are checked against an independent computation.
Every ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""
from __future__ import annotations

import numpy as np

_BLOCK = 512


def bandwidth(a: np.ndarray, scale: float) -> float:
    """scale * sqrt(feature_dim * var(A)), as kernels.default_gamma has it."""
    return scale * float(np.sqrt(a.shape[1] * a.var()))


def rbf_numerators(x: np.ndarray, z: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-||x_i - z_j||^2 / gamma^2) for every row x_i against every z_j."""
    zz = np.einsum("ij,ij->i", z, z)
    out = np.empty((x.shape[0], z.shape[0]))
    for start in range(0, x.shape[0], _BLOCK):
        xb = x[start:start + _BLOCK]
        xx = np.einsum("ij,ij->i", xb, xb)
        d = xx[:, None] - 2.0 * (xb @ z.T) + zz[None, :]
        np.maximum(d, 0.0, out=d)
        out[start:start + xb.shape[0]] = np.exp(-d / (gamma * gamma))
    return out


def sne_kernel(a: np.ndarray, gamma: float) -> np.ndarray:
    """G[i, j] = kappa(x_i, z_j) with x_i row i of A and z_j column j of A.

    Each row is normalized over the whole column data set, so it sums to one.
    """
    num = rbf_numerators(a, np.ascontiguousarray(a.T), gamma)
    num /= num.sum(axis=1, keepdims=True)
    return num


def double_center(g: np.ndarray):
    """(G_c, row means, column means, grand mean)."""
    rows = g.mean(axis=1)
    cols = g.mean(axis=0)
    grand = float(g.mean())
    return g - rows[:, None] - cols[None, :] + grand, rows, cols, grand


def eta(u_t, v_t, ref_u, ref_s, ref_v, r: int) -> float:
    """Weighted misalignment sum_i s_i (1 - |cos u_i|) / r + the same for v.

    The approximation's columns need not be unit length; signs do not matter.
    """
    w = ref_s[:r]
    u_t, v_t = u_t[:, :r], v_t[:, :r]
    cu = np.abs((ref_u[:, :r] * u_t).sum(0)) / np.linalg.norm(u_t, axis=0)
    cv = np.abs((ref_v[:, :r] * v_t).sum(0)) / np.linalg.norm(v_t, axis=0)
    cu = np.minimum(cu, 1.0)  # rounding can push a cosine a hair above 1
    cv = np.minimum(cv, 1.0)
    return float((w * (1.0 - cu)).sum() / r + (w * (1.0 - cv)).sum() / r)


# --- extract-dense ---------------------------------------------------------

def check_extract(lam, left, right, ref_s, g_c, rel_tol=1e-8, res_tol=1e-8):
    """Written triplets against the centered kernel's reference spectrum."""
    fails = []
    lam = np.ravel(lam)
    r = lam.size
    if left.shape != (g_c.shape[0], r) or right.shape != (g_c.shape[1], r):
        return [f"embedding shapes {left.shape}, {right.shape} do not fit "
                f"{r} values of a {g_c.shape} kernel"]
    rel = np.abs(lam / ref_s[:r] - 1.0)
    if not rel.max() <= rel_tol:
        fails.append(f"lambda differs from the reference by {rel.max():.3e} "
                     "relative")
    s1 = ref_s[0]
    res_v = np.linalg.norm(g_c @ right - left * lam[None, :], axis=0).max()
    res_u = np.linalg.norm(g_c.T @ left - right * lam[None, :], axis=0).max()
    if not max(res_u, res_v) <= res_tol * s1:
        fails.append(f"triplet residual {max(res_u, res_v) / s1:.3e} * s1 "
                     f"exceeds {res_tol:g} * s1")
    return fails


def check_same(name, got, want):
    """Exact equality, element for element."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(got, want):
        return [f"{name}: differs by up to {np.abs(got - want).max():.3e}"]
    return []


# --- nystrom-grow ----------------------------------------------------------

def check_eta(u_t, v_t, ref_u, ref_s, ref_v, epsilon, r):
    """The solver's stopping rule, recomputed against the reference."""
    e = eta(u_t, v_t, ref_u, ref_s, ref_v, r)
    return [] if e <= epsilon else [f"eta {e:.4e} above epsilon {epsilon:g}"]


def check_scale(lam_t, ref_s, tol=0.10):
    """The top singular value, which eta cannot see, against the reference."""
    fold = float(lam_t[0] / ref_s[0])
    if abs(fold - 1.0) <= tol:
        return []
    return [f"lambda_1 is {fold:.3f} x the reference sigma_1"]


# --- oos-persist -----------------------------------------------------------

def check_close(name, got, want, atol=1e-8):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want).max()
    if not err <= atol:
        return [f"{name}: off by {err:.3e} (tolerance {atol:g})"]
    return []


def project(k_c: np.ndarray, b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Out-of-sample features from centered kernel values: k_c B Lam^-1/2."""
    return k_c @ b / np.sqrt(lam)[None, :]
