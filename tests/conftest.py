import numpy as np
import pytest


def make_matrix(n, m, seed, cond=None):
    """Seeded random matrix; if cond is given, singular values are spread
    log-uniformly over [1/cond, 1] so conditioning is controlled."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    if cond is None:
        return a
    k = min(n, m)
    q1, _ = np.linalg.qr(rng.standard_normal((n, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, k)))
    s = np.logspace(0, -np.log10(cond), k)
    return q1 @ np.diag(s) @ q2.T


def verify_kkt(model, g_c):
    """Residuals of a model's coupled stationarity system on its centered
    kernel ``g_c``, plus the constraint gap, max |B_phi^T G_c B_psi - I|."""
    from aksvd.errors import ShapeMismatchError
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
    return residual_psi, residual_phi, float(np.abs(gap).max())


def eta_oracle(u_ref, s_ref, v_ref, u_apx, v_apx, r):
    """Independent transcription of the weighted misalignment metric."""
    total = 0.0
    for i in range(r):
        cu = abs(u_ref[:, i] @ u_apx[:, i]) / np.linalg.norm(u_apx[:, i])
        cv = abs(v_ref[:, i] @ v_apx[:, i]) / np.linalg.norm(v_apx[:, i])
        total += s_ref[i] * (1.0 - min(cu, 1.0)) + s_ref[i] * (1.0 - min(cv, 1.0))
    return total / r


def assert_close_to_largest(got, want, rel):
    """Every entry within ``rel`` times the largest magnitude in ``want``."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rel * np.abs(want).max())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def dense_lift(g_nm, g_big_m, g_n_big, r):
    """The Nystrom lift as a dense formula on ``np.asarray`` of the blocks:
    with (u_s, s, v_s) the top-r SVD of G_nm, U~ = G_Nm v_s diag(1/s) and
    V~ = G_nM^T u_s diag(1/s), unit columns, canonical signs, and s scaled
    by sqrt(N M / (n m))."""
    from aksvd import linalg
    g_nm = np.asarray(g_nm)
    g_big_m, g_n_big = np.asarray(g_big_m), np.asarray(g_n_big)
    small = linalg.svd_exact(g_nm, r)
    u = g_big_m @ (small.v / small.s[None, :])
    v = g_n_big.T @ (small.u / small.s[None, :])
    u, v = linalg.canonicalize_signs(u / np.linalg.norm(u, axis=0),
                                     v / np.linalg.norm(v, axis=0))
    (n, m), big_n, big_m = g_nm.shape, g_big_m.shape[0], g_n_big.shape[1]
    return u, v, small.s * np.sqrt(big_n * big_m / (n * m))
