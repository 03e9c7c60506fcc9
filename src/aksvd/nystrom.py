"""Nystrom approximation of singular triplets from subsampled kernel blocks.

The asymmetric path samples n rows and m columns of the kernel matrix,
solves a small rank-r SVD on the intersection block, and lifts the factors
back to full length with the sampled cross blocks. It never needs the
full matrix, which is where the speedup over direct solvers comes from.

A symmetric baseline (the classical Nystrom eigen-approximation, applied
to the two Gram matrices) and the eta alignment metric used to compare
solvers are also provided, together with a budget-growth driver that
raises the sample count, each later sample drawn by the leverage of the
last and lifted with importance weights, until a target eta is met.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    NonFiniteError,
    RankTooLargeError,
    SampleTooLargeError,
    SubproblemRankDeficientWarning,
    ToleranceUnreachableError,
    ZeroColumnError,
)
from .kernels import as_block, as_kernel_source, warns_dead_rows
from .linalg import (
    SvdResult,
    as_matrix,
    canonicalize_signs,
    svd_exact,
    svd_randomized,
    svd_truncated,
)


@dataclass(frozen=True)
class NystromConfig:
    """Sampling and subproblem knobs for the Nystrom solvers.

    ``m_growth`` is the factor by which ``solve_to_tolerance`` raises the
    column budget per attempt; the budget stops at M, every column.
    """

    r: int
    n: int | None = None        # row samples; None derives it from m
    m: int | None = None        # column samples; None -> max(4r, 32), capped
    seed: int = 0
    m_growth: float = 2.0
    subproblem: str = "rsvd"    # asym subproblem: "rsvd" (default) or "exact"
    oversample: int = 10
    power_iters: int = 2

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError(f"rank must be >= 1, got {self.r}")
        for name, low in (("n", 1), ("m", 1), ("oversample", 0),
                          ("power_iters", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not 1.0 < self.m_growth <= 4.0:
            raise ConfigError(
                f"m_growth must lie in (1, 4], got {self.m_growth}")
        if self.subproblem not in ("rsvd", "exact"):
            raise ConfigError(f"unknown subproblem solver {self.subproblem!r}")


@dataclass(frozen=True)
class NystromResult:
    u_tilde: np.ndarray
    v_tilde: np.ndarray
    lambda_tilde: np.ndarray
    row_indices: np.ndarray
    col_indices: np.ndarray


def resolve_sample_sizes(shape, cfg: NystromConfig) -> tuple[int, int]:
    """Concrete (n, m) for a matrix shape: coupled so n/m tracks N/M."""
    big_n, big_m = shape
    m = cfg.m
    if m is None:
        m = min(max(4 * cfg.r, 32), big_m)
    n = cfg.n
    if n is None:
        if big_n == big_m:
            n = m
        else:
            n = int(round(m * big_n / big_m))
        n = min(max(n, cfg.r), big_n)
    if n > big_n or m > big_m:
        raise SampleTooLargeError(
            f"requested n={n}, m={m} from a {big_n} x {big_m} matrix")
    if cfg.r > min(n, m):
        raise SampleTooLargeError(
            f"rank {cfg.r} exceeds sample budget min(n={n}, m={m})")
    return n, m


def sample_indices(shape, cfg: NystromConfig):
    """Sorted row/column index sets, uniform without replacement, seeded."""
    n, m = resolve_sample_sizes(shape, cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = np.sort(rng.choice(shape[0], size=n, replace=False))
    cols = np.sort(rng.choice(shape[1], size=m, replace=False))
    return rows, cols


def _small_svd(g_nm: np.ndarray, cfg: NystromConfig) -> SvdResult:
    if cfg.subproblem == "exact":
        res = svd_exact(g_nm)
        take = min(cfg.r, res.rank)
        return SvdResult(u=res.u[:, :take], s=res.s[:take], v=res.v[:, :take])
    return svd_randomized(g_nm, cfg.r, oversample=cfg.oversample,
                          power_iters=cfg.power_iters, seed=cfg.seed)


def _unit_columns(a: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(a, axis=0)
    if not np.isfinite(norms).all():
        raise NonFiniteError(f"{what} contains NaN or Inf")
    if np.any(norms == 0.0):
        raise ZeroColumnError(f"{what} produced an all-zero column")
    return a / norms[None, :]


def lift_blocks(g_nm, g_big_m, g_n_big, r: int, cfg: NystromConfig,
                weights=None):
    """Core reconstruction from sampled blocks.

    ``weights`` is None for a uniform sample, or the pair of Horvitz-Thompson
    weights 1/pi of the sampled rows and columns (in block order) for a
    sample drawn with unequal inclusion probabilities pi. With D_r and D_c
    the diagonals of their square roots, the rank-r SVD (u_s, s, v_s) of the
    small block D_r G_nm D_c gives the lift U_tilde = G_Nm W and
    V_tilde = G_nM^T W' with W = D_c v_s diag(1/s) and
    W' = D_r u_s diag(1/s); a uniform sample has D_r and D_c equal to the
    identity. G_Nm and G_nM are ``kernels.ChunkedBlock``s as
    ``sample_blocks`` returns them (plain arrays are checked and wrapped as
    one-chunk blocks), so both products are sums of thin products over the
    raw kernel chunks: the sampled order, the weights, the sne row
    normalizers and any centering the blocks carry are applied to W, W' and
    the r-column results, never to the chunks.

    Returns unit-normalized (U_tilde, V_tilde) with canonical signs and the
    singular value estimates. A uniform sample multiplies s by
    sqrt(N*M / (n*m)), which reproduces the exact values at full sampling.
    A weighted sample takes the Horvitz-Thompson Rayleigh quotient, the sum
    over sampled columns j of (u_k^T G[:, j]) v_jk / pi_j, at the cost of
    one more thin product G_Nm^T U_tilde.
    """
    g_nm = as_matrix(g_nm, "G_nm")
    g_big_m = as_block(g_big_m, "G_Nm")
    g_n_big = as_block(g_n_big, "G_nM")
    n, m = g_nm.shape
    big_n = g_big_m.shape[0]
    big_m = g_n_big.shape[1]
    # unit weights scale nothing, bit for bit
    d_r, d_c = ((np.ones(n), np.ones(m)) if weights is None
                else (np.sqrt(w) for w in weights))
    small = _small_svd(d_r[:, None] * g_nm * d_c[None, :], cfg)
    if small.rank < r:
        warnings.warn(
            f"sampled block has numerical rank {small.rank} < requested {r}; "
            "result truncated", SubproblemRankDeficientWarning, stacklevel=3)
    w_x = d_c[:, None] * small.v / small.s[None, :]
    w_z = d_r[:, None] * small.u / small.s[None, :]
    u_t = _unit_columns(g_big_m @ w_x, "U_tilde")
    v_raw = g_n_big.T @ w_z
    v_t = _unit_columns(v_raw, "V_tilde")
    if weights is None:
        lam = small.s * np.sqrt(big_n * big_m / (n * m))
    else:
        # V_tilde on the sampled columns: G_nm is G_nM's block of them
        v_c = (g_nm.T @ w_z) / np.linalg.norm(v_raw, axis=0)[None, :]
        lam = np.einsum("jk,jk,j->k", g_big_m.T @ u_t, v_c, weights[1])
    u_t, v_t = canonicalize_signs(u_t, v_t)
    return u_t, v_t, lam


def asym_nystrom(g_source, cfg: NystromConfig, indices=None,
                 weights=None) -> NystromResult:
    """Approximate the top-r singular triplets from sampled blocks.

    ``indices`` is the (rows, columns) pair to sample; by default it is
    drawn by ``sample_indices`` from the config. ``weights`` is None for a
    uniform sample, or the Horvitz-Thompson weights 1/pi of those rows and
    columns (see ``lift_blocks``); the column weights also make the sne
    row normalizers.
    """
    source = as_kernel_source(g_source)
    rows, cols = (sample_indices(source.shape, cfg) if indices is None
                  else indices)
    g_nm, g_big_m, g_n_big = source.sample_blocks(
        rows, cols, None if weights is None else weights[1])
    u_t, v_t, lam = lift_blocks(g_nm, g_big_m, g_n_big, cfg.r, cfg, weights)
    return NystromResult(u_tilde=u_t, v_tilde=v_t, lambda_tilde=lam,
                         row_indices=rows, col_indices=cols)


def sym_nystrom(k_source, cfg: NystromConfig):
    """Classical Nystrom eigen-approximation of a symmetric matrix.

    Samples n of the N landmarks, solves the small n x n eigenproblem with
    LAPACK (``np.linalg.eigh``), keeps the top r pairs, and lifts: the
    eigenvalue estimate scales by N/n and the lifted vectors are
    unit-normalized so they can be compared directly with singular vectors
    from the asymmetric path. ``cfg.subproblem`` does not apply here.
    """
    source = as_kernel_source(k_source)
    big_n, big_m = source.shape
    if big_n != big_m:
        raise SampleTooLargeError("sym_nystrom needs a square symmetric source")
    sq_cfg = replace(cfg, n=cfg.n if cfg.n is not None else cfg.m,
                     m=cfg.m if cfg.m is not None else cfg.n)
    rows, _ = sample_indices((big_n, big_n), sq_cfg)
    k_nn, k_big_n, _ = source.sample_blocks(rows, rows)
    k_nn = 0.5 * (k_nn + k_nn.T)  # symmetrize against sampling round-off
    n = rows.size
    vals_all, vecs_all = np.linalg.eigh(k_nn)
    order = np.argsort(-vals_all)[: cfg.r]
    vals, vecs = vals_all[order], canonicalize_signs(vecs_all[:, order])
    positive = vals > 1e-12 * max(vals.max(), 1e-300)
    if positive.sum() < cfg.r:
        warnings.warn(
            f"sampled block has {int(positive.sum())} positive eigenvalues "
            f"< requested {cfg.r}; result truncated",
            SubproblemRankDeficientWarning, stacklevel=2)
    vals = vals[positive]
    vecs = vecs[:, positive]
    u_t = _unit_columns(k_big_n @ (vecs / vals[None, :]), "U_tilde")
    u_t = canonicalize_signs(u_t)
    lam = vals * (big_n / n)
    return NystromResult(u_tilde=u_t, v_tilde=u_t, lambda_tilde=lam,
                         row_indices=rows, col_indices=rows)


def eta_accuracy(u_tilde, v_tilde, reference: SvdResult, r: int) -> float:
    """Weighted misalignment of approximate singular vectors vs a reference.

    For each of the top r pairs the cosine between the approximation and
    the reference vector (both sides) is folded into
    sum_i w_i (1 - |cos_i|) / r with w_i the reference singular values.
    Sign flips and column rescalings of the approximation do not matter.
    """
    u_tilde = as_matrix(u_tilde, "U_tilde")
    v_tilde = as_matrix(v_tilde, "V_tilde")
    if r > reference.rank:
        raise RankTooLargeError(
            f"r={r} exceeds reference rank {reference.rank}")
    if r > u_tilde.shape[1] or r > v_tilde.shape[1]:
        raise RankTooLargeError(f"approximation has fewer than r={r} columns")
    u_norms = np.linalg.norm(u_tilde[:, :r], axis=0)
    v_norms = np.linalg.norm(v_tilde[:, :r], axis=0)
    if np.any(u_norms == 0.0) or np.any(v_norms == 0.0):
        raise ZeroColumnError("approximation contains an all-zero column")
    w = reference.s[:r]
    cu = np.abs(np.einsum("ij,ij->j", reference.u[:, :r], u_tilde[:, :r])) / u_norms
    cv = np.abs(np.einsum("ij,ij->j", reference.v[:, :r], v_tilde[:, :r])) / v_norms
    # rounding can push a perfect cosine a hair above 1
    cu = np.minimum(cu, 1.0)
    cv = np.minimum(cv, 1.0)
    return float((w * (1.0 - cu)).sum() / r + (w * (1.0 - cv)).sum() / r)


@dataclass(frozen=True)
class Attempt:
    """One attempt of ``solve_to_tolerance``.

    ``m`` and ``n`` are the column and row counts sampled, which for
    asym_nystrom vary around the budget (for rsvd, ``m`` is the
    oversampling; tsvd and rsvd sample no rows, and tsvd no columns). ``wall_time`` is this attempt's solver time and ``entries``
    the kernel entries the source has evaluated so far.
    """

    m: int
    n: int
    eta: float
    wall_time: float
    entries: int


@dataclass(frozen=True)
class SolveReport:
    solver: str
    result: object
    m_used: int
    eta: float
    wall_time: float
    status: str  # "ok" or "tolerance_unreachable"
    history: tuple = ()  # one Attempt per attempt, in order


SOLVERS = ("tsvd", "rsvd", "sym_nystrom", "asym_nystrom")

# The growth loop's sampler. After the first attempt each index i of a side
# of length L has inclusion probability pi_i = min(1, ceil(b L p_i) / L) at
# budget b, with p = LEVERAGE_MIX * (leverage of the previous attempt's
# factor on that side) + (1 - LEVERAGE_MIX) / L; 0 samples uniformly.
LEVERAGE_MIX = 0.8


def _limits(budget: int, size: int, factor) -> np.ndarray:
    """L pi_i = ceil(b L p_i), capped at L, for every index of one side of
    length L at budget b: the number of keys below pi_i, an integer, so
    inclusion is exact. Without a factor (the first attempt) every index
    gets b, which samples a prefix; at a budget of L, every index gets L."""
    if factor is None or budget >= size:
        return np.full(size, budget)
    q = np.linalg.qr(factor)[0]
    lev = np.einsum("ij,ij->i", q, q)
    scaled = LEVERAGE_MIX * size * (lev / lev.sum()) + (1.0 - LEVERAGE_MIX)
    return np.minimum(np.ceil(budget * scaled).astype(int), size)


@warns_dead_rows
def solve_to_tolerance(g_source, solver: str, epsilon: float,
                       reference: SvdResult, cfg: NystromConfig) -> SolveReport:
    """Run one solver until its eta against the reference drops below epsilon.

    Every solver has a budget k that starts at a floor and grows to a cap,
    min(ceil(k * m_growth) or 1, cap) per attempt, until eta meets epsilon:

    - tsvd: no budget (k = cap = 0); it runs once at machine precision.
    - rsvd: the oversampling, from ``cfg.oversample`` up to min(N, M) - r.
    - sym_nystrom and asym_nystrom: the column budget m, from ``cfg.m`` (or
      max(4r, 32)) up to all M columns. Every attempt derives its row
      budget from its m, so a config that sets ``n`` is rejected.
      asym_nystrom's later attempts sample counts around their budgets
      (see below); the last, at budget M, samples every row and column.

    Wall time counts the solver work only, not reference or eta evaluation,
    nor the dense matrices the baselines start from (G, and for sym_nystrom
    its two Gram matrices).

    The asymmetric solver draws one seeded permutation of the rows and one
    of the columns per solve; index i's key is its position in its
    permutation over the side's length L, and i is sampled while its key
    lies below its inclusion probability pi_i. The first attempt gives every
    index pi = b/L at budget b (b = n for rows, m for columns), which
    samples a prefix of each permutation. Every later attempt raises pi_i to
    min(1, ceil(b L p_i) / L) where that is larger, with p the mixture of
    ``LEVERAGE_MIX`` times the leverage scores of the previous attempt's
    U~ (rows) or V~ (columns) and the rest uniform; at a budget of L the
    whole side is sampled. pi only grows, so each attempt's sample contains
    the previous one and a block source evaluates only the new columns and
    rows. A sample with unequal pi is lifted with the Horvitz-Thompson
    weights 1/pi (see ``lift_blocks``), which also estimate the sne row
    normalizers; ``LEVERAGE_MIX`` = 0 keeps every pi equal and samples
    prefixes throughout. The sample sizes vary around the budget: ``m_used``
    and every ``Attempt`` report the counts sampled.

    ``epsilon`` must be >= 0; a negative or NaN one is a ConfigError. The
    report's ``history`` records every attempt. If the budget cap is
    reached with eta still above epsilon a ToleranceUnreachableError is
    raised, carrying the last report in its ``report`` attribute.
    """
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if not epsilon >= 0:  # eta is never negative: such a solve never stops
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    if cfg.n is not None:
        raise ConfigError(f"n={cfg.n} is set, but every attempt derives its "
                          "row count from m; leave n unset")
    source = as_kernel_source(g_source)
    big_n, big_m = source.shape
    r = cfg.r

    # each solver: its budget k, its cap, and attempt(k, i), what attempt i
    # computes at budget k
    cap = big_m
    k = cfg.m if cfg.m is not None else min(max(4 * r, 32), cap)
    if solver == "asym_nystrom":
        rng = np.random.default_rng(cfg.seed)
        # inclusion keys: position in one seeded permutation per side
        keys = [np.argsort(rng.permutation(big_n)),
                np.argsort(rng.permutation(big_m))]
        limits = [np.zeros(big_n, dtype=int), np.zeros(big_m, dtype=int)]
        factors = [None, None]  # the previous attempt's U~ and V~

        def attempt(m, i):
            step_cfg = replace(cfg, m=m, seed=cfg.seed + i)
            n, _ = resolve_sample_sizes((big_n, big_m), step_cfg)
            for side, budget in enumerate((n, m)):
                np.maximum(limits[side],
                           _limits(budget, limits[side].size, factors[side]),
                           out=limits[side])
            picked = [np.flatnonzero(key < limit)
                      for key, limit in zip(keys, limits)]
            # equal probabilities make a uniform sample, lifted unweighted
            weights = None
            if any(np.ptp(limit) for limit in limits):
                weights = tuple(limit.size / limit[idx]
                                for limit, idx in zip(limits, picked))
            res = asym_nystrom(source, step_cfg, indices=picked,
                               weights=weights)
            factors[:] = res.u_tilde, res.v_tilde
            return res
    else:
        g = source.full()
    if solver == "tsvd":
        k = cap = 0

        def attempt(*_):
            return svd_truncated(g, r, tol=1e-14)
    elif solver == "rsvd":
        cap = max(min(big_n, big_m) - r, 1)
        k = min(cfg.oversample, cap)

        def attempt(oversample, i):
            return svd_randomized(g, r, oversample=oversample,
                                  power_iters=cfg.power_iters, seed=cfg.seed)
    elif solver == "sym_nystrom":
        gram_u = as_kernel_source(g @ g.T)
        gram_v = as_kernel_source(g.T @ g)

        def attempt(m, i):
            res_u = sym_nystrom(gram_u, replace(
                cfg, n=min(m, big_n), m=min(m, big_n), seed=cfg.seed + i))
            res_v = sym_nystrom(gram_v, replace(
                cfg, n=min(m, big_m), m=min(m, big_m), seed=cfg.seed + i))
            return NystromResult(
                u_tilde=res_u.u_tilde, v_tilde=res_v.u_tilde,
                lambda_tilde=np.sqrt(np.maximum(res_u.lambda_tilde, 0.0)),
                row_indices=res_u.row_indices, col_indices=res_v.row_indices)

    history, wall = [], 0.0
    while True:
        t0 = time.perf_counter()
        res = attempt(k, len(history))
        seconds = time.perf_counter() - t0
        wall += seconds
        if isinstance(res, SvdResult):
            u, v, rank, m, n = res.u, res.v, res.rank, k, 0
        else:
            u, v, rank = res.u_tilde, res.v_tilde, res.lambda_tilde.size
            m, n = res.col_indices.size, res.row_indices.size
        eta = eta_accuracy(u, v, reference, min(r, rank))
        history.append(Attempt(m, n, eta, seconds, source.entries_evaluated))
        rep = SolveReport(solver, res, m, eta, wall,
                          "ok" if eta <= epsilon else "tolerance_unreachable",
                          tuple(history))
        if eta <= epsilon:
            return rep
        if k >= cap:
            err = ToleranceUnreachableError(
                f"{solver} reached its budget cap with eta={eta:.3e} "
                f"> epsilon={epsilon:.3e}")
            err.report = rep
            raise err
        # ceil(k * m_growth) > k for k >= 1; a start of 0 steps to 1
        k = min(int(np.ceil(k * cfg.m_growth)) or 1, cap)
