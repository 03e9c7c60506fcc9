"""Workload parameters, paths and input generation.

Shared by the run (``run.py``) and the reference process (``reference.py``),
so both see the same graphs, bandwidths and held-out splits. numpy is
imported inside the functions, not at module level: the BLAS thread
variables must be set before the first numpy import.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

WORKLOADS = ("extract-dense", "nystrom-grow", "oos-persist")
RANK = 8

# extract-dense: the default `aksvd extract` path (exact solver); fixed
# graph (see README, "Seeds")
EXTRACT_N = 300
EXTRACT_GRAPH_SEED = 0
EXTRACT_GAMMA_SCALE = 1.0

# nystrom-grow: fixed graph and sampling seed (see README, "Seeds")
GROW_N = 4000
GROW_GRAPH_SEED = 0
GROW_GAMMA_SCALE = 0.35
GROW_EPSILON = 0.004

# oos-persist: a truncated-solver model of N_TRAIN nodes, N_HELD held out
OOS_N_TRAIN = 2000
OOS_N_HELD = 2000
OOS_GAMMA_SCALE = 1.0
OOS_CHECK_EVERY = 10   # held-out points compared with the formula
OOS_REPLAY_EVERY = 20  # training points replayed through transform_oos


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def check_source_tree() -> None:
    if not (SRC / "aksvd" / "__init__.py").is_file():
        sys.exit(f"benchmark: no aksvd package under {SRC}")


def use_source_tree() -> None:
    """Import aksvd from the checkout's src/, never from an installed copy."""
    check_source_tree()
    sys.path.insert(0, str(SRC))
    import aksvd
    if Path(aksvd.__file__).resolve().parent != SRC / "aksvd":
        sys.exit(f"benchmark: aksvd imported from {aksvd.__file__}, "
                 f"not from {SRC}")


def extract_graph():
    from aksvd import datasets
    return datasets.synth_directed_graph("two_block", EXTRACT_N,
                                         seed=EXTRACT_GRAPH_SEED).adjacency


def grow_graph():
    from aksvd import datasets
    return datasets.synth_directed_graph("random_dag", GROW_N,
                                         seed=GROW_GRAPH_SEED).adjacency


def oos_split(seed: int):
    """(A_train, held-out rows, held-out columns as z points).

    One two_block graph of N_TRAIN + N_HELD nodes; a seeded choice of
    N_HELD nodes is held out. A held-out row is a new node's edges to the
    training nodes; a held-out column is the training nodes' edges to it.
    """
    import numpy as np
    from aksvd import datasets
    total = OOS_N_TRAIN + OOS_N_HELD
    g = datasets.synth_directed_graph("two_block", total, seed=seed).adjacency
    held = np.sort(np.random.default_rng(seed).choice(total, OOS_N_HELD,
                                                      replace=False))
    train = np.setdiff1d(np.arange(total), held)
    a = g[np.ix_(train, train)]
    new_x = g[np.ix_(held, train)]
    new_z = np.ascontiguousarray(g[np.ix_(train, held)].T)
    return a, new_x, new_z
