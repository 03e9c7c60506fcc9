"""Reference computations for the benchmark's checks, in their own process.

Run by ``run.py`` before it imports the program, so the dense kernels and
reference SVDs built here count in neither ``setup_s`` nor ``peak_rss_mb``.
Results are cached under ``.bench_cache/``, keyed by a hash of the inputs
and parameters; ``--force`` makes them anew:

    python3 benchmark/reference.py --workload nystrom-grow --seed 0 --force
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import inputs

inputs.pin_threads()

import numpy as np  # noqa: E402  (after the thread variables are set)

import checks  # noqa: E402

VERSION = "1"


def _fingerprint(*parts) -> str:
    h = hashlib.sha256(VERSION.encode())
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def extract_dense(seed: int):
    del seed  # the graph is fixed; see inputs.EXTRACT_GRAPH_SEED
    a = inputs.extract_graph()
    key = _fingerprint(a, inputs.EXTRACT_GAMMA_SCALE, inputs.RANK)

    def build():
        gamma = checks.bandwidth(a, inputs.EXTRACT_GAMMA_SCALE)
        g_c = checks.double_center(checks.sne_kernel(a, gamma))[0]
        s = np.linalg.svd(g_c, compute_uv=False)
        return {"g_c": g_c, "s": s[:inputs.RANK]}
    return "extract-dense", key, build


def nystrom_grow(seed: int):
    del seed  # the graph is fixed; see inputs.GROW_GRAPH_SEED
    a = inputs.grow_graph()
    key = _fingerprint(a, inputs.GROW_GAMMA_SCALE, inputs.RANK)

    def build():
        from scipy.sparse.linalg import svds
        gamma = checks.bandwidth(a, inputs.GROW_GAMMA_SCALE)
        g = checks.sne_kernel(a, gamma)
        u, s, vt = svds(g, k=inputs.RANK, tol=1e-12, random_state=0)
        order = np.argsort(-s)
        return {"u": u[:, order], "s": s[order], "v": vt[order].T}
    return "nystrom-grow", key, build


def oos_persist(seed: int):
    a, new_x, new_z = inputs.oos_split(seed)
    key = _fingerprint(a, new_x, new_z, inputs.OOS_GAMMA_SCALE,
                       inputs.OOS_CHECK_EVERY)

    def build():
        gamma = checks.bandwidth(a, inputs.OOS_GAMMA_SCALE)
        z = np.ascontiguousarray(a.T)
        num = checks.rbf_numerators(a, z, gamma)
        denoms = num.sum(axis=1)
        _, rows, cols, grand = checks.double_center(num / denoms[:, None])
        pick = slice(None, None, inputs.OOS_CHECK_EVERY)
        # new row: normalized over the training columns, then centered with
        # its own mean and the training column means
        kx = checks.rbf_numerators(new_x[pick], z, gamma)
        kx /= kx.sum(axis=1, keepdims=True)
        kx_c = kx - kx.mean(axis=1, keepdims=True) - cols[None, :] + grand
        # new column: training rows keep their training normalizers
        kz = checks.rbf_numerators(a, new_z[pick], gamma) / denoms[:, None]
        kz_c = kz - kz.mean(axis=0, keepdims=True) - rows[:, None] + grand
        return {"kx_c": kx_c, "kz_c": np.ascontiguousarray(kz_c.T)}
    return f"oos-persist-seed{seed}", key, build


BUILDERS = {"extract-dense": extract_dense, "nystrom-grow": nystrom_grow,
            "oos-persist": oos_persist}


def ensure(workload: str, seed: int, force: bool = False):
    """Path of the reference file for (workload, seed), built if needed."""
    stem, key, build = BUILDERS[workload](seed)
    path = inputs.CACHE / f"{stem}.npz"
    if not force and path.exists():
        with np.load(path) as cached:
            if str(cached["key"]) == key:
                return path
    arrays = build()
    inputs.CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, key=np.array(key), **arrays)
    tmp.replace(path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--force", action="store_true",
                        help="recompute even if a cached reference matches")
    args = parser.parse_args(argv)
    inputs.use_source_tree()
    print(ensure(args.workload, args.seed, args.force))
    return 0


if __name__ == "__main__":
    sys.exit(main())
