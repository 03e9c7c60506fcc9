"""The three workloads: set-up, one operation, and the checks of its outputs.

``operation`` returns its timed phases (``op_s``: the seconds of the
operation's user-facing calls) and the outputs to check; nothing outside
the timed calls is counted. ``check`` returns (check name, message) pairs, empty
when the outputs are right.
"""
from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from aksvd import config, kernels, ksvd, linalg, nystrom, pipeline

import checks
import inputs


def _fails(name: str, messages: list[str]):
    return [(name, m) for m in messages]


def _size_mb(directory: Path) -> float:
    """Size of a saved model directory, MB = 2^20 bytes."""
    return sum(f.stat().st_size for f in directory.iterdir()) / 2**20


class ExtractDense:
    """`aksvd extract` on a dense two_block graph: exact solver, rank 8."""

    name = "extract-dense"
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, ref, work: Path):
        del seed  # fixed inputs; see README, "Seeds"
        self.ref = ref
        self.out = work / "extract"

    def setup(self) -> None:
        a = inputs.extract_graph()
        gamma = checks.bandwidth(a, inputs.EXTRACT_GAMMA_SCALE)
        self.cfg = config.build_config(environ={}, overrides={
            "dataset.format": "synth", "dataset.synth_kind": "two_block",
            "dataset.synth_n": str(inputs.EXTRACT_N),
            "dataset.synth_seed": str(inputs.EXTRACT_GRAPH_SEED),
            "kernel.family": "sne",
            "kernel.gamma": repr(gamma), "rank": str(inputs.RANK),
            "solver": "exact", "out": str(self.out)})
        self.a, self.gamma = a, gamma

    def operation(self):
        shutil.rmtree(self.out, ignore_errors=True)  # check this run's files
        t0 = time.perf_counter()
        pipeline.run_extract(self.cfg)
        return {"op_s": time.perf_counter() - t0}, None

    def check(self, _output):
        def read(name):
            return np.loadtxt(self.out / name, delimiter=",", ndmin=2)
        lam = read("lambda.csv").ravel()
        left, right = read("left.csv"), read("right.csv")
        fails = _fails("spectrum", checks.check_extract(
            lam, left, right, self.ref["s"], self.ref["g_c"]))
        model = ksvd.load_model(self.out / "model")
        fails += _fails("model", checks.check_same(
            "left from the saved model",
            ksvd.transform(model, "left").features, left))
        fails += _fails("model", checks.check_same(
            "right from the saved model",
            ksvd.transform(model, "right").features, right))
        return fails

    def replay(self) -> None:
        """fit's dense path as public calls: kernel, centering, SVD."""
        g = kernels.kernel_matrix(kernels.KernelSpec("sne", self.gamma),
                                  kernels.build_sources(self.a))
        g_c, _ = kernels.center(g)
        ksvd.svd_exact(g_c)

    def layer_values(self, _output) -> dict:
        return {"ksvd.model_mb": _size_mb(self.out / "model")}


class NystromGrow:
    """solve_to_tolerance, asymmetric Nystrom solver, on a random DAG."""

    name = "nystrom-grow"
    # LazyKernelSource normalizes sampled sne rows over the m sampled
    # columns only, which inflates lambda_1 about M/m-fold
    known_faults = frozenset({"scale"})

    def __init__(self, seed: int, ref, work: Path):
        del seed, work  # fixed inputs; see README, "Seeds"
        self.ref = ref

    def setup(self) -> None:
        a = inputs.grow_graph()
        self.spec = kernels.KernelSpec(
            "sne", checks.bandwidth(a, inputs.GROW_GAMMA_SCALE))
        self.sources = kernels.build_sources(a)
        self.reference = linalg.SvdResult(u=self.ref["u"], s=self.ref["s"],
                                          v=self.ref["v"])

    def operation(self):
        t0 = time.perf_counter()
        source = kernels.LazyKernelSource(self.spec, self.sources)
        report = nystrom.solve_to_tolerance(
            source, "asym_nystrom", inputs.GROW_EPSILON, self.reference,
            nystrom.NystromConfig(r=inputs.RANK))
        return {"op_s": time.perf_counter() - t0}, report

    def check(self, report):
        res = report.result
        ref_u, ref_s, ref_v = self.ref["u"], self.ref["s"], self.ref["v"]
        return (_fails("eta", checks.check_eta(
                    res.u_tilde, res.v_tilde, ref_u, ref_s, ref_v,
                    inputs.GROW_EPSILON, inputs.RANK))
                + _fails("scale", checks.check_scale(res.lambda_tilde,
                                                     ref_s)))

    def layer_values(self, report) -> dict:
        return {"nystrom.m_used": report.m_used,
                "nystrom.lambda1_fold":
                    float(report.result.lambda_tilde[0] / self.ref["s"][0])}


class OosPersist:
    """save_model, load_model, then transform_oos on held-out points."""

    name = "oos-persist"
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, ref, work: Path):
        self.seed = seed
        self.ref = ref
        self.dir = work / "model"

    def setup(self) -> None:
        a, self.new_x, self.new_z = inputs.oos_split(self.seed)
        spec = kernels.KernelSpec("sne",
                                  checks.bandwidth(a, inputs.OOS_GAMMA_SCALE))
        self.model = ksvd.fit(a, spec, r=inputs.RANK, solver="truncated")
        every = inputs.OOS_REPLAY_EVERY
        self.replay_x = a[::every].copy()
        self.replay_z = np.ascontiguousarray(a.T[::every])

    def operation(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        t0 = time.perf_counter()
        ksvd.save_model(self.model, self.dir)
        loaded = ksvd.load_model(self.dir)
        rows = ksvd.transform_oos(loaded, new_x=self.new_x)
        cols = ksvd.transform_oos(loaded, new_z=self.new_z)
        return {"op_s": time.perf_counter() - t0}, (loaded, rows, cols)

    def check(self, output):
        loaded, rows, cols = output
        m = self.model
        fails = []
        for field in ("b_phi", "b_psi", "lam", "train_x", "train_z",
                      "sne_row_denoms"):
            fails += checks.check_same(field, getattr(loaded, field),
                                       getattr(m, field))
        for field in ("row_means", "col_means", "grand_mean"):
            fails += checks.check_same(field,
                                       getattr(loaded.centering, field),
                                       getattr(m.centering, field))
        if (loaded.kernel, loaded.compat.mode, loaded.centered) != \
                (m.kernel, m.compat.mode, m.centered):
            fails.append("kernel, compat or centering flag changed on load")
        fails = _fails("round-trip", fails)

        every = inputs.OOS_REPLAY_EVERY
        fails += _fails("replay", checks.check_close(
            "replayed rows", ksvd.transform_oos(loaded, new_x=self.replay_x),
            ksvd.transform(loaded, "left").features[::every]))
        fails += _fails("replay", checks.check_close(
            "replayed columns",
            ksvd.transform_oos(loaded, new_z=self.replay_z),
            ksvd.transform(loaded, "right").features[::every]))

        pick = slice(None, None, inputs.OOS_CHECK_EVERY)
        fails += _fails("held-out", checks.check_close(
            "held-out rows", rows[pick],
            checks.project(self.ref["kx_c"], m.b_psi, m.lam)))
        fails += _fails("held-out", checks.check_close(
            "held-out columns", cols[pick],
            checks.project(self.ref["kz_c"], m.b_phi, m.lam)))
        return fails

    def layer_values(self, _output) -> dict:
        return {"ksvd.model_mb": _size_mb(self.dir)}


WORKLOADS = {w.name: w for w in (ExtractDense, NystromGrow, OosPersist)}
