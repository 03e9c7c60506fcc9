"""Spans around calls into aksvd's public functions, for the traced run.

Nothing under src/ changes: ``Tracer.install`` replaces the names callers
look up (``ksvd.fit`` as pipeline reaches it, ``svd_exact`` as ksvd reaches
it, ...) with timing wrappers. Spans are kept in memory, grouped into
units (one set-up, one operation, or one replay), and each span carries
the wall time of its unit so the unattributed remainder is visible.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager


def _block_entries(blocks) -> int:
    """Entries of G_Nm and G_nM; G_nm is sliced from G_Nm, not evaluated."""
    return blocks[1].size + blocks[2].size


# (owner, attribute, span name, kernel entries of the result). The owner is
# the module (or class) in whose namespace the caller looks the name up.
_FUNCTIONS = (
    ("aksvd.datasets", "synth_directed_graph", "datasets.gen"),
    ("aksvd.ksvd", "fit", "ksvd.fit"),
    ("aksvd.ksvd", "save_model", "ksvd.save"),
    ("aksvd.ksvd", "load_model", "ksvd.load"),
    ("aksvd.ksvd", "transform_oos", "ksvd.oos"),
    ("aksvd.kernels", "center", "kernels.center"),
    ("aksvd.kernels", "center_oos", "kernels.center"),
    ("aksvd.kernels", "kernel_matrix", "kernels.eval", lambda g: g.size),
    ("aksvd.kernels.LazyKernelSource", "sample_blocks", "kernels.eval",
     _block_entries),
    ("aksvd.ksvd", "svd_exact", "linalg.svd"),
    ("aksvd.ksvd", "svd_truncated", "linalg.svd"),
    ("aksvd.ksvd", "svd_randomized", "linalg.svd"),
    ("aksvd.nystrom", "svd_exact", "linalg.svd"),
    ("aksvd.nystrom", "svd_randomized", "linalg.svd"),
    ("aksvd.nystrom", "asym_nystrom", "nystrom.attempt"),
    ("aksvd.nystrom", "lift_blocks", "nystrom.lift"),
    ("aksvd.pipeline", "write_matrix_csv", "pipeline.write"),
)

# span name -> (per-layer metric for its time, metric for its call count)
SPAN_METRICS = {
    "linalg.svd": ("linalg.svd_s", "linalg.svd_calls"),
    "kernels.eval": ("kernels.eval_s", None),
    "kernels.center": ("kernels.center_s", None),
    "nystrom.attempt": (None, "nystrom.attempts"),
    "nystrom.lift": ("nystrom.lift_s", None),
    "ksvd.fit": ("ksvd.fit_s", None),
    "ksvd.save": ("ksvd.save_s", None),
    "ksvd.load": ("ksvd.load_s", None),
    "ksvd.oos": ("ksvd.oos_s", None),
    "pipeline.write": ("pipeline.write_s", None),
    "datasets.gen": ("datasets.gen_s", None),
}


class Tracer:
    def __init__(self):
        self.units: list[dict] = []
        self._spans: list[dict] | None = None
        self._t0 = 0.0
        self._depth = 0
        self._restore: list[tuple] = []

    @contextmanager
    def unit(self, kind: str):
        """Collect the spans of one set-up, operation or replay."""
        self._spans, self._t0, self._depth = [], time.perf_counter(), 0
        try:
            yield
        finally:
            wall = time.perf_counter() - self._t0
            for span in self._spans:
                span["unit_wall_s"] = wall
            self.units.append({"kind": kind, "wall_s": wall,
                               "spans": self._spans})
            self._spans = None

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; the yielded record takes extra fields."""
        if self._spans is None:  # outside any unit: checks are not traced
            yield {}
            return
        depth = self._depth
        self._depth += 1
        record = {"name": name, "depth": depth}
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["start_s"] = start - self._t0
            record["end_s"] = time.perf_counter() - self._t0
            self._depth = depth
            self._spans.append(record)

    def wrap(self, owner, attr: str, name: str, entries=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if entries is not None:
                    record["entries"] = entries(result)
                return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        import importlib
        for module, attr, name, *entries in _FUNCTIONS:
            path, _, cls = module.rpartition(".")
            owner = (getattr(importlib.import_module(path), cls)
                     if cls[0].isupper() else importlib.import_module(module))
            self.wrap(owner, attr, name, *entries)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _totals(unit: dict) -> dict:
    """span name -> [seconds, calls, entries] within one unit."""
    out: dict[str, list] = {}
    for span in unit["spans"]:
        t = out.setdefault(span["name"], [0.0, 0, 0])
        t[0] += span["end_s"] - span["start_s"]
        t[1] += 1
        t[2] += span.get("entries", 0)
    return out


def _median(values):
    return statistics.median(values) if values else 0


def layer_metrics(tracer: Tracer, op_values: list[dict]) -> dict:
    """Per-layer figures: medians per operation, else per replay or set-up.

    A span that occurs in the operations is reported per operation. One that
    does not (the kernel on extract-dense, reached only through private
    helpers, is measured by the replay; the oos-persist fit and the input
    generation happen in set-up) is reported per replay or per set-up.
    Spans that never occur report 0.
    """
    by_kind = {kind: [_totals(u) for u in tracer.units if u["kind"] == kind]
               for kind in ("op", "replay", "setup")}
    ops = [u for u in tracer.units if u["kind"] == "op"]

    def per_unit(name: str, index: int):
        for kind in ("op", "replay", "setup"):
            rows = by_kind[kind]
            if any(name in row for row in rows):
                return _median([row.get(name, [0.0, 0, 0])[index]
                                for row in rows])
        return 0

    out = {}
    for name, (time_metric, count_metric) in SPAN_METRICS.items():
        if time_metric:
            out[time_metric] = per_unit(name, 0)
        if count_metric:
            out[count_metric] = per_unit(name, 1)
    out["kernels.entries"] = per_unit("kernels.eval", 2)

    useful = []
    for unit in ops:
        evals = [s.get("entries", 0) for s in unit["spans"]
                 if s["name"] == "kernels.eval"]
        if sum(evals):
            useful.append(evals[-1] / sum(evals))
    out["nystrom.useful_entries_ratio"] = _median(useful)

    out["trace.op_s"] = _median([u["wall_s"] for u in ops])
    out["trace.unattributed_s"] = _median([
        u["wall_s"] - sum(s["end_s"] - s["start_s"]
                          for s in u["spans"] if s["depth"] == 0)
        for u in ops])
    out["ksvd.fit_replay_s"] = _median([
        sum(s["end_s"] - s["start_s"] for s in u["spans"] if s["depth"] == 0)
        for u in tracer.units if u["kind"] == "replay"])
    for key in ("nystrom.m_used", "nystrom.lambda1_fold", "ksvd.model_mb"):
        out[key] = _median([v[key] for v in op_values if key in v])
    return out
