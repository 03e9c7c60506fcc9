"""Command implementations behind the CLI: extract, evaluate, benchmark.

Each run writes its outputs plus a ``manifest.json`` capturing the fully
resolved configuration and library versions, so a rerun from the manifest
reproduces the outputs exactly (benchmark timings aside).
"""
from __future__ import annotations

import csv
import json
import platform
from pathlib import Path

import numpy as np

from . import datasets, evaluation, kernels, ksvd, nystrom
from .compat import apply_compat, make_compat
from .config import KNOWN, RunConfig, parse_floats, parse_names
from .errors import ConfigError, SingleClassError
from .kernels import DataSources, KernelSpec, LazyKernelSource
from .linalg import svd_exact, write_matrix_csv
from .nystrom import NystromConfig


def load_dataset(cfg: RunConfig):
    """Materialize the configured dataset: (matrix, labels-or-targets, task)."""
    fmt = cfg["dataset.format"]
    if fmt == "synth":
        graph = datasets.synth_directed_graph(
            cfg["dataset.synth_kind"], cfg["dataset.synth_n"],
            seed=cfg.get("dataset.synth_seed", "seed"))
        return graph.adjacency, graph.labels, "classification"
    if fmt == "edge_list":
        graph = datasets.load_edge_list(
            cfg["dataset.path"], node_count=cfg["dataset.node_count"],
            directed=cfg["dataset.directed"],
            labels_path=cfg["dataset.labels"])
        return graph.adjacency, graph.labels, "classification"
    target = cfg["dataset.target"]
    if target is None:
        raise ConfigError("dataset.target is required for csv datasets")
    try:
        target = int(target)
    except ValueError:
        pass
    table = datasets.load_csv(cfg["dataset.path"], target,
                              cfg["dataset.task"], zscore=cfg["dataset.zscore"])
    return table.features, table.targets, table.task


def make_kernel_spec(cfg: RunConfig, a: np.ndarray) -> KernelSpec:
    family = cfg["kernel.family"]
    gamma = cfg["kernel.gamma"]
    if gamma is None and family != "linear":
        gamma = kernels.default_gamma(a, k=cfg["kernel.gamma_k"])
    return KernelSpec(family=family, gamma=gamma)


_OPT_KEYS = {"n": "nystrom.n", "m": "nystrom.m", "tol": "solver.tol",
             "oversample": "solver.oversample",
             "power_iters": "solver.power_iters", "seed": "solver.seed"}


def _solver_keys(solver: str) -> dict:
    """The config key behind each of fit's solver_opts the solver reads."""
    return {opt: _OPT_KEYS[opt] for opt in ksvd.SOLVER_OPTS[solver]}


# a fit's keys, its solver's keys aside
_FIT = ("kernel.family", "kernel.gamma", "kernel.gamma_k", "compat.mode",
        "compat.seed", "center", "solver")
_EVAL = ("method", "split.seed", "split.test_fraction", "eval.gamma_reg")
# the growth loop's keys, on the uncentered kernel of its own solvers
_GROWTH = ("kernel.family", "kernel.gamma", "kernel.gamma_k", "compat.mode",
           "compat.seed", "nystrom.m", "nystrom.growth")
# the keys but dataset.* each command reads, then each method's, then a
# command's with a method: only classify and regress pick ksvd's feature side
READS = {
    "extract": ("rank", "seed", "out", *_FIT),
    "classify": ("rank", "seed", "out", *_EVAL),
    "regress": ("rank", "seed", "out", *_EVAL),
    "reconstruct": ("rank", "seed", "out", "method"),
    "bench": ("rank", "seed", "out", *_GROWTH, "solver.seed",
              "solver.oversample", "solver.power_iters", "bench.solvers",
              "bench.epsilons", "bench.repeats"),
    "nystrom-sweep": ("rank", "seed", "out", *_GROWTH, "nystrom.epsilon",
                      "sweep.gamma_scales", "sweep.seeds"),
    "ksvd": _FIT,
    "kpca": ("kernel.family", "kernel.gamma", "kernel.gamma_k"),
    "svd": (),
    "pca": (),
    ("classify", "ksvd"): ("features.sides",),
    ("regress", "ksvd"): ("features.sides",),
}


# the keys that a value of one key leaves unread, wherever that key is read
# ("set": any value but the unset default): the linear kernel has no
# bandwidth, a given bandwidth replaces the default one, and only the
# seeded projection a2 reads a compat seed (auto is identity or a0)
UNREAD_WHEN = {
    ("kernel.family", "linear"): ("kernel.gamma", "kernel.gamma_k"),
    ("kernel.gamma", "set"): ("kernel.gamma_k",),
    **{("compat.mode", mode): ("compat.seed",)
       for mode in ("auto", "identity", "a0", "a1")},
}


def check_reads(cfg: RunConfig, command: str) -> None:
    """Reject each key but dataset.* that ``command`` (with its method and
    solver, and the values of the keys in ``UNREAD_WHEN``) does not read
    and that holds a value other than its default, wherever the value came
    from; kpca's kernel is always rbf."""
    reads, readers = list(READS[command]), [command]
    method = cfg["method"] if "method" in reads else None
    if method is not None:
        reads += READS[method] + READS.get((command, method), ())
        readers.append(f"method {method!r}")
    if "solver" in reads:
        reads += _solver_keys(cfg["solver"]).values()
        readers.append(f"solver {cfg['solver']!r}")
    if method == "kpca" and cfg["kernel.family"] != "rbf":
        reads.remove("kernel.family")  # kpca's kernel is always rbf
    for (key, value), dropped in UNREAD_WHEN.items():
        if key in reads and (cfg[key] is not None if value == "set"
                             else cfg[key] == value):
            reads = [k for k in reads if k not in dropped]
            if any(cfg[k] != KNOWN[k].default for k in dropped):
                readers.append(f"with {key}={cfg[key]}")
    unread = [key for key in KNOWN if not key.startswith("dataset.")
              and key not in reads and cfg[key] != KNOWN[key].default]
    if unread:
        raise ConfigError(f"not read by {', '.join(readers)}: "
                          f"{', '.join(f'{k}={cfg[k]}' for k in unread)}")


def fit_from_config(cfg: RunConfig, a: np.ndarray) -> ksvd.KsvdModel:
    return ksvd.fit(
        a, make_kernel_spec(cfg, a), r=cfg["rank"], compat=cfg["compat.mode"],
        solver=cfg["solver"], center=cfg["center"],
        compat_seed=cfg.get("compat.seed", "seed"),
        solver_opts={opt: cfg.get(key, "seed" if opt == "seed" else None)
                     for opt, key in _solver_keys(cfg["solver"]).items()})


def resolve_sides(cfg: RunConfig, a: np.ndarray) -> str:
    """The feature side(s) of the samples, the rows of ``a``: the right
    side describes its columns, the same points only when it is square."""
    sides, square = cfg["features.sides"], a.shape[0] == a.shape[1]
    if sides == "auto":
        return "both" if square else "left"
    if sides != "left" and not square:
        raise ConfigError(
            f"features.sides={sides} needs square data: right-side features "
            f"describe the {a.shape[1]} columns, not the {a.shape[0]} samples")
    return sides


# --- baselines -------------------------------------------------------------------

def method_features(cfg: RunConfig, a: np.ndarray, with_right: bool = False):
    """Features for the configured method, the right-side set too when asked
    (else None), and the kernel that produced them (None for svd and pca).

    ksvd is the package model; svd takes the exact factors of the raw
    matrix; kpca runs an RBF kernel over (symmetrized, for square inputs)
    row data; pca projects centered rows on their top principal directions.
    """
    method = cfg["method"]
    r = cfg["rank"]
    if method == "ksvd":
        # the sides are checked before the fit
        sides = None if with_right else resolve_sides(cfg, a)
        model = fit_from_config(cfg, a)
        r = min(r, model.rank)
        if with_right:
            return (ksvd.transform(model, "left", r).features,
                    ksvd.transform(model, "right", r).features, model.kernel)
        return (evaluation.side_features(model, sides, r), None,
                model.kernel)
    if method == "svd":
        res = svd_exact(a, r)
        return res.u, (res.v if with_right else None), None
    if method == "kpca":
        rows = 0.5 * (a + a.T) if a.shape[0] == a.shape[1] else a
        gamma = cfg["kernel.gamma"]
        if gamma is None:
            gamma = kernels.default_gamma(rows, k=cfg["kernel.gamma_k"])
        spec = KernelSpec(family="rbf", gamma=gamma)
        k = kernels.kernel_matrix(spec, DataSources(x=rows, z=rows))
        kc = kernels.center(k)[0]
        feats = svd_exact(kc, r).u
        return feats, (feats if with_right else None), spec
    # pca: scores on the top principal directions of the centered rows
    centered = a - a.mean(axis=0, keepdims=True)
    feats = centered @ svd_exact(centered, r).v
    return feats, (feats if with_right else None), None


# --- output helpers --------------------------------------------------------------

def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(cfg: RunConfig, command: str, out: Path) -> Path:
    import aksvd
    manifest = {
        "command": command,
        "config": cfg.manifest(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "aksvd": aksvd.__version__,
        },
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _write_rows(cfg: RunConfig, command: str, name: str,
                rows: list[dict]) -> Path:
    """The CSV ``name``, the first row's keys in order as its header, and
    the manifest, in the output directory."""
    out = _out_dir(cfg)
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    write_manifest(cfg, command, out)
    return out


def _write_metrics(cfg: RunConfig, command: str, spec: KernelSpec | None,
                   metrics: dict) -> Path:
    """``metrics.csv``, one row per metric, and the manifest. ``spec`` is
    the kernel that produced the features: its family and gamma (blank for
    linear) are recorded, and both are blank without one."""
    gamma = None if spec is None or spec.family == "linear" else spec.gamma
    rows = [{"task": command, "method": cfg["method"],
             "kernel": "" if spec is None else spec.family,
             "gamma": "" if gamma is None else f"{gamma:.17g}",
             "seed": cfg["seed"], "metric_name": name,
             "value": f"{value:.17g}"} for name, value in metrics.items()]
    return _write_rows(cfg, command, "metrics.csv", rows)


# --- commands --------------------------------------------------------------------

def run_extract(cfg: RunConfig) -> Path:
    a, _, _ = load_dataset(cfg)
    model = fit_from_config(cfg, a)
    out = _out_dir(cfg)
    write_matrix_csv(out / "left.csv",
                     ksvd.transform(model, "left").features)
    write_matrix_csv(out / "right.csv",
                     ksvd.transform(model, "right").features)
    write_matrix_csv(out / "lambda.csv", model.lam.reshape(-1, 1))
    ksvd.save_model(model, out / "model")
    write_manifest(cfg, "extract", out)
    return out


def _split(cfg: RunConfig, y, stratify: bool):
    """The seeded train/test split of the samples ``y``, made before any
    fit; a split.test_fraction that leaves either side empty is bad input."""
    fraction = cfg["split.test_fraction"]
    train, test = evaluation.split_train_test(
        y, fraction, seed=cfg.get("split.seed", "seed"), stratify=stratify)
    for side, idx in (("train", train), ("test", test)):
        if idx.size == 0:
            raise ConfigError(f"split.test_fraction={fraction} leaves the "
                              f"{side} side of {len(y)} samples empty")
    return train, test


def run_classify(cfg: RunConfig) -> Path:
    a, labels, task = load_dataset(cfg)
    if labels is None:
        raise ConfigError("classification needs labels; provide "
                          "dataset.labels or a labeled dataset")
    if task != "classification":
        raise ConfigError("dataset.task must be classification")
    labels = np.asarray(labels)
    keep = labels >= 0 if labels.dtype.kind in "iu" else np.ones(
        labels.shape[0], dtype=bool)
    labels = labels[keep]
    if np.unique(labels).size < 2:
        raise SingleClassError("need at least two classes to classify")
    train, test = _split(cfg, labels, stratify=True)
    feats, _, spec = method_features(cfg, a)
    feats = feats[keep]
    clf = evaluation.lssvm_fit(
        evaluation.LabeledFeatures(feats[train], labels[train]),
        gamma_reg=cfg["eval.gamma_reg"])
    pred = evaluation.lssvm_predict(clf, feats[test])
    truth = labels[test]
    micro, macro = evaluation.f1_scores(pred, truth)
    metrics = {"accuracy": evaluation.accuracy(pred, truth),
               "micro_f1": micro, "macro_f1": macro}
    if clf.classes.size == 2:
        scores = evaluation.lssvm_decision(clf, feats[test])
        metrics["auroc"] = evaluation.auroc(scores[:, 1] - scores[:, 0], truth)
    return _write_metrics(cfg, "classify", spec, metrics)


def run_regress(cfg: RunConfig) -> Path:
    a, targets, task = load_dataset(cfg)
    if task != "regression":
        raise ConfigError("regress needs dataset.task = regression")
    train, test = _split(cfg, targets, stratify=False)
    feats, _, spec = method_features(cfg, a)
    fit = evaluation.ridge_fit(feats[train], np.asarray(targets)[train],
                               gamma_reg=cfg["eval.gamma_reg"])
    pred = evaluation.ridge_predict(fit, feats[test])
    return _write_metrics(cfg, "regress", spec, {
        "rmse": evaluation.rmse(pred, np.asarray(targets)[test])})


def run_reconstruct(cfg: RunConfig) -> Path:
    a, _, _ = load_dataset(cfg)
    if cfg["dataset.format"] == "csv":
        raise ConfigError("graph reconstruction needs a graph dataset")
    degrees = a.sum(axis=1).astype(int)
    left, right, spec = method_features(cfg, a, with_right=True)
    recon = evaluation.graph_reconstruct(left, degrees,
                                         target_embedding=right)
    l1, l2 = evaluation.reconstruction_error(recon, a)
    return _write_metrics(cfg, "reconstruct", spec, {"l1": l1, "l2": l2})


# --- benchmarking ----------------------------------------------------------------

def _timed_solve(make_source, solver: str, epsilon: float, reference,
                 ncfg: NystromConfig, repeats: int):
    """One warmup then ``repeats`` timed runs: the last report and the
    median wall time.

    Every run gets a fresh source from ``make_source``, so none reuses the
    norms or blocks an earlier run left in a lazy source.
    """
    reports = [nystrom.solve_to_tolerance(make_source(), solver, epsilon,
                                          reference, ncfg)
               for _ in range(repeats + 1)]
    return reports[-1], float(np.median([rep.wall_time
                                         for rep in reports[1:]]))


def _solve_columns(rep, wall_time: float, **own) -> dict:
    """The columns bench.csv and sweep.csv share, in their order, with the
    CSV's ``own`` columns ahead of status."""
    return {"m_used": rep.m_used, "entries": rep.history[-1].entries,
            "attempts": len(rep.history), "eta": f"{rep.eta:.17g}",
            "wall_time_s": f"{wall_time:.6g}", **own, "status": rep.status}


def _speedup(base: float | None, own: float) -> str:
    """base / own from the unrounded times, not the 6-digit strings; blank
    without a base time or an own time above 0."""
    return f"{base / own:.6g}" if base and own > 0 else ""


def _kernel_sources(cfg: RunConfig, a: np.ndarray) -> DataSources:
    """The data sides for lazy kernel evaluation, compat already applied."""
    compat = make_compat(a, cfg["compat.mode"],
                         seed=cfg.get("compat.seed", "seed"))
    return apply_compat(compat, kernels.build_sources(a))


def _check_epsilons(cfg: RunConfig, key: str, epsilons) -> None:
    """eta is never negative: a negative or NaN epsilon is never met."""
    if not all(epsilon >= 0 for epsilon in epsilons):
        raise ConfigError(f"epsilon must be >= 0, got {key}={cfg[key]}")


def _growth_config(cfg: RunConfig, seed: int, **rsvd) -> NystromConfig:
    """The growth loop's config; each attempt derives n from its m.
    ``rsvd`` takes the rsvd baseline's oversample and power_iters."""
    return NystromConfig(r=cfg["rank"], m=cfg["nystrom.m"], seed=seed,
                         m_growth=cfg["nystrom.growth"], **rsvd)


def run_bench(cfg: RunConfig) -> Path:
    """solve_to_tolerance for every requested solver and epsilon.

    The benchmark runs on the uncentered kernel matrix. Dense baselines and
    the accuracy reference materialize it once; the sampled asymmetric
    solver only ever sees the lazy block source.
    """
    ncfg = _growth_config(cfg, cfg.get("solver.seed", "seed"),
                          oversample=cfg["solver.oversample"],
                          power_iters=cfg["solver.power_iters"])
    solvers = parse_names(cfg["bench.solvers"], "bench.solvers",
                          nystrom.SOLVERS)
    epsilons = parse_floats(cfg["bench.epsilons"], "bench.epsilons")
    _check_epsilons(cfg, "bench.epsilons", epsilons)
    a, _, _ = load_dataset(cfg)
    spec, sources = make_kernel_spec(cfg, a), _kernel_sources(cfg, a)
    g = kernels.kernel_matrix(spec, sources)
    reference = svd_exact(g, cfg["rank"])
    repeats = cfg["bench.repeats"]

    rows = []
    for epsilon in epsilons:
        timings, eps_rows = {}, []
        for solver in solvers:
            def make_source():
                return LazyKernelSource(spec, sources) \
                    if solver == "asym_nystrom" else g
            rep, median_time = _timed_solve(make_source, solver, epsilon,
                                            reference, ncfg, repeats)
            timings[solver] = median_time
            eps_rows.append({
                "solver": solver, "N": g.shape[0], "M": g.shape[1],
                "r": cfg["rank"], "epsilon": f"{epsilon:.17g}",
                **_solve_columns(rep, median_time, seed=ncfg.seed)})
        for row in eps_rows:
            row["speedup"] = _speedup(timings.get("rsvd"),
                                      timings[row["solver"]])
        rows += eps_rows
    return _write_rows(cfg, "bench", "bench.csv", rows)


def run_sweep(cfg: RunConfig) -> Path:
    """Bandwidth sweep: the sampled solver's budget and its speedup over
    bench's tsvd solve, per bandwidth: ``make_kernel_spec``'s gamma times
    each of sweep.gamma_scales."""
    if cfg["kernel.family"] == "linear":
        raise ConfigError("nystrom-sweep varies the kernel bandwidth, which "
                          "kernel.family=linear does not have")
    scales = parse_floats(cfg["sweep.gamma_scales"], "sweep.gamma_scales")
    ncfgs = [_growth_config(cfg, cfg["seed"] + i)
             for i in range(cfg["sweep.seeds"])]
    epsilon = cfg["nystrom.epsilon"]
    _check_epsilons(cfg, "nystrom.epsilon", [epsilon])
    a, _, _ = load_dataset(cfg)
    base = make_kernel_spec(cfg, a)
    # only the bandwidth changes from one gamma to the next
    sources = _kernel_sources(cfg, a)

    rows = []
    for gamma in sorted(base.gamma * scale for scale in scales):
        spec = KernelSpec(family=base.family, gamma=gamma)
        g = kernels.kernel_matrix(spec, sources)
        reference = svd_exact(g, cfg["rank"])
        t_dense = nystrom.solve_to_tolerance(g, "tsvd", epsilon, reference,
                                             ncfgs[0]).wall_time
        for ncfg in ncfgs:
            rep = nystrom.solve_to_tolerance(LazyKernelSource(spec, sources),
                                             "asym_nystrom", epsilon,
                                             reference, ncfg)
            rows.append({
                "gamma": f"{gamma:.17g}", "epsilon": f"{epsilon:.17g}",
                "seed": ncfg.seed, **_solve_columns(
                    rep, rep.wall_time,
                    speedup_vs_tsvd=_speedup(t_dense, rep.wall_time))})
    return _write_rows(cfg, "nystrom-sweep", "sweep.csv", rows)
