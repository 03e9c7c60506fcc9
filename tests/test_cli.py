"""End-to-end command line runs: outputs, manifests, exit codes."""
import csv
import json
import os

import numpy as np
import pytest

from aksvd import cli, datasets, kernels
from aksvd.config import KNOWN


@pytest.fixture(autouse=True)
def scrub_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("AKSVD_"):
            monkeypatch.delenv(name)


def run(*args):
    return cli.main(list(args))


def write_square_csv(path, a):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"c{i}" for i in range(a.shape[1])) + ",t\n")
        for i, row in enumerate(a):
            cells = ",".join(f"{x:.17g}" for x in row)
            fh.write(f"{cells},{i % 2}\n")


def read_rows(out_dir):
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_metrics(out_dir):
    return {row["metric_name"]: float(row["value"])
            for row in read_rows(out_dir)}


class TestExtract:
    def test_writes_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = run("extract", "--format", "synth", "--rank", "3",
                   "--set", "dataset.synth_n=24", "--out", str(out))
        assert code == 0
        for name in ("left.csv", "right.csv", "lambda.csv", "manifest.json"):
            assert (out / name).exists()
        assert (out / "model").is_dir()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "extract"
        assert set(manifest["versions"]) == {"python", "numpy", "aksvd"}
        assert manifest["config"]["rank"] == 3
        assert manifest["config"]["dataset.synth_n"] == 24

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        args = ("extract", "--format", "synth", "--rank", "3",
                "--set", "dataset.synth_n=20", "--seed", "5",
                "--out", str(out))
        assert run(*args) == 0
        first = {p.relative_to(out): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        assert run(*args) == 0
        assert {p.relative_to(out) for p in out.rglob("*")
                if p.is_file()} == set(first)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_linear_a0_recovers_singular_values(self, tmp_path):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9))
        data = tmp_path / "sq.csv"
        write_square_csv(data, a)
        out = tmp_path / "run"
        code = run("extract", "--format", "csv", "--dataset", str(data),
                   "--set", "dataset.target=t", "--rank", "9",
                   "--kernel", "linear", "--compat", "a0",
                   "--set", "center=false", "--out", str(out))
        assert code == 0
        lam = np.loadtxt(out / "lambda.csv", delimiter=",", ndmin=2).ravel()
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(lam, sv, rtol=1e-8, atol=0)

    def test_rank_beyond_numerical_rank_truncates(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        data = tmp_path / "lr.csv"
        write_square_csv(data, a)
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="[Tt]runcat"):
            code = run("extract", "--format", "csv", "--dataset", str(data),
                       "--set", "dataset.target=t", "--rank", "6",
                       "--kernel", "linear", "--compat", "a0",
                       "--set", "center=false", "--out", str(out))
        assert code == 0
        lam = np.loadtxt(out / "lambda.csv", delimiter=",", ndmin=2)
        assert lam.shape[0] == 2

    def test_gamma_flag_lands_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run("extract", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=16", "--gamma", "0.9",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kernel.gamma"] == 0.9

    @pytest.mark.parametrize("solver", ["exact", "truncated", "randomized",
                                        "nystrom"])
    def test_unread_config_keys_are_not_forwarded_to_fit(self, tmp_path,
                                                         solver, capsys):
        # a non-default value of a config key behind a solver_opts key that
        # the solver does not read is rejected (exit 2), naming the key and
        # the solver; the keys it reads pass, as do unread keys at their
        # defaults
        values = {"nystrom.n": "12", "nystrom.m": "12", "nystrom.seed": "3",
                  "nystrom.subproblem": "exact",
                  "nystrom.center_stats": "full", "solver.tol": "1e-9",
                  "solver.oversample": "4", "solver.power_iters": "1",
                  "solver.seed": "3"}
        reads = {"exact": (), "truncated": ("solver.tol", "solver.seed"),
                 "randomized": ("solver.oversample", "solver.power_iters",
                                "solver.seed"),
                 "nystrom": ("nystrom.n", "nystrom.m", "nystrom.seed",
                             "nystrom.subproblem", "nystrom.center_stats",
                             "solver.oversample", "solver.power_iters")}
        base = ("extract", "--format", "synth", "--rank", "2", "--solver",
                solver, "--set", "dataset.synth_n=24")
        unread = [key for key in values if key not in reads[solver]]
        assert unread
        for key in unread:
            assert run(*base, "--set", f"{key}={values[key]}",
                       "--out", str(tmp_path / key)) == 2
            err = capsys.readouterr().err
            assert key in err and repr(solver) in err
            assert not (tmp_path / key).exists()
        # the keys it reads, the others at their defaults
        defaults = {"nystrom.n": "none", "nystrom.m": "none",
                    "nystrom.seed": "none", "nystrom.subproblem": "rsvd",
                    "nystrom.center_stats": "sampled", "solver.tol": "1e-10",
                    "solver.oversample": "10", "solver.power_iters": "2",
                    "solver.seed": "none"}
        chosen = {key: values[key] if key in reads[solver] else defaults[key]
                  for key in values}
        sets = [arg for key, value in chosen.items()
                for arg in ("--set", f"{key}={value}")]
        out = tmp_path / "run"
        assert run(*base, *sets, "--out", str(out)) == 0
        lam = np.loadtxt(out / "lambda.csv", delimiter=",", ndmin=2)
        assert lam.shape[0] == 2

    def test_env_override_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AKSVD_RANK", "2")
        out = tmp_path / "run"
        assert run("extract", "--format", "synth",
                   "--set", "dataset.synth_n=16", "--out", str(out)) == 0
        lam = np.loadtxt(out / "lambda.csv", delimiter=",", ndmin=2)
        assert lam.shape[0] == 2


class TestFlags:
    @pytest.mark.parametrize("flag", list(cli._FLAG_KEYS))
    def test_flag_writes_the_manifest_of_its_config_key(self, tmp_path,
                                                        monkeypatch, flag):
        # synth data ignore dataset.path, and edge_list data read base.edges;
        # the base run's path and rank come from the environment, since
        # --set would override the flag
        for name in ("base.edges", "other.edges"):
            (tmp_path / name).write_text(
                "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n2 5\n",
                encoding="utf-8")
        monkeypatch.setenv("AKSVD_DATASET_PATH", str(tmp_path / "base.edges"))
        monkeypatch.setenv("AKSVD_RANK", "2")
        out = tmp_path / "run"
        value = {"dataset": str(tmp_path / "other.edges"),
                 "format": "edge_list", "kernel": "rbf", "gamma": "0.5",
                 "compat": "identity", "method": "svd", "rank": "3",
                 "solver": "truncated", "seed": "7", "out": str(out)}[flag]
        key = cli._FLAG_KEYS[flag][0]
        # extract reads no method: the feature commands do
        command = "classify" if flag == "method" else "extract"
        manifests = []
        for args in ((f"--{flag}", value), ("--set", f"{key}={value}")):
            assert run(command, "--set", "dataset.synth_n=12",
                       "--out", str(out), *args) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        written = json.loads(manifests[0])["config"][key]
        assert written == KNOWN[key].parse(value) != KNOWN[key].default


class TestExitCodes:
    def test_unknown_set_key(self, tmp_path, capsys):
        code = run("extract", "--set", "no.such.key=1",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "no.such.key" in capsys.readouterr().err

    def test_malformed_set(self, tmp_path):
        assert run("extract", "--set", "rank", "--out", str(tmp_path)) == 2

    def test_missing_dataset_file(self, tmp_path, capsys):
        code = run("extract", "--format", "edge_list",
                   "--dataset", str(tmp_path / "gone.edges"),
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AKSVD_BOGUS_KEY", "1")
        code = run("extract", "--format", "synth",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "AKSVD_BOGUS_KEY" in capsys.readouterr().err

    def test_rank_above_dims_is_numeric_failure(self, tmp_path, capsys):
        code = run("extract", "--format", "synth", "--rank", "99",
                   "--set", "dataset.synth_n=6", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting", [
        ("bench", "bench.repeats=0"),
        ("bench", "bench.repeats=-2"),
        ("nystrom-sweep", "sweep.seeds=0"),
    ])
    def test_no_repeats_or_seeds_rejected(self, tmp_path, capsys, command,
                                          setting):
        out = tmp_path / "x"
        code = run(command, "--format", "synth", "--set", "dataset.synth_n=60",
                   "--set", setting, "--out", str(out))
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver, setting", [
        ("randomized", "solver.oversample=-3"),
        ("randomized", "solver.power_iters=-1"),
        ("truncated", "solver.tol=-1"),
        ("truncated", "solver.tol=nan"),
    ])
    def test_negative_dense_solver_option_is_config_error(
            self, tmp_path, capsys, solver, setting):
        code = run("extract", "--format", "synth", "--solver", solver,
                   "--set", "dataset.synth_n=40", "--set", setting,
                   "--out", str(tmp_path / "x"))
        assert code == 2
        name = setting.split("=")[0].split(".")[1]
        assert f"{name} must be >= 0" in capsys.readouterr().err

    def test_negative_sample_budget_is_config_error(self, tmp_path, capsys):
        code = run("extract", "--format", "synth", "--solver", "nystrom",
                   "--set", "dataset.synth_n=24", "--set", "nystrom.m=-5",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "m must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "nystrom-sweep"])
    def test_row_sample_count_rejected(self, tmp_path, capsys, command):
        # every attempt of the growth loop derives n from m
        out = tmp_path / "x"
        code = run(command, "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=24", "--set", "nystrom.n=12",
                   "--out", str(out))
        assert code == 2
        assert "nystrom.n=12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, own", [
        ("bench", ("bench.repeats=1", "bench.solvers=tsvd")),
        ("nystrom-sweep", ("sweep.seeds=1", "sweep.gamma_scales=1.0")),
    ], ids=["bench", "nystrom-sweep"])
    def test_fit_only_keys_rejected(self, tmp_path, capsys, command, own):
        # the growth loop solves the uncentered kernel with the bench's
        # solvers: the keys that set up a fit are read by neither command
        base = (command, "--format", "synth", "--rank", "2",
                "--set", "dataset.synth_n=24",
                *(arg for setting in own for arg in ("--set", setting)))
        for key, value in (("solver", "truncated"), ("solver.tol", "1e-3"),
                           ("solver.seed", "3"),
                           ("nystrom.center_stats", "full"),
                           ("center", "false")):
            out = tmp_path / key
            assert run(*base, "--set", f"{key}={value}",
                       "--out", str(out)) == 2, key
            assert key in capsys.readouterr().err
            assert not out.exists()
        assert run(*base, "--set", "solver=exact", "--set", "center=true",
                   "--out", str(tmp_path / "defaults")) == 0

    @pytest.mark.parametrize("command, setting, message", [
        ("bench", "bench.epsilons=-1", "epsilon must be >= 0"),
        ("bench", "bench.epsilons=0.1,nan", "epsilon must be >= 0"),
        ("bench", "bench.solvers=tsvd,bogus", "bench.solvers entries"),
        ("nystrom-sweep", "nystrom.epsilon=-1", "epsilon must be >= 0"),
        ("nystrom-sweep", "nystrom.epsilon=nan", "epsilon must be >= 0"),
    ])
    def test_bad_values_rejected_before_the_dataset_loads(
            self, tmp_path, capsys, monkeypatch, command, setting, message):
        # eta is never negative: a solve to such an epsilon would only grow
        # to its cap, after the dense kernel and the reference SVD
        from aksvd import pipeline

        def load_dataset(cfg):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(pipeline, "load_dataset", load_dataset)
        out = tmp_path / "x"
        assert run(command, "--format", "synth", "--set", setting,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and setting.split("=")[0] in err
        assert not out.exists()

    def test_full_center_stats_without_centering_rejected(self, tmp_path,
                                                          capsys):
        code = run("extract", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=24", "--solver", "nystrom",
                   "--set", "center=false",
                   "--set", "nystrom.center_stats=full",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "center=False" in capsys.readouterr().err

    def test_uncentered_nystrom_keeps_the_default_center_stats(self,
                                                              tmp_path):
        # the pipeline always forwards nystrom.center_stats, "sampled" unset
        assert run("extract", "--format", "synth", "--rank", "2",
                   "--solver", "nystrom", "--set", "dataset.synth_n=24",
                   "--set", "nystrom.m=12", "--set", "center=false",
                   "--out", str(tmp_path / "x")) == 0

    @pytest.mark.parametrize("args", [("--rank", "abc"),
                                      ("--kernel", "bogus")])
    def test_bad_flag_value(self, tmp_path, args):
        # --rank is parsed by the config layer, --kernel checked by argparse
        # against the config key's choices; both are bad input
        assert run("extract", "--format", "synth", *args,
                   "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    def test_edge_list_without_edges(self, tmp_path, capsys):
        data = tmp_path / "empty.edges"
        data.write_text("# no edges\n", encoding="utf-8")
        code = run("extract", "--format", "edge_list", "--dataset", str(data),
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "empty.edges: no edges" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "extract" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 2


class TestClassify:
    def test_two_block_metrics(self, tmp_path):
        out = tmp_path / "run"
        code = run("classify", "--format", "synth", "--rank", "4",
                   "--set", "dataset.synth_n=60", "--seed", "3",
                   "--out", str(out))
        assert code == 0
        metrics = read_metrics(out)
        assert {"accuracy", "micro_f1", "macro_f1", "auroc"} <= set(metrics)
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    def test_single_class_labels_rejected(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\nc a\n")
        labels = tmp_path / "g.labels"
        labels.write_text("a 0\nb 0\nc 0\n")
        code = run("classify", "--format", "edge_list",
                   "--dataset", str(edges), "--rank", "2",
                   "--set", f"dataset.labels={labels}",
                   "--set", "split.test_fraction=0.34",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "two classes" in capsys.readouterr().err

    def test_unlabeled_synth_rejected(self, tmp_path):
        code = run("classify", "--format", "synth",
                   "--set", "dataset.synth_kind=cycle",
                   "--set", "dataset.synth_n=12",
                   "--out", str(tmp_path / "x"))
        assert code == 2

    def test_baseline_methods_run(self, tmp_path):
        # each row names the kernel that made the features: kpca's rbf with
        # the bandwidth of the symmetrized data, and none for svd and pca
        a = datasets.synth_directed_graph("two_block", 40, seed=0).adjacency
        kpca_gamma = f"{kernels.default_gamma(0.5 * (a + a.T)):.17g}"
        for method, kernel, gamma in (("kpca", "rbf", kpca_gamma),
                                      ("svd", "", ""), ("pca", "", "")):
            out = tmp_path / method
            code = run("classify", "--format", "synth", "--rank", "3",
                       "--set", "dataset.synth_n=40", "--method", method,
                       "--out", str(out))
            assert code == 0, method
            assert "accuracy" in read_metrics(out)
            for row in read_rows(out):
                assert (row["kernel"], row["gamma"]) == (kernel, gamma), method

    @pytest.mark.parametrize("method", ["svd", "kpca", "pca"])
    def test_baseline_methods_reject_solver_keys(self, tmp_path, method,
                                                 capsys):
        # svd, kpca and pca fit no solver: a non-default solver, solver.*
        # or nystrom solver key exits 2, naming the key and the method, and
        # writes nothing; the same keys at their defaults pass
        values = {"solver": "truncated", "solver.tol": "1e-3",
                  "solver.oversample": "4", "solver.power_iters": "1",
                  "solver.seed": "3", "nystrom.n": "12", "nystrom.m": "5",
                  "nystrom.seed": "3", "nystrom.subproblem": "exact",
                  "nystrom.center_stats": "full"}
        base = ("classify", "--format", "synth", "--rank", "3",
                "--set", "dataset.synth_n=40", "--method", method)
        for key, value in values.items():
            out = tmp_path / key
            assert run(*base, "--set", f"{key}={value}",
                       "--out", str(out)) == 2, key
            err = capsys.readouterr().err
            assert key in err and repr(method) in err
            assert not out.exists()
        assert run(*base, "--set", "solver=exact", "--set", "solver.tol=1e-10",
                   "--set", "nystrom.m=none",
                   "--out", str(tmp_path / "defaults")) == 0

    @pytest.mark.parametrize("method, unread, read", [
        # svd and pca use no kernel, compat transform or centering switch
        ("svd", {"kernel.family": "rbf", "kernel.gamma": "0.3",
                 "kernel.gamma_k": "2", "compat.mode": "a0",
                 "compat.seed": "3", "center": "false"}, {}),
        ("pca", {"kernel.family": "linear", "kernel.gamma": "0.3",
                 "kernel.gamma_k": "2", "compat.mode": "identity",
                 "compat.seed": "3", "center": "false"}, {}),
        # kpca runs an rbf kernel with its own gamma: the default family,
        # sne, cannot be told from an unset key, so it passes; a given
        # gamma leaves kernel.gamma_k unread (TestReads)
        ("kpca", {"kernel.family": "linear", "compat.mode": "a1",
                  "compat.seed": "3", "center": "false"},
         {"kernel.family": "rbf", "kernel.gamma_k": "2"}),
    ], ids=["svd", "pca", "kpca"])
    def test_baseline_methods_reject_kernel_compat_and_center(
            self, tmp_path, capsys, method, unread, read):
        base = ("classify", "--format", "synth", "--rank", "3",
                "--set", "dataset.synth_n=40", "--method", method)
        for key, value in unread.items():
            out = tmp_path / key
            assert run(*base, "--set", f"{key}={value}",
                       "--out", str(out)) == 2, key
            err = capsys.readouterr().err
            assert key in err and repr(method) in err
            assert not out.exists()
        sets = [arg for key, value in read.items()
                for arg in ("--set", f"{key}={value}")]
        assert run(*base, *sets, "--set", "center=true",
                   "--set", "compat.mode=auto",
                   "--out", str(tmp_path / "read")) == 0

    @pytest.mark.parametrize("family", ["sne", "linear"])
    def test_ksvd_rows_name_the_configured_kernel(self, tmp_path, family):
        a = datasets.synth_directed_graph("two_block", 40, seed=3).adjacency
        gamma = "" if family == "linear" else \
            f"{kernels.default_gamma(a):.17g}"
        out = tmp_path / "run"
        assert run("classify", "--format", "synth", "--rank", "3",
                   "--set", "dataset.synth_n=40", "--seed", "3",
                   "--set", f"kernel.family={family}",
                   "--out", str(out)) == 0
        rows = read_rows(out)
        assert [row["metric_name"] for row in rows] == \
            ["accuracy", "micro_f1", "macro_f1", "auroc"]
        for row in rows:
            assert {k: v for k, v in row.items()
                    if k not in ("metric_name", "value")} == {
                "task": "classify", "method": "ksvd", "kernel": family,
                "gamma": gamma, "seed": "3"}


class TestReconstruct:
    def test_cycle_exact_with_svd_method(self, tmp_path):
        out = tmp_path / "run"
        code = run("reconstruct", "--format", "synth", "--method", "svd",
                   "--set", "dataset.synth_kind=cycle",
                   "--set", "dataset.synth_n=8", "--rank", "8",
                   "--out", str(out))
        assert code == 0
        metrics = read_metrics(out)
        assert metrics["l1"] == 0.0
        assert metrics["l2"] == 0.0

    def test_csv_dataset_rejected(self, tmp_path):
        data = tmp_path / "d.csv"
        write_square_csv(data, np.eye(4))
        code = run("reconstruct", "--format", "csv", "--dataset", str(data),
                   "--set", "dataset.target=t", "--out", str(tmp_path / "x"))
        assert code == 2


class TestRegress:
    def test_rmse_row(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        y = x @ np.array([1.0, -1.0, 2.0, 0.5])
        data = tmp_path / "d.csv"
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("a,b,c,d,y\n")
            for row, t in zip(x, y):
                cells = ",".join(f"{v:.17g}" for v in row)
                fh.write(f"{cells},{t:.17g}\n")
        out = tmp_path / "run"
        code = run("regress", "--format", "csv", "--dataset", str(data),
                   "--set", "dataset.target=y",
                   "--set", "dataset.task=regression",
                   "--rank", "3", "--out", str(out))
        assert code == 0
        assert read_metrics(out)["rmse"] >= 0.0

    @pytest.mark.parametrize("gamma_reg", ["0", "-1"])
    def test_non_positive_gamma_reg_rejected(self, tmp_path, capsys,
                                             gamma_reg):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n1,0,1\n0,1,2\n1,1,3\n2,1,4\n",
                        encoding="utf-8")
        out = tmp_path / "run"
        code = run("regress", "--format", "csv", "--dataset", str(data),
                   "--set", "dataset.target=y",
                   "--set", "dataset.task=regression", "--rank", "1",
                   "--set", f"eval.gamma_reg={gamma_reg}", "--out", str(out))
        assert code == 2
        assert "gamma_reg must be positive" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_classification_task_rejected(self, tmp_path):
        data = tmp_path / "d.csv"
        write_square_csv(data, np.eye(5))
        code = run("regress", "--format", "csv", "--dataset", str(data),
                   "--set", "dataset.target=t", "--out", str(tmp_path / "x"))
        assert code == 2


class TestBench:
    def read_rows(self, out):
        with open(out / "bench.csv", newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_loose_tolerance_first_attempt(self, tmp_path):
        out = tmp_path / "run"
        code = run("bench", "--format", "synth", "--rank", "3",
                   "--set", "dataset.synth_n=24",
                   "--set", "bench.epsilons=10.0",
                   "--set", "bench.repeats=1",
                   "--set", "nystrom.m=8", "--out", str(out))
        assert code == 0
        rows = {row["solver"]: row for row in self.read_rows(out)}
        assert set(rows) == {"tsvd", "rsvd", "asym_nystrom"}
        assert all(row["status"] == "ok" for row in rows.values())
        # loose tolerance: the sampled solver stops at its starting budget
        assert int(rows["asym_nystrom"]["m_used"]) == 8
        assert float(rows["rsvd"]["speedup"]) == 1.0
        # one attempt each; the sampled solver evaluates N*m + n*M entries,
        # the dense baselines all of G
        assert {row["attempts"] for row in rows.values()} == {"1"}
        assert int(rows["asym_nystrom"]["entries"]) == 24 * 8 + 8 * 24
        assert int(rows["tsvd"]["entries"]) == 24 * 24
        assert int(rows["rsvd"]["entries"]) == 24 * 24

    def test_speedups_use_unrounded_times(self, tmp_path, monkeypatch):
        # a time that rounds at 6 significant digits: rsvd's speedup over
        # itself must still be exactly 1
        from aksvd import pipeline
        timed_solve = pipeline._timed_solve
        monkeypatch.setattr(
            pipeline, "_timed_solve",
            lambda *args: (timed_solve(*args)[0], 0.000123456789))
        out = tmp_path / "run"
        code = run("bench", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=16",
                   "--set", "bench.repeats=1",
                   "--set", "bench.solvers=tsvd,rsvd", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert {row["wall_time_s"] for row in rows} == {"0.000123457"}
        assert {row["speedup"] for row in rows} == {"1"}

    def test_unreachable_tolerance_is_a_row_not_a_crash(self, tmp_path):
        out = tmp_path / "run"
        code = run("bench", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=16",
                   "--set", "bench.epsilons=1e-18",
                   "--set", "bench.repeats=1",
                   "--set", "bench.solvers=asym_nystrom", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 1
        assert rows[0]["status"] == "tolerance_unreachable"
        # the starting budget, 32 columns, is capped at M = 16: one attempt
        # that evaluates every entry of both blocks
        assert rows[0]["attempts"] == "1"
        assert int(rows[0]["entries"]) == 2 * 16 * 16

    def test_negative_epsilon_rejected(self, tmp_path, capsys):
        # eta is never negative: every solver would grow to its cap
        code = run("bench", "--format", "synth",
                   "--set", "dataset.synth_n=40", "--set", "bench.epsilons=-1",
                   "--set", "bench.repeats=1", "--out", str(tmp_path / "run"))
        assert code == 2
        assert "epsilon must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run" / "bench.csv").exists()

    def test_two_epsilons_make_two_row_groups(self, tmp_path):
        out = tmp_path / "run"
        code = run("bench", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=16",
                   "--set", "bench.epsilons=10.0,1.0",
                   "--set", "bench.repeats=1",
                   "--set", "bench.solvers=tsvd,rsvd", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 4
        assert len({row["epsilon"] for row in rows}) == 2


class TestSweep:
    def test_rows_per_gamma_and_seed(self, tmp_path):
        out = tmp_path / "run"
        code = run("nystrom-sweep", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=24",
                   "--set", "sweep.gamma_scales=0.5,2.0",
                   "--set", "sweep.seeds=2", "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        gammas = [float(row["gamma"]) for row in rows]
        assert gammas == sorted(gammas)
        assert {row["seed"] for row in rows} == {"0", "1"}

    def test_starting_budget_is_honored(self, tmp_path):
        # loose tolerance: every solve stops at its starting budget
        out = tmp_path / "run"
        code = run("nystrom-sweep", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=24",
                   "--set", "sweep.gammas=0.5", "--set", "sweep.seeds=2",
                   "--set", "nystrom.epsilon=10.0", "--set", "nystrom.m=8",
                   "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["m_used"] for row in rows] == ["8", "8"]
        assert {row["status"] for row in rows} == {"ok"}
        assert [row["attempts"] for row in rows] == ["1", "1"]
        assert [row["entries"] for row in rows] == [str(24 * 8 + 8 * 24)] * 2

    def test_negative_epsilon_rejected(self, tmp_path, capsys):
        code = run("nystrom-sweep", "--format", "synth",
                   "--set", "dataset.synth_n=24", "--set", "sweep.seeds=1",
                   "--set", "nystrom.epsilon=-1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "epsilon must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x" / "sweep.csv").exists()

    def test_sources_are_built_once_per_sweep(self, tmp_path, monkeypatch):
        # a rectangular csv, so the sources include a compat transform;
        # every column but the timings equals that of one-gamma sweeps
        from aksvd import ksvd
        a = np.random.default_rng(9).standard_normal((30, 22))
        write_square_csv(tmp_path / "data.csv", a)
        calls = []
        transformed = ksvd._transformed_sources

        def counted(*args):
            calls.append(args)
            return transformed(*args)

        monkeypatch.setattr(ksvd, "_transformed_sources", counted)

        def sweep(gammas, name):
            out = tmp_path / name
            assert run("nystrom-sweep", "--format", "csv", "--dataset",
                       str(tmp_path / "data.csv"), "--set", "dataset.target=t",
                       "--rank", "2", "--set", f"sweep.gammas={gammas}",
                       "--set", "sweep.seeds=2", "--set", "nystrom.m=6",
                       "--out", str(out)) == 0
            with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
                return [{k: v for k, v in row.items()
                         if k not in ("wall_time_s", "speedup_vs_tsvd")}
                        for row in csv.DictReader(fh)]

        together = sweep("4.0,1.0,2.5", "all")
        assert len(calls) == 1
        apart = [row for gamma in ("1.0", "2.5", "4.0")
                 for row in sweep(gamma, gamma)]
        assert len(calls) == 4
        assert together == apart

    def test_explicit_gamma_grid(self, tmp_path):
        out = tmp_path / "run"
        code = run("nystrom-sweep", "--format", "synth", "--rank", "2",
                   "--set", "dataset.synth_n=16",
                   "--set", "sweep.gammas=0.3,0.1",
                   "--set", "sweep.seeds=1", "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            gammas = [float(row["gamma"]) for row in csv.DictReader(fh)]
        assert gammas == [0.1, 0.3]


class TestReads:
    # command -> (its own settings for a small, fast run, a key it does not
    # read, a key it reads); regress reads a csv dataset written by the test
    CASES = {
        "extract": ((), "bench.repeats=7", "kernel.gamma_k=2"),
        "classify": ((), "nystrom.growth=3", "split.test_fraction=0.5"),
        "regress": ((), "sweep.seeds=2", "eval.gamma_reg=0.5"),
        "reconstruct": ((), "features.sides=left", "kernel.gamma_k=2"),
        "bench": (("bench.repeats=1", "bench.solvers=tsvd"),
                  "nystrom.epsilon=0.5", "bench.epsilons=0.5"),
        "nystrom-sweep": (("sweep.seeds=1", "sweep.gamma_scales=1.0"),
                          "kernel.gamma=0.3", "nystrom.epsilon=0.5"),
    }

    @staticmethod
    def named(setting):
        # the message names each key with its parsed value
        key, _, raw = setting.partition("=")
        return f"{key}={KNOWN[key].parse(raw)}"

    def test_every_command_and_method_has_an_entry(self):
        from aksvd import pipeline
        assert set(self.CASES) == set(cli._COMMANDS)
        assert set(cli._COMMANDS) | set(KNOWN["method"].choices) <= set(
            pipeline.READS)
        for keys in pipeline.READS.values():
            for key in keys:
                assert key in KNOWN and not key.startswith("dataset."), key

    @pytest.mark.parametrize("command", list(CASES))
    def test_unread_key_rejected_and_read_key_taken(self, tmp_path, capsys,
                                                    command):
        own, unread, read = self.CASES[command]
        if command == "regress":
            data = tmp_path / "d.csv"
            rng = np.random.default_rng(4)
            write_square_csv(data, rng.standard_normal((12, 12)))
            base = ("--format", "csv", "--dataset", str(data),
                    "--set", "dataset.target=t",
                    "--set", "dataset.task=regression")
        else:
            base = ("--format", "synth", "--set", "dataset.synth_n=24")
        base = (command, *base, "--rank", "2",
                *(arg for setting in own for arg in ("--set", setting)))
        out = tmp_path / "unread"
        assert run(*base, "--set", unread, "--out", str(out)) == 2
        assert self.named(unread) in capsys.readouterr().err
        assert not out.exists()
        assert run(*base, "--set", read,
                   "--out", str(tmp_path / "read")) == 0

    @pytest.mark.parametrize("args, unread", [
        (("extract", "--set", "bench.repeats=7", "--set", "nystrom.growth=3"),
         ("bench.repeats=7", "nystrom.growth=3")),
        (("extract", "--method", "svd"), ("method=svd",)),
        (("extract", "--set", "split.test_fraction=0.5"),
         ("split.test_fraction=0.5",)),
        (("nystrom-sweep", "--set", "nystrom.seed=5",
          "--set", "kernel.gamma=0.3"),
         ("nystrom.seed=5", "kernel.gamma=0.3")),
        (("reconstruct", "--set", "features.sides=left"),
         ("features.sides=left",)),
        (("classify", "--method", "svd", "--set", "features.sides=left"),
         ("features.sides=left",)),
    ], ids=["extract-bench-keys", "extract-method", "extract-split",
            "sweep-seed-gamma", "reconstruct-sides", "classify-svd-sides"])
    def test_each_unread_key_is_named(self, tmp_path, capsys, args, unread):
        out = tmp_path / "x"
        assert run(*args, "--format", "synth", "--set", "dataset.synth_n=24",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        for setting in unread:
            assert self.named(setting) in err
        assert not out.exists()

    @pytest.mark.parametrize("args, unread", [
        (("nystrom-sweep", "--set", "sweep.seeds=1",
          "--set", "sweep.gammas=0.5", "--set", "sweep.gamma_scales=2.0",
          "--set", "kernel.gamma_k=3"),
         ("sweep.gamma_scales=2.0", "kernel.gamma_k=3")),
        (("extract", "--kernel", "linear", "--set", "kernel.gamma=0.3",
          "--set", "kernel.gamma_k=2"),
         ("kernel.gamma=0.3", "kernel.gamma_k=2")),
        (("extract", "--set", "kernel.gamma=0.3", "--set", "kernel.gamma_k=2"),
         ("kernel.gamma_k=2",)),
        (("classify", "--method", "kpca", "--set", "kernel.gamma=0.3",
          "--set", "kernel.gamma_k=2"),
         ("kernel.gamma_k=2",)),
        (("bench", "--kernel", "linear", "--set", "bench.repeats=1",
          "--set", "kernel.gamma_k=2"),
         ("kernel.gamma_k=2",)),
    ], ids=["sweep-gammas", "extract-linear", "extract-gamma", "kpca-gamma",
            "bench-linear"])
    def test_a_value_that_leaves_keys_unread_names_them(
            self, tmp_path, capsys, args, unread):
        # each key in UNREAD_WHEN, at the value that leaves the others
        # unread, rejects them; at its other values they stay read (below)
        out = tmp_path / "x"
        assert run(*args, "--format", "synth", "--set", "dataset.synth_n=24",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        for setting in unread:
            assert self.named(setting) in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("nystrom-sweep", "--set", "sweep.seeds=1",
         "--set", "sweep.gamma_scales=2.0", "--set", "kernel.gamma_k=3"),
        ("nystrom-sweep", "--set", "sweep.seeds=1",
         "--set", "sweep.gammas=0.5"),
        ("extract", "--kernel", "linear"),
        ("extract", "--kernel", "rbf", "--set", "kernel.gamma=0.3"),
        ("classify", "--method", "kpca", "--set", "kernel.gamma=0.3"),
    ], ids=["sweep-scales", "sweep-gammas", "extract-linear",
            "extract-gamma", "kpca-gamma"])
    def test_keys_stay_read_under_other_values(self, tmp_path, args):
        assert run(*args, "--format", "synth", "--set", "dataset.synth_n=24",
                   "--rank", "2", "--out", str(tmp_path / "x")) == 0

    def test_file_and_environment_values_are_checked(self, tmp_path, capsys,
                                                     monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("dataset.synth_n = 24\nbench.repeats = 7\n",
                          encoding="utf-8")
        assert run("extract", "--config", str(config),
                   "--out", str(tmp_path / "file")) == 2
        assert "bench.repeats=7" in capsys.readouterr().err
        monkeypatch.setenv("AKSVD_NYSTROM_GROWTH", "3")
        assert run("extract", "--set", "dataset.synth_n=24",
                   "--out", str(tmp_path / "env")) == 2
        assert "nystrom.growth=3.0" in capsys.readouterr().err
        assert not (tmp_path / "file").exists()
        assert not (tmp_path / "env").exists()
