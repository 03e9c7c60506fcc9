"""Smoke test of the experiment script the CLI has no command for."""
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "graph_downstream.py"


def test_graph_downstream_runs(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("graph_downstream", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--n", "40", "--seeds",
                                      "2", "--out", str(tmp_path / "down")])
    module.main()
    printed = capsys.readouterr().out
    for method in ("ksvd", "kpca", "svd", "pca"):
        assert (tmp_path / "down" / f"{method}-1" / "metrics.csv").is_file()
        assert f"{method:>8} " in printed
    assert "directed 64-cycle" in printed
