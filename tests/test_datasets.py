"""Edge-list parsing, tabular loading, synthetic graph generators."""
import csv
from pathlib import Path

import numpy as np
import pytest

from aksvd import datasets as ds
from aksvd.errors import ConfigError, NonNumericFeatureError, ParseError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestEdgeList:
    def test_single_directed_edge(self, tmp_path):
        p = write(tmp_path, "g.txt", "0\t1\n")
        g = ds.load_edge_list(p)
        np.testing.assert_array_equal(g.adjacency, [[0, 1], [0, 0]])

    def test_single_undirected_edge(self, tmp_path):
        p = write(tmp_path, "g.txt", "0\t1\n")
        g = ds.load_edge_list(p, directed=False)
        np.testing.assert_array_equal(g.adjacency, [[0, 1], [1, 0]])

    def test_first_appearance_order(self, tmp_path):
        p = write(tmp_path, "g.txt", "b a\nc b\n")
        g = ds.load_edge_list(p)
        # b -> 0, a -> 1, c -> 2
        expect = np.zeros((3, 3))
        expect[0, 1] = 1.0
        expect[2, 0] = 1.0
        np.testing.assert_array_equal(g.adjacency, expect)

    def test_deterministic_reload(self, tmp_path):
        p = write(tmp_path, "g.txt", "x y\ny z\nz x\n")
        first = ds.load_edge_list(p)
        second = ds.load_edge_list(p)
        np.testing.assert_array_equal(first.adjacency, second.adjacency)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = write(tmp_path, "g.txt",
                  "# header comment\n\n0 1  # trailing note\n1 2\n")
        g = ds.load_edge_list(p)
        assert g.adjacency.sum() == 2

    def test_duplicate_edges_idempotent(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n0 1\n0 1\n")
        g = ds.load_edge_list(p)
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency.sum() == 1.0

    def test_self_loop_policy(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 0\n0 1\n")
        dropped = ds.load_edge_list(p)
        assert dropped.adjacency[0, 0] == 0.0
        assert dropped.adjacency.sum() == 1.0

    def test_node_count_identity_mapping(self, tmp_path):
        p = write(tmp_path, "g.txt", "3 1\n")
        g = ds.load_edge_list(p, node_count=5)
        assert g.node_count == 5
        assert g.adjacency[3, 1] == 1.0

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n0 1 2\n")
        with pytest.raises(ParseError, match=":2:"):
            ds.load_edge_list(p)
        p2 = write(tmp_path, "g2.txt", "0 1\nfoo 2\n")
        with pytest.raises(ParseError, match=":2:"):
            ds.load_edge_list(p2, node_count=5)
        p3 = write(tmp_path, "g3.txt", "0 9\n")
        with pytest.raises(ParseError, match="outside"):
            ds.load_edge_list(p3, node_count=5)

    def test_label_join(self, tmp_path):
        edges = write(tmp_path, "g.txt", "a b\nb c\n")
        labels = write(tmp_path, "labels.txt", "a red\nc blue\nzz green\n")
        g = ds.load_edge_list(edges, labels_path=labels)
        # classes sorted: blue=0, red=1; node b unlabeled
        np.testing.assert_array_equal(g.labels, [1, -1, 0])

    def test_directionality_statistics(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n")
        directed = ds.load_edge_list(p)
        assert np.abs(directed.adjacency - directed.adjacency.T).sum() > 0
        undirected = ds.load_edge_list(p, directed=False)
        np.testing.assert_array_equal(undirected.adjacency,
                                      undirected.adjacency.T)

    def test_out_degrees(self, tmp_path):
        p = write(tmp_path, "g.txt", "0 1\n0 2\n1 2\n")
        g = ds.load_edge_list(p)
        np.testing.assert_array_equal(g.out_degrees(), [2, 1, 0])

    @pytest.mark.parametrize("directed", [True, False])
    def test_adjacency_matches_the_edge_loop(self, tmp_path, directed):
        # repeated edges, reversed pairs and self-loops among 40 nodes; the
        # adjacency is the one an assignment per edge but a self-loop makes
        edges = np.random.default_rng(5).integers(0, 40, (300, 2))
        edges[:20, 1] = edges[:20, 0]
        p = write(tmp_path, "g.txt",
                  "".join(f"{s} {d}\n" for s, d in edges))
        g = ds.load_edge_list(p, node_count=40, directed=directed)
        want = np.zeros((40, 40))
        for src, dst in edges:
            if src == dst:
                continue
            want[src, dst] = 1.0
            if not directed:
                want[dst, src] = 1.0
        assert g.adjacency.dtype == want.dtype
        np.testing.assert_array_equal(g.adjacency, want)

    def test_no_edges(self, tmp_path):
        p = write(tmp_path, "g.txt", "# nothing\n")
        assert ds.load_edge_list(p, node_count=3).adjacency.sum() == 0.0

    def test_no_nodes_is_a_parse_error(self, tmp_path):
        # without node_count, a file with no edges names no node at all
        p = write(tmp_path, "empty.txt", "# nothing\n\n")
        with pytest.raises(ParseError, match="empty.txt: no edges"):
            ds.load_edge_list(p)


class TestGraphDatasetValidation:
    def test_square_required(self):
        with pytest.raises(ConfigError):
            ds.GraphDataset(np.zeros((2, 3)))

    def test_binary_required(self):
        with pytest.raises(ConfigError):
            ds.GraphDataset(0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("row", [0, ds._PANEL_ROWS + 5])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.5, 2.0])
    def test_non_binary_entry_rejected_in_any_panel(self, value, row):
        adj = np.eye(ds._PANEL_ROWS + 10)
        adj[row, 3] = value
        with pytest.raises(ConfigError, match="0 or 1"):
            ds.GraphDataset(adj)

    def test_negative_zero_accepted(self):
        adj = np.eye(ds._PANEL_ROWS + 10)
        adj[ds._PANEL_ROWS + 5, 3] = -0.0
        assert ds.GraphDataset(adj).adjacency[ds._PANEL_ROWS + 5, 3] == 0.0

    def test_label_length(self):
        with pytest.raises(ConfigError):
            ds.GraphDataset(np.zeros((3, 3)), labels=np.zeros(2))


class TestLoadCsv:
    def test_numeric_with_target(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,0\n2,1\n3,0\n")
        tab = ds.load_csv(p, "y", "classification")
        assert tab.features.shape == (3, 1)
        np.testing.assert_array_equal(tab.features.ravel(), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(tab.targets, [0, 1, 0])

    def test_constant_column_zscore(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b,y\n7,1,0\n7,2,1\n7,3,0\n")
        tab = ds.load_csv(p, "y", "classification", zscore=True)
        np.testing.assert_array_equal(tab.features[:, 0], 0.0)
        assert tab.features[:, 1].std() == pytest.approx(1.0)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        mat = rng.standard_normal((6, 3))
        target = rng.standard_normal(6)
        p = tmp_path / "emit.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["f0", "f1", "f2", "y"])
            for row, t in zip(mat, target):
                w.writerow([f"{v:.17g}" for v in row] + [f"{t:.17g}"])
        tab = ds.load_csv(p, "y", "regression")
        np.testing.assert_allclose(tab.features, mat, atol=1e-15)
        np.testing.assert_allclose(tab.targets, target, atol=1e-15)

    def test_sorted_label_encoding(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,b\n2,a\n3,b\n")
        tab = ds.load_csv(p, "y", "classification")
        assert tab.classes == ("a", "b")
        np.testing.assert_array_equal(tab.targets, [1, 0, 1])

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path, "t.csv", 'x,y\n1,"label, with comma"\n2,other\n')
        tab = ds.load_csv(p, "y", "classification")
        assert tab.classes == ("label, with comma", "other")

    def test_error_paths(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,0\nbad,1\n")
        with pytest.raises(NonNumericFeatureError, match=":3:"):
            ds.load_csv(p, "y", "classification")
        p2 = write(tmp_path, "t2.csv", "x,y\nnan,0\n")
        with pytest.raises(NonNumericFeatureError):
            ds.load_csv(p2, "y", "classification")
        p3 = write(tmp_path, "t3.csv", "x,y\n1,2,3\n")
        with pytest.raises(ParseError, match=":2:"):
            ds.load_csv(p3, "y", "regression")
        with pytest.raises(ParseError, match="no column"):
            ds.load_csv(p, "missing", "classification")
        p4 = write(tmp_path, "t4.csv", "x,y\n1,notanumber\n")
        with pytest.raises(ParseError):
            ds.load_csv(p4, "y", "regression")

    def test_integer_target_index(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,5\n2,6\n")
        tab = ds.load_csv(p, 0, "regression")
        np.testing.assert_array_equal(tab.targets, [1.0, 2.0])
        np.testing.assert_array_equal(tab.features.ravel(), [5.0, 6.0])


class TestSynth:
    def test_cycle_is_permutation_with_unit_spectrum(self):
        g = ds.synth_directed_graph("cycle", 4)
        expect = np.zeros((4, 4))
        expect[np.arange(4), (np.arange(4) + 1) % 4] = 1.0
        np.testing.assert_array_equal(g.adjacency, expect)
        np.testing.assert_allclose(
            np.linalg.svd(g.adjacency, compute_uv=False), 1.0, atol=1e-12)

    def test_random_dag_upper_triangular(self):
        g = ds.synth_directed_graph("random_dag", 20, seed=3)
        assert np.all(np.tril(g.adjacency) == 0)
        asym = np.abs(g.adjacency - g.adjacency.T).sum()
        assert asym == 2.0 * g.adjacency.sum()

    def test_two_block_asymmetry(self):
        for seed in range(3):
            g = ds.synth_directed_graph("two_block", 100, seed=seed)
            half = 50
            ab = g.adjacency[:half, half:].mean()
            ba = g.adjacency[half:, :half].mean()
            assert ab - ba > 0.15
            np.testing.assert_array_equal(g.labels,
                                          [0] * half + [1] * half)

    def test_deterministic(self):
        a = ds.synth_directed_graph("two_block", 30, seed=5)
        b = ds.synth_directed_graph("two_block", 30, seed=5)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)

    @staticmethod
    def whole_matrix(kind, n, seed, p_in=0.5, p_ab=0.3, p_ba=0.05,
                     edge_prob=0.3):
        """The adjacency built from draws of the whole matrix at once."""
        rng = np.random.default_rng(seed)
        if kind == "random_dag":
            return np.triu((rng.random((n, n)) < edge_prob).astype(float),
                           k=1)
        half = n // 2
        adj = np.zeros((n, n))
        blocks = [np.arange(half), np.arange(half, n)]
        probs = {(0, 0): p_in, (1, 1): p_in, (0, 1): p_ab, (1, 0): p_ba}
        for (bi, bj), p in probs.items():
            sub = rng.random((blocks[bi].size, blocks[bj].size)) < p
            adj[np.ix_(blocks[bi], blocks[bj])] = sub
        np.fill_diagonal(adj, 0.0)
        return adj

    @pytest.mark.parametrize("kind", ["random_dag", "two_block"])
    @pytest.mark.parametrize("n, seed", [(5, 0), (513, 3), (1537, 0)])
    def test_panels_draw_the_whole_matrix_draws(self, kind, n, seed):
        # the same generator calls in the same order, a panel of rows at a
        # time: 1537 nodes take whole panels and one row, and two_block's
        # odd halves end mid-panel
        import tracemalloc
        tracemalloc.start()
        try:
            g = ds.synth_directed_graph(kind, n, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = self.whole_matrix(kind, n, seed)
        assert g.adjacency.dtype == want.dtype
        np.testing.assert_array_equal(g.adjacency, want)
        # nothing but the output and at most two panels of draws, plus
        # 64 KiB of the generator's and interpreter's own
        panel = min(ds._PANEL_ROWS, n) * n * 8
        assert peak <= want.nbytes + 2 * panel + 2 ** 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            ds.synth_directed_graph("torus", 10)
        with pytest.raises(ConfigError):
            ds.synth_directed_graph("cycle", 2)


def test_cora_node_count():
    candidates = [Path("data/cora/cora.cites"), Path("data/cora.cites"),
                  Path("examples/cora.cites")]
    path = next((p for p in candidates if p.exists()), None)
    if path is None:
        pytest.skip("citation graph file not available")
    g = ds.load_edge_list(path)
    assert g.node_count == 2708
