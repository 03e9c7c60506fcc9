"""Dataset ingestion: edge-list graphs, delimited tables, synthetic graphs.

Graphs materialize as dense 0/1 adjacency matrices, which is fine at the
scales this package targets (a few thousand nodes).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonNumericFeatureError, ParseError

GRAPH_KINDS = ("cycle", "two_block", "random_dag")
TASKS = ("classification", "regression")
# rows of a synthetic graph drawn, and validated, at a time (the generator
# gives the same numbers in the same order); small panels keep glibc from
# holding freed ones as heap, 7 MB of peak RSS at 512 rows and 4000 nodes
_PANEL_ROWS = 64
# edge probabilities of the synthetic graphs: two_block within a block, from
# block A to B and back; random_dag above the diagonal
P_IN, P_AB, P_BA = 0.5, 0.3, 0.05
DAG_EDGE_PROB = 0.3


@dataclass(frozen=True)
class GraphDataset:
    adjacency: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ConfigError(f"adjacency must be square, got {adj.shape}")
        panels = (adj[start:start + _PANEL_ROWS]
                  for start in range(0, len(adj), _PANEL_ROWS))
        if not all(((p == 0.0) | (p == 1.0)).all() for p in panels):
            raise ConfigError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", adj)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape[0] != adj.shape[0]:
                raise ConfigError(
                    f"{labels.shape[0]} labels for {adj.shape[0]} nodes")
            object.__setattr__(self, "labels", labels)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    def out_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)


@dataclass(frozen=True)
class TabularDataset:
    features: np.ndarray
    targets: np.ndarray
    task: str
    classes: tuple | None = None
    feature_names: tuple | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        feats = np.asarray(self.features, dtype=float)
        if not np.isfinite(feats).all():
            raise ParseError("features contain non-finite values")
        if feats.shape[0] != np.asarray(self.targets).shape[0]:
            raise ConfigError(
                f"{feats.shape[0]} feature rows vs "
                f"{np.asarray(self.targets).shape[0]} targets")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", np.asarray(self.targets))


def _tokenize(path: Path):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            yield lineno, line.split()


def load_edge_list(path, node_count: int | None = None, directed: bool = True,
                   labels_path=None, name: str | None = None) -> GraphDataset:
    """Read "src dst" pairs into a dense adjacency matrix.

    Node ids are mapped to dense indices in first-appearance order; passing
    ``node_count`` instead requires integer ids already in [0, node_count)
    and keeps them as-is (useful when a label file covers isolated nodes).
    Repeated edges stay 1; self-loops are dropped. A file that names no
    node, and no ``node_count``, is a ParseError.
    """
    path = Path(path)
    edges = []
    index: dict = {}

    def resolve(token: str, lineno: int) -> int:
        if node_count is not None:
            try:
                idx = int(token)
            except ValueError:
                raise ParseError(
                    f"{path.name}:{lineno}: node id {token!r} is not an "
                    "integer but node_count was given") from None
            if not 0 <= idx < node_count:
                raise ParseError(
                    f"{path.name}:{lineno}: node id {idx} outside "
                    f"[0, {node_count})")
            return idx
        if token not in index:
            index[token] = len(index)
        return index[token]

    for lineno, tokens in _tokenize(path):
        if len(tokens) != 2:
            raise ParseError(
                f"{path.name}:{lineno}: expected 'src dst', got "
                f"{len(tokens)} fields")
        edges.append((resolve(tokens[0], lineno), resolve(tokens[1], lineno)))

    n = node_count if node_count is not None else len(index)
    if n == 0:
        raise ParseError(f"{path.name}: no edges")
    pairs = np.array(edges, dtype=int).reshape(-1, 2)
    src, dst = pairs[pairs[:, 0] != pairs[:, 1]].T
    adj = np.zeros((n, n))
    adj[src, dst] = 1.0
    if not directed:
        adj[dst, src] = 1.0

    labels = None
    if labels_path is not None:
        labels = _join_labels(Path(labels_path), index, n,
                              identity=node_count is not None)
    return GraphDataset(adjacency=adj, labels=labels,
                        name=name or path.stem)


def _join_labels(path: Path, index: dict, n: int, identity: bool):
    """Read "id label" lines; unlabeled nodes get -1, labels are encoded."""
    raw: dict[int, str] = {}
    for lineno, tokens in _tokenize(path):
        if len(tokens) != 2:
            raise ParseError(
                f"{path.name}:{lineno}: expected 'id label', got "
                f"{len(tokens)} fields")
        node, label = tokens
        if identity:
            try:
                idx = int(node)
            except ValueError:
                raise ParseError(
                    f"{path.name}:{lineno}: node id {node!r} is not an "
                    "integer") from None
            if not 0 <= idx < n:
                raise ParseError(
                    f"{path.name}:{lineno}: node id {idx} outside [0, {n})")
        else:
            if node not in index:
                continue  # label for a node that never appears in the edges
            idx = index[node]
        raw[idx] = label
    classes = sorted(set(raw.values()))
    code = {cls: i for i, cls in enumerate(classes)}
    labels = np.full(n, -1, dtype=int)
    for idx, label in raw.items():
        labels[idx] = code[label]
    return labels


def load_csv(path, target_column, task: str, zscore: bool = False) -> TabularDataset:
    """Parse a delimited table with a header into features and targets.

    Classification targets are label-encoded in sorted order; regression
    targets parse as floats. ``zscore`` standardizes each feature column
    (constant columns map to zeros, the zero deviation is guarded to 1).
    """
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ParseError(f"{path.name}: empty file")
    header = [h.strip() for h in rows[0]]
    if isinstance(target_column, int):
        if not 0 <= target_column < len(header):
            raise ParseError(
                f"{path.name}: target column index {target_column} out of "
                f"range for {len(header)} columns")
        target_idx = target_column
    else:
        if target_column not in header:
            raise ParseError(
                f"{path.name}: no column named {target_column!r} in header")
        target_idx = header.index(target_column)

    feature_names = tuple(h for i, h in enumerate(header) if i != target_idx)
    feats, raw_targets = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path.name}:{lineno}: expected {len(header)} fields, got "
                f"{len(row)}")
        vals = []
        for i, cell in enumerate(row):
            if i == target_idx:
                raw_targets.append(cell.strip())
                continue
            try:
                val = float(cell)
            except ValueError:
                raise NonNumericFeatureError(
                    f"{path.name}:{lineno}: column {header[i]!r} has "
                    f"non-numeric value {cell.strip()!r}") from None
            if not np.isfinite(val):
                raise NonNumericFeatureError(
                    f"{path.name}:{lineno}: column {header[i]!r} has "
                    f"non-finite value {cell.strip()!r}")
            vals.append(val)
        feats.append(vals)
    if not feats:
        raise ParseError(f"{path.name}: no data rows")
    features = np.asarray(feats)

    classes = None
    if task == "regression":
        try:
            targets = np.array([float(t) for t in raw_targets])
        except ValueError:
            raise ParseError(
                f"{path.name}: regression targets must be numeric") from None
        if not np.isfinite(targets).all():
            raise ParseError(f"{path.name}: non-finite regression target")
    else:
        classes = tuple(sorted(set(raw_targets)))
        code = {cls: i for i, cls in enumerate(classes)}
        targets = np.array([code[t] for t in raw_targets], dtype=int)

    if zscore:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        features = (features - mean) / std
    return TabularDataset(features=features, targets=targets, task=task,
                          classes=classes, feature_names=feature_names)


def _bernoulli(rng, out: np.ndarray, p: float) -> None:
    """``out`` set to 1.0 where a draw of ``rng.random(out.shape)`` is below
    ``p``, else 0.0, drawn ``_PANEL_ROWS`` rows at a time into one buffer."""
    buf = np.empty((min(_PANEL_ROWS, out.shape[0]), out.shape[1]))
    for start in range(0, out.shape[0], _PANEL_ROWS):
        draw = buf[:out.shape[0] - start]
        rng.random(out=draw)
        np.less(draw, p, out=out[start:start + len(draw)])


def synth_directed_graph(kind: str, n: int, seed: int = 0) -> GraphDataset:
    """Seeded synthetic directed graphs for tests and benchmarks.

    cycle: the directed n-cycle (a permutation matrix, all singular values
    1). two_block: two communities, each dense within (edge probability
    ``P_IN``), asymmetric across (block A reaches B with probability
    ``P_AB``, the reverse only ``P_BA``); node labels are the block ids.
    random_dag: strictly upper-triangular edges, each with probability
    ``DAG_EDGE_PROB``.
    """
    if kind not in GRAPH_KINDS:
        raise ConfigError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    if n < 3:
        raise ConfigError(f"need at least 3 nodes, got {n}")
    rng = np.random.default_rng(seed)
    labels = None
    if kind == "cycle":
        adj = np.zeros((n, n))
        adj[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    elif kind == "random_dag":
        adj = np.empty((n, n))
        _bernoulli(rng, adj, DAG_EDGE_PROB)
        for i in range(n):  # strictly upper-triangular
            adj[i, :i + 1] = 0.0
    else:
        half = n // 2
        adj = np.empty((n, n))
        blocks = [slice(0, half), slice(half, n)]
        probs = {(0, 0): P_IN, (1, 1): P_IN, (0, 1): P_AB, (1, 0): P_BA}
        for (bi, bj), p in probs.items():
            _bernoulli(rng, adj[blocks[bi], blocks[bj]], p)
        np.fill_diagonal(adj, 0.0)
        labels = np.array([0] * half + [1] * (n - half))
    return GraphDataset(adjacency=adj, labels=labels,
                        name=f"{kind}-{n}-{seed}")
