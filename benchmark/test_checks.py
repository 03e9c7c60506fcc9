"""Each check passes on right outputs and fails on perturbed ones.

    python3 -m pytest benchmark/test_checks.py -q
"""
from __future__ import annotations

import numpy as np
import pytest

import checks
import inputs

inputs.use_source_tree()

from aksvd import datasets, kernels, ksvd, linalg, nystrom  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return datasets.synth_directed_graph("two_block", 60, seed=3).adjacency


@pytest.fixture(scope="module")
def gamma(graph):
    return checks.bandwidth(graph, 1.0)


@pytest.fixture(scope="module")
def dense(graph, gamma):
    """(G_c, singular values, U, V) of the reference centered kernel."""
    g_c = checks.double_center(checks.sne_kernel(graph, gamma))[0]
    u, s, vt = np.linalg.svd(g_c)
    return g_c, s, u[:, :inputs.RANK], vt[:inputs.RANK].T


def test_sne_kernel_matches_the_program(graph, gamma):
    ours = checks.sne_kernel(graph, gamma)
    theirs = kernels.kernel_matrix(kernels.KernelSpec("sne", gamma),
                                   kernels.build_sources(graph))
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)


def test_eta_matches_the_program():
    rng = np.random.default_rng(0)
    ref = linalg.SvdResult(u=np.linalg.qr(rng.standard_normal((50, 4)))[0],
                           s=np.array([4.0, 3.0, 2.0, 1.0]),
                           v=np.linalg.qr(rng.standard_normal((40, 4)))[0])
    u_t = ref.u + 0.1 * rng.standard_normal(ref.u.shape)
    v_t = ref.v + 0.1 * rng.standard_normal(ref.v.shape)
    assert checks.eta(u_t, v_t, ref.u, ref.s, ref.v, 4) == pytest.approx(
        nystrom.eta_accuracy(u_t, v_t, ref, 4), rel=1e-12)


def test_extract_check_passes_on_the_exact_triplets(dense):
    g_c, s, u, v = dense
    r = inputs.RANK
    assert checks.check_extract(s[:r], u, v, s, g_c) == []


def test_extract_check_fails_on_scaled_lambda(dense):
    g_c, s, u, v = dense
    r = inputs.RANK
    assert checks.check_extract(1.2 * s[:r], u, v, s, g_c)


def test_extract_check_fails_on_swapped_embedding_columns(dense):
    g_c, s, u, v = dense
    r = inputs.RANK
    swapped = u[:, [1, 0] + list(range(2, r))]
    fails = checks.check_extract(s[:r], swapped, v, s, g_c)
    assert any("residual" in f for f in fails)


def test_extract_check_passes_on_the_program_output(graph, gamma, dense):
    g_c, s, _, _ = dense
    model = ksvd.fit(graph, kernels.KernelSpec("sne", gamma), r=inputs.RANK)
    left = ksvd.transform(model, "left").features
    right = ksvd.transform(model, "right").features
    assert checks.check_extract(model.lam, left, right, s, g_c) == []


def test_scale_check(dense):
    _, s, _, _ = dense
    assert checks.check_scale(1.05 * s, s) == []
    assert checks.check_scale(1.2 * s, s)


def test_eta_check_fails_on_a_swapped_column(dense):
    _, s, u, v = dense
    r = inputs.RANK
    assert checks.check_eta(u, v, u, s, v, 1e-12, r) == []
    swapped = u[:, [1, 0] + list(range(2, r))]
    assert checks.check_eta(swapped, v, u, s, v, 0.004, r)


@pytest.fixture()
def saved(tmp_path, graph, gamma):
    model = ksvd.fit(graph, kernels.KernelSpec("sne", gamma), r=inputs.RANK,
                     solver="truncated")
    ksvd.save_model(model, tmp_path)
    return model, tmp_path


def test_round_trip_check_passes_on_an_intact_file(saved):
    model, path = saved
    loaded = ksvd.load_model(path)
    assert checks.check_same("b_psi", loaded.b_psi, model.b_psi) == []


def test_round_trip_check_fails_on_a_truncated_model_file(saved):
    model, path = saved
    name = path / "B_psi.csv"
    lines = name.read_text().splitlines(keepends=True)
    name.write_text("".join(lines[:-1]))  # drop the last row
    loaded = ksvd.load_model(path)  # the program accepts the short file
    assert checks.check_same("b_psi", loaded.b_psi, model.b_psi)


def test_truncation_inside_a_row_fails_the_load(saved):
    _, path = saved
    name = path / "B_psi.csv"
    text = name.read_text()
    name.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError):
        ksvd.load_model(path)


def test_held_out_formula_matches_transform_oos(saved, graph, gamma):
    """The projection formula, fed the benchmark's own centered kernel rows."""
    model, _ = saved
    z = np.ascontiguousarray(graph.T)
    num = checks.rbf_numerators(graph, z, gamma)
    _, _, cols, grand = checks.double_center(num / num.sum(1, keepdims=True))
    new_x = graph[:5, ::-1].copy()  # any 0/1 rows of the right length
    kx = checks.rbf_numerators(new_x, z, gamma)
    kx /= kx.sum(1, keepdims=True)
    kx_c = kx - kx.mean(1, keepdims=True) - cols[None, :] + grand
    want = checks.project(kx_c, model.b_psi, model.lam)
    got = ksvd.transform_oos(model, new_x=new_x)
    assert checks.check_close("rows", got, want) == []
    swapped = got[:, [1, 0] + list(range(2, inputs.RANK))]
    assert checks.check_close("rows", swapped, want)
