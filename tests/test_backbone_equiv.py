import numpy as np
import pytest

from rpn2 import backbone_equiv as be
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2.numeric_core import Prng, as_dense


# ---------------------------------------------------------------------------
# reference sanity


def test_cross_correlation_unit_impulse_is_identity():
    grid = gg.GridSpec(5, 5, 1)
    shape = gg.Cuboid(1, 1, 1, 1, 0, 0)
    packing = gg.PackingSpec(1, 1, 1, clip_out_of_grid=True)
    kernel = np.zeros(9)
    offsets = gg.patch_offsets(shape)
    kernel[offsets.index((0, 0, 0))] = 1.0
    x = np.random.default_rng(0).standard_normal((2, 25))
    got = be.ref_cross_correlation(x, grid, shape, packing, kernel)
    assert np.array_equal(got, x)


def test_cross_correlation_ones_kernel_interior():
    grid = gg.GridSpec(5, 5, 1)
    shape = gg.Cuboid(1, 1, 1, 1, 0, 0)
    packing = gg.PackingSpec(1, 1, 1, clip_out_of_grid=True)
    x = np.ones((1, 25))
    got = be.ref_cross_correlation(x, grid, shape, packing, np.ones(9))
    # interior centers see the full 3x3 window of ones
    center_col = [i for i, c in enumerate(gg.packing_centers(grid, packing, shape))
                  if c == (2, 2, 0)][0]
    assert got[0, center_col] == 9.0
    corner_col = [i for i, c in enumerate(gg.packing_centers(grid, packing, shape))
                  if c == (0, 0, 0)][0]
    assert got[0, corner_col] == 4.0


def test_ref_pool_constant_and_shapes():
    grid = gg.GridSpec(4, 4, 1)
    shape = gg.Cuboid(0, 1, 0, 1, 0, 0)
    packing = gg.PackingSpec(2, 2, 1, clip_out_of_grid=True)
    x = np.full((2, 16), 2.5)
    assert np.all(be.ref_pool(x, grid, shape, packing, "max") == 2.5)
    assert np.all(be.ref_pool(x, grid, shape, packing, "mean") == 2.5)
    assert be.ref_pool(x, grid, shape, packing, "max").shape == (2, 4)


def test_ref_rnn_zero_u_and_single_step():
    x = np.random.default_rng(1).standard_normal((5, 3))
    u0 = np.zeros((3, 3))
    assert np.allclose(be.ref_rnn_scan(x, u0, "onehop"), np.tanh(x))
    u = np.random.default_rng(2).standard_normal((3, 3))
    one = x[:1]
    assert np.allclose(be.ref_rnn_scan(one, u, "onehop"),
                       be.ref_rnn_scan(one, u, "recursive"))


def test_ref_sgc_edgeless():
    x = np.random.default_rng(3).standard_normal((4, 3))
    w = np.random.default_rng(4).standard_normal((2, 3))
    got = be.ref_sgc(x, np.zeros((4, 4)), w)
    assert np.allclose(got, 1.0 / (1.0 + np.exp(-(x @ w.T))), atol=1e-14)


def test_ref_attention_degenerate_cases():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4))
    wv = rng.standard_normal((3, 4))
    got = be.ref_attention(x, np.zeros((4, 2)), np.zeros((4, 2)), wv, 2)
    assert np.allclose(got, x @ wv.T, atol=1e-13)
    # zero queries give uniform attention: column mean of values
    xb = rng.standard_normal((6, 4))
    got2 = be.ref_attention(xb, np.zeros((4, 2)), rng.standard_normal((4, 2)),
                            wv, 2)
    v = xb @ wv.T
    assert np.max(np.abs(got2 - np.tile(v.mean(axis=0), (6, 1)))) < 1e-12


# ---------------------------------------------------------------------------
# builder equivalence (few seeds here; the 20-seed sweep is in acceptance)


@pytest.mark.parametrize("kind", ["cnn", "pool", "rnn", "gnn", "transformer"])
def test_builders_match_references(kind):
    for seed in (0, 1, 2):
        diff, tol = be.run_case(kind, Prng(seed).derive("unit_%s" % kind))
        if tol == 0.0:
            assert diff == 0.0
        else:
            assert diff < tol, "%s seed %d: %g" % (kind, seed, diff)


def test_cnn_interdependence_matrix_is_padding_grid():
    case = be.build_equivalent("cnn", Prng(3).derive("x"))
    head = case["model"].layers[0].heads[0]
    spec = head.attr_prior
    a = as_dense(itd.build_matrix(spec))
    assert np.all(np.count_nonzero(a, axis=0) <= 1)
    assert a.shape == (192, 27 * 192)
    # block path equals the explicit block-diagonal matrix at small size
    from rpn2 import reconciliation as rc
    from rpn2.numeric_core import Tape, blocks_dot
    rng = np.random.default_rng(6)
    small = rc.ReconciliationSpec("duplicated_padding", n=3, D=6, p=2, p_count=3)
    w = rng.standard_normal(2)
    expanded = rng.standard_normal((4, 6))
    psi = rc.reconcile(small, w)
    tape = Tape()
    flex = blocks_dot(tape.constant(expanded), tape.constant(w), 3, 2)
    assert np.max(np.abs(flex.value - expanded @ psi.T)) < 1e-14


def test_gnn_pagerank_internal_consistency():
    prng = Prng(4).derive("pg")
    case = be.build_equivalent("gnn", prng)
    head = case["model"].layers[0].heads[0]
    graph = head.inst_prior.variant.graph
    pr_spec = itd.InterdependenceSpec(
        itd.GraphStructural(graph, "pagerank", alpha=0.2,
                            normalization="row_selfloop"), axis="instance")
    head_pr = md.HeadConfig(
        m=head.m, n=head.n, expansion=head.expansion,
        reconciliation=head.reconciliation, inst_prior=pr_spec,
        processors={"output": "sigmoid"})
    model = md.ModelConfig([md.LayerConfig([head_pr])])
    got = md.model_forward(case["x"], model, case["store"])
    a_pr = itd.graph_structural_matrix(graph, "pagerank", alpha=0.2,
                                       normalization="row_selfloop")
    w = case["store"].get("l0.h0.c0.psi").reshape(head.n, head.m)
    want = 1.0 / (1.0 + np.exp(-(a_pr @ case["x"] @ w.T)))
    assert np.max(np.abs(got - want)) < 1e-12


def test_accumulative_receptive_field_rows():
    m, h = 16, 3
    a = itd.chain_structural_matrix(m, "uni", "accumulative", h)
    for i in range(m):
        nz = set(np.nonzero(a[i])[0].tolist())
        assert nz == set(range(i, min(i + h, m - 1) + 1))


def test_recursive_rnn_differs_from_onehop():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 3))
    u = rng.standard_normal((3, 3))
    assert np.max(np.abs(be.ref_rnn_scan(x, u, "onehop")
                         - be.ref_rnn_scan(x, u, "recursive"))) > 1e-6


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        be.build_equivalent("mlp", Prng(0))


def _scalar_edges(prng, n, p):
    """One scalar draw per pair i < j in row-major order."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if prng.uniform() < p:
                edges.append((i, j))
    return edges


@pytest.mark.parametrize("nodes", [1, 2, 10, 23])
def test_gnn_case_edges_match_scalar_loop(nodes):
    a, b = Prng(2 ** 63 + 5), Prng(2 ** 63 + 5)
    case = be.build_gnn_case(a, nodes=nodes)
    graph = case["model"].layers[0].heads[0].inst_prior.variant.graph
    assert graph.edges == _scalar_edges(b, nodes, 0.35)
    assert case["x"].tobytes() == b.normals((nodes, 6)).tobytes()
    b.normals((4, 6))
    assert a.next_u64() == b.next_u64()
