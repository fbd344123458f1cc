import numpy as np
import pytest

from rpn2 import backbone_equiv as be
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2.numeric_core import Prng, SparseCoo, as_dense


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
    assert graph.edges == tuple(_scalar_edges(b, nodes, 0.35))
    assert case["x"].tobytes() == b.normals((nodes, 6)).tobytes()
    b.normals((4, 6))
    assert a.next_u64() == b.next_u64()


# ---------------------------------------------------------------------------
# the vectorised references against their loop definitions


def loop_ref_cross_correlation(x, grid, shape, packing, kernel):
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float).reshape(-1)
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    out = np.zeros((x.shape[0], len(centers)))
    for ci, (i0, j0, k0) in enumerate(centers):
        for slot, (di, dj, dk) in enumerate(offsets):
            i, j, k = i0 + di, j0 + dj, k0 + dk
            if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                out[:, ci] += kernel[slot] * x[:, gg.index_of((i, j, k), grid)]
    return out


def loop_ref_pool(x, grid, shape, packing, kind="max"):
    x = np.asarray(x, dtype=float)
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    out = np.zeros((x.shape[0], len(centers)))
    for ci, (i0, j0, k0) in enumerate(centers):
        vals = np.zeros((x.shape[0], len(offsets)))
        for slot, (di, dj, dk) in enumerate(offsets):
            i, j, k = i0 + di, j0 + dj, k0 + dk
            if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                vals[:, slot] = x[:, gg.index_of((i, j, k), grid)]
        out[:, ci] = {"max": vals.max, "min": vals.min, "mean": vals.mean}[kind](axis=1)
    return out


# cuboid, cylinder and sphere patches; strides, hexagonal and cubic packings;
# centers outside the grid (clip off) and clipped
REF_LAYOUTS = [
    (gg.GridSpec(8, 8, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
     gg.PackingSpec(1, 1, 1, clip_out_of_grid=True)),
    (gg.GridSpec(7, 5, 2), gg.Cuboid(0, 2, 1, 0, 0, 1), gg.PackingSpec(2, 3, 1)),
    (gg.GridSpec(9, 10, 1), gg.Cylinder(2), gg.PackingSpec(strategy="sparse_hexagonal")),
    (gg.GridSpec(9, 9, 2), gg.Cylinder(2, 0, 1),
     gg.PackingSpec(strategy="complete_square", clip_out_of_grid=True)),
    (gg.GridSpec(6, 6, 6), gg.Sphere(1), gg.PackingSpec(strategy="complete_cubic")),
    (gg.GridSpec(4, 4, 1), gg.Cuboid(0, 1, 0, 1, 0, 0),
     gg.PackingSpec(2, 2, 1, clip_out_of_grid=True)),
]


@pytest.mark.parametrize("layout", range(len(REF_LAYOUTS)))
def test_references_equal_their_loop_definitions_byte_for_byte(layout):
    grid, shape, packing = REF_LAYOUTS[layout]
    rng = np.random.default_rng(20 + layout)
    x = rng.standard_normal((5, grid.size))
    x[0, ::3] = -0.0
    x[1, ::4] = 0.0
    kernel = rng.standard_normal(gg.patch_size(shape))
    kernel[0] = 0.0
    got = be.ref_cross_correlation(x, grid, shape, packing, kernel)
    assert got.tobytes() == loop_ref_cross_correlation(x, grid, shape, packing, kernel).tobytes()
    for kind in ("max", "min", "mean"):
        got = be.ref_pool(x, grid, shape, packing, kind)
        assert got.tobytes() == loop_ref_pool(x, grid, shape, packing, kind).tobytes(), kind
    with pytest.raises(ValueError):
        be.ref_pool(x, grid, shape, packing, "median")


@pytest.mark.parametrize("kind", ["max", "min", "mean"])
def test_pool_case_pools_with_the_operator_of_its_kind(kind):
    for seed in (3, 4, 5):
        case = be.build_pool_case(Prng(seed), kind=kind)
        assert case["tol"] == 0.0
        got = md.model_forward(case["x"], case["model"], case["store"])
        assert float(np.max(np.abs(got - case["ref"]))) == 0.0


@pytest.mark.parametrize("kind", ["max", "min", "mean"])
def test_pool_head_is_byte_equal_to_ref_pool(kind):
    for seed in range(24):
        case = be.build_pool_case(Prng(seed).derive("equiv_pool"), kind=kind)
        got = md.model_forward(case["x"], case["model"], case["store"])
        assert got.tobytes() == case["ref"].tobytes(), seed


def test_pool_head_is_the_cnn_head_with_one_hot_channels():
    case = be.build_pool_case(Prng(0), kind="max")
    head = case["model"].layers[0].heads[0]
    assert head.attr_prior.variant.mode == "padding"
    assert head.reconciliation.method == "duplicated_padding"
    assert head.channels == head.reconciliation.p == 4
    assert head.channel_fusion.strategy == "metric"
    kernels = [case["store"].get("l0.h0.c%d.psi" % c) for c in range(head.channels)]
    assert np.array_equal(np.stack(kernels), np.eye(4))


@pytest.mark.parametrize("kind", sorted(be._BUILDERS))
def test_every_case_runs_the_canonical_head(kind):
    case = be.build_equivalent(kind, Prng(1).derive("equiv_%s" % kind))
    assert set(case) == {"x", "model", "store", "ref", "tol"}
    assert isinstance(case["model"], md.ModelConfig)
    assert isinstance(case["store"], md.ParameterStore)


def test_pool_case_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="pooling kind"):
        be.build_pool_case(Prng(3), kind="median")


@pytest.mark.parametrize("build", [be.build_cnn_case, be.build_pool_case])
def test_patch_cases_share_one_grid_spec_and_matrix(build):
    first = build(Prng(1))["model"].layers[0].heads[0].attr_prior
    second = build(Prng(2))["model"].layers[0].heads[0].attr_prior
    assert first is second
    matrix = itd.build_matrix(first)
    assert isinstance(matrix, SparseCoo)
    assert itd.build_matrix(second) is matrix
