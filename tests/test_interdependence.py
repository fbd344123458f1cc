import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2.numeric_core import SparseCoo, as_dense, matrix_exp


def _spec(variant, **kw):
    return itd.InterdependenceSpec(variant, **kw)


# ---------------------------------------------------------------------------
# kernels


def test_identity_and_constant():
    assert np.array_equal(itd.build_matrix(_spec(itd.Identity(5))), np.eye(5))
    ones = np.ones((3, 3))
    assert np.array_equal(itd.build_matrix(_spec(itd.Constant(ones))), ones)


def test_pearson_self_correlation_and_corrcoef():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 4))
    a = itd.statistical_kernel_matrix(x, "pearson")
    assert np.allclose(np.diag(a), 1.0, atol=1e-12)
    assert np.allclose(a, np.corrcoef(x.T), atol=1e-10)


def test_pearson_degenerate_column():
    x = np.ones((10, 2))
    x[:, 1] = np.arange(10)
    a = itd.statistical_kernel_matrix(x, "pearson")
    assert a[0, 0] == 1.0
    assert a[0, 1] == 0.0


def test_kl_zero_on_identical_and_nonnegative_inputs():
    rng = np.random.default_rng(1)
    p = rng.random((20, 1)) + 0.1
    x = np.concatenate([p, p, rng.random((20, 1)) + 0.1], axis=1)
    a = itd.statistical_kernel_matrix(x, "kl")
    assert abs(a[0, 1]) < 1e-12
    assert np.all(np.diag(a) == 0.0)
    with pytest.raises(ValueError):
        itd.statistical_kernel_matrix(np.array([[1.0, -1.0], [2.0, 3.0]]), "kl")


def test_rv_equals_squared_pearson():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 5))
    rv = itd.statistical_kernel_matrix(x, "rv")
    pe = itd.statistical_kernel_matrix(x, "pearson")
    assert np.max(np.abs(rv - pe ** 2)) < 1e-10


def test_mutual_info_symmetric_nonnegative():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    mi = itd.statistical_kernel_matrix(x, "mutual_info")
    assert np.max(np.abs(mi - mi.T)) < 1e-10
    assert np.min(mi) > -1e-9


def test_numerical_kernels_scalar_oracles():
    x = np.array([[2.0, 1.0], [1.0, 3.0]])
    lin = itd.numerical_kernel_matrix(x, "linear")
    assert lin[0, 1] == 5.0
    poly = itd.numerical_kernel_matrix(x, "polynomial", {"c": 1.0, "d": 2})
    assert poly[0, 1] == 36.0
    rbf = itd.numerical_kernel_matrix(x, "gaussian_rbf", {"sigma": 1.0})
    assert np.allclose(np.diag(rbf), 1.0)
    assert rbf[0, 1] == pytest.approx(np.exp(-(1 + 4) / 2.0))
    lap = itd.numerical_kernel_matrix(x, "laplacian", {"sigma": 2.0})
    assert lap[0, 1] == pytest.approx(np.exp(-3.0 / 2.0))
    expk = itd.numerical_kernel_matrix(x, "exponential", {"gamma": 0.5})
    assert expk[0, 1] == pytest.approx(np.exp(-1.5))
    cos = itd.numerical_kernel_matrix(x, "cosine")
    assert cos[0, 1] == pytest.approx(5.0 / (np.sqrt(5) * np.sqrt(10)))
    mink = itd.numerical_kernel_matrix(x, "minkowski", {"p": 1})
    assert mink[0, 1] == pytest.approx(1.0 - 3.0)
    tanh = itd.numerical_kernel_matrix(x, "tanh", {"alpha": 0.1, "c": 0.2})
    assert tanh[0, 1] == pytest.approx(np.tanh(0.7))
    aniso = itd.numerical_kernel_matrix(x, "anisotropic_rbf", {"a": [1.0, 0.5]})
    assert aniso[0, 1] == pytest.approx(np.exp(-(1.0 + 0.5 * 4.0)))
    hyb = itd.numerical_kernel_matrix(
        x, "hybrid", {"k1": "linear", "k2": "cosine", "alpha": 0.25, "beta": 0.75})
    assert np.allclose(hyb, 0.25 * lin + 0.75 * cos, atol=1e-14)


def test_kernel_hyperparameter_validation():
    x = np.eye(3)
    with pytest.raises(ValueError):
        itd.numerical_kernel_matrix(x, "gaussian_rbf", {"sigma": 0.0})
    with pytest.raises(ValueError):
        itd.numerical_kernel_matrix(x, "exponential", {"gamma": -1.0})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symmetric_kernels_symmetric(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 5))
    for kind in ("linear", "cosine", "gaussian_rbf", "laplacian"):
        a = itd.numerical_kernel_matrix(x, kind)
        assert np.linalg.norm(a - a.T) < 1e-10
    a = itd.statistical_kernel_matrix(x, "pearson")
    assert np.linalg.norm(a - a.T) < 1e-10


def test_bilinear_identity_w_reduces_to_linear_kernel():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 4))
    a = itd.build_matrix(_spec(itd.Bilinear(7)), x, np.eye(7).reshape(-1))
    assert np.allclose(a, itd.numerical_kernel_matrix(x, "linear"), atol=1e-12)


def test_lowrank_bilinear_dense_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    wp = rng.standard_normal((6, 2))
    wq = rng.standard_normal((6, 2))
    params = np.concatenate([wp.reshape(-1), wq.reshape(-1)])
    a = itd.build_matrix(_spec(itd.LowRankBilinear(6, 2)), x, params)
    assert np.max(np.abs(a - x.T @ (wp @ wq.T) @ x)) < 1e-12


def test_instance_axis_transposition_equivalence():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 5))
    for kind in ("pearson", "rv"):
        inst = itd.build_matrix(_spec(itd.StatKernel(kind), axis="instance"), x)
        attr = itd.build_matrix(_spec(itd.StatKernel(kind)), x.T)
        assert np.array_equal(inst, attr)
    inst = itd.build_matrix(_spec(itd.NumKernel("linear"), axis="instance"), x)
    assert np.allclose(inst, x @ x.T, atol=1e-12)


def test_param_length_table():
    assert itd.param_length(_spec(itd.Parameterized(3, 4))) == 12
    assert itd.param_length(_spec(itd.Parameterized(3, 4, "lorr", 2))) == 14
    assert itd.param_length(_spec(itd.Bilinear(5))) == 25
    assert itd.param_length(_spec(itd.LowRankBilinear(5, 2))) == 20
    assert itd.param_length(_spec(itd.Identity(9))) == 0
    with pytest.raises(ValueError):
        itd.build_matrix(_spec(itd.Bilinear(5)), np.eye(5), np.zeros(24))


# ---------------------------------------------------------------------------
# structural


def test_grid_structural_unit_patch_identity():
    grid = gg.GridSpec(2, 2, 1)
    a = itd.grid_structural_matrix(grid, gg.Cuboid(0, 0, 0, 0, 0, 0),
                                   gg.PackingSpec(1, 1, 1, clip_out_of_grid=True))
    assert np.array_equal(as_dense(a), np.eye(4))


def test_grid_structural_aggregation_tridiagonal():
    grid = gg.GridSpec(3, 1, 1)
    a = itd.grid_structural_matrix(grid, gg.Cuboid(1, 1, 0, 0, 0, 0),
                                   gg.PackingSpec(1, 1, 1, clip_out_of_grid=True),
                                   "aggregation")
    want = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    assert np.array_equal(as_dense(a), want)


def test_grid_padding_one_nonzero_per_column():
    grid = gg.GridSpec(4, 4, 1)
    shape = gg.Cuboid(1, 1, 1, 1, 0, 0)
    packing = gg.PackingSpec(2, 2, 1, clip_out_of_grid=True)
    a = itd.grid_structural_matrix(grid, shape, packing)
    assert isinstance(a, SparseCoo)
    d = as_dense(a)
    col_nnz = np.count_nonzero(d, axis=0)
    assert np.all(col_nnz <= 1)
    assert set(np.unique(d)) <= {0.0, 1.0}
    centers = gg.packing_centers(grid, packing)
    assert d.shape == (16, gg.patch_size(shape) * len(centers))


def test_chain_onehop_matrix():
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    assert np.array_equal(itd.chain_structural_matrix(3), want)
    with_self = itd.chain_structural_matrix(3, include_self=True)
    assert np.array_equal(with_self, want + np.eye(3))


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 30))
def test_chain_nilpotency(m):
    a = itd.chain_structural_matrix(m)
    assert np.array_equal(np.linalg.matrix_power(a, m), np.zeros((m, m)))


def test_chain_accumulative_band_support():
    m, h = 12, 4
    a = itd.chain_structural_matrix(m, "uni", "accumulative", h)
    for i in range(m):
        nz = set(np.nonzero(a[i])[0].tolist())
        assert nz == set(range(i, min(i + h, m - 1) + 1))


def test_chain_exponential_equals_nilpotent_series():
    m = 9
    a = itd.chain_structural_matrix(m)
    series = np.zeros((m, m))
    term = np.eye(m)
    fact = 1.0
    for k in range(m):
        series += term / fact
        term = term @ a
        fact *= (k + 1)
    got = itd.chain_structural_matrix(m, variant="exponential")
    assert np.array_equal(got, series)


def _solve_oracle(a, b):
    """Gaussian elimination with partial pivoting, as the uni reciprocal chain
    was built before its closed form."""
    n = a.shape[0]
    m = np.hstack([a.astype(float), b.astype(float)])
    for k in range(n):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
        factors = m[k + 1:, k] / m[k, k]
        m[k + 1:] -= factors[:, None] * m[k]
    x = np.zeros((n, b.shape[1]))
    for k in range(n - 1, -1, -1):
        x[k] = (m[k, n:] - m[k, k + 1:n] @ x[k + 1:]) / m[k, k]
    return x


def _uni_chain_oracle(m, variant, hops, include_self):
    """Uni chain matrices from their definitions: powers of the dense shift,
    the finite exponential series and the elimination for (I - A)^-1."""
    a = np.zeros((m, m))
    idx = np.arange(m - 1)
    a[idx, idx + 1] = 1.0
    if variant == "onehop":
        out = a.copy()
    elif variant == "multihop":
        out = np.linalg.matrix_power(a, hops)
    elif variant == "accumulative":
        out = np.zeros((m, m))
        term = np.eye(m)
        for _ in range(hops + 1):
            out += term
            term = term @ a
    elif variant == "exponential":
        out = np.eye(m)
        term = np.eye(m)
        for k in range(1, m):
            term = term @ a / k
            out += term
    else:
        out = _solve_oracle(np.eye(m) - a, np.eye(m))
    if include_self and variant in ("onehop", "multihop"):
        out = out + np.eye(m)
    return out


# m = 200 takes the exponential's 1/k! bands into subnormals and then to zero
@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 64, 130, 200])
@pytest.mark.parametrize("variant", ["onehop", "multihop", "accumulative",
                                     "exponential", "reciprocal"])
def test_uni_chain_closed_form_is_bit_identical_to_definition(m, variant):
    hop_counts = sorted({0, 1, 2, 3, m // 2, m - 1} & set(range(m)))
    if variant in ("onehop", "exponential", "reciprocal"):
        hop_counts = [1]
    for hops in hop_counts:
        for include_self in (False, True):
            got = itd.chain_structural_matrix(m, "uni", variant, hops, include_self)
            want = _uni_chain_oracle(m, variant, hops, include_self)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (m, variant, hops, include_self)


def test_uni_chain_hop_count_checks():
    for variant in ("multihop", "accumulative"):
        with pytest.raises(ValueError):
            itd.chain_structural_matrix(4, "uni", variant, 4)
    with pytest.raises(ValueError):
        itd.chain_structural_matrix(4, "uni", "multihop", -1)
    with pytest.raises(ValueError):
        itd.chain_structural_matrix(4, "uni", "bogus")


def test_chain_reciprocal_uni_and_bi_fallback():
    m = 6
    uni = itd.chain_structural_matrix(m, variant="reciprocal")
    acc = itd.chain_structural_matrix(m, "uni", "accumulative", m - 1)
    assert np.max(np.abs(uni - acc)) < 1e-10
    # m = 6: I - A is invertible for the bi chain, so the solve path is used
    bi = itd.chain_structural_matrix(m, "bi", "reciprocal")
    a = np.zeros((m, m))
    idx = np.arange(m - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    assert np.max(np.abs((np.eye(m) - a) @ bi - np.eye(m))) < 1e-10
    # m = 5: 1 is an eigenvalue of the bi chain, so I - A is singular and the
    # accumulative fallback applies
    bi5 = itd.chain_structural_matrix(5, "bi", "reciprocal")
    bi5_acc = itd.chain_structural_matrix(5, "bi", "accumulative", 4)
    assert np.array_equal(bi5, bi5_acc)


def test_chain_rejects_large_hops():
    with pytest.raises(ValueError):
        itd.chain_structural_matrix(4, "uni", "accumulative", 4)


def test_graph_adjacency_and_path():
    g = itd.Graph(3, [(0, 1), (1, 2)])
    a = itd.graph_structural_matrix(g)
    want = np.zeros((3, 3))
    want[0, 1] = want[1, 0] = want[1, 2] = want[2, 1] = 1.0
    assert np.array_equal(a, want)
    empty = itd.graph_structural_matrix(itd.Graph(4, []))
    assert np.array_equal(empty, np.zeros((4, 4)))


def test_graph_self_loops_dropped_and_range_checked():
    g = itd.Graph(3, [(0, 0), (0, 1)])
    assert g.edges == [(0, 1)]
    with pytest.raises(IndexError):
        itd.Graph(2, [(0, 5)])


def test_normalize_adjacency_rows():
    g = itd.Graph(4, [(0, 1), (0, 2), (1, 2)])
    a_hat = itd.normalize_adjacency(g.adjacency())
    off = a_hat - np.eye(4)
    assert np.allclose(off[:3].sum(axis=1), 1.0)
    assert np.array_equal(a_hat[3], np.array([0, 0, 0, 1.0]))  # isolated node


def test_pagerank_equals_power_series():
    rng = np.random.default_rng(7)
    g = itd.Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)
                       if rng.random() < 0.3])
    adj = g.adjacency()
    deg = adj.sum(axis=1, keepdims=True)
    a_hat = adj / np.where(deg == 0.0, 1.0, deg)
    alpha = 0.15
    series = np.zeros((10, 10))
    term = np.eye(10)
    for _ in range(2000):
        series += term
        term = term @ ((1 - alpha) * a_hat)
    want = alpha * series
    got = alpha * np.linalg.solve(np.eye(10) - (1 - alpha) * a_hat, np.eye(10))
    ours = itd.graph_structural_matrix(g, "pagerank", alpha=alpha,
                                       normalization="row")
    assert np.max(np.abs(ours - want)) < 1e-8
    assert np.max(np.abs(ours - got)) < 1e-10


def test_graph_multihop_accumulative():
    g = itd.Graph(3, [(0, 1), (1, 2)])
    a = g.adjacency()
    assert np.array_equal(itd.graph_structural_matrix(g, "multihop", 2), a @ a)
    assert np.array_equal(itd.graph_structural_matrix(g, "accumulative", 2),
                          np.eye(3) + a + a @ a)


# ---------------------------------------------------------------------------
# post-norm, hybrid, rpn head


def test_col_l1_unit_column_sums():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5))
    n = itd.apply_post_norm(a, "col_l1")
    mass = np.abs(a).sum(axis=0) > 0
    assert np.allclose(np.abs(n).sum(axis=0)[mass], 1.0, atol=1e-12)


def test_scaled_col_softmax_post_norm():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    n = itd.apply_post_norm(a, "scaled_col_softmax", 4)
    assert np.allclose(n.sum(axis=0), 1.0)


def test_hybrid_hadamard_masking():
    from rpn2.fusion import FusionSpec
    g = itd.Graph(6, [(0, 1), (2, 3), (4, 5)])
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal(16)
    spec = _spec(itd.Hybrid(
        (itd.GraphStructural(g), itd.Bilinear(4)), FusionSpec("hadamard")))
    a = itd.build_matrix(spec, x, w)
    adj = g.adjacency()
    assert np.all((a != 0) <= (adj != 0))
    ident = itd.build_matrix(_spec(itd.Hybrid(
        (itd.Identity(3), itd.Identity(3)), FusionSpec("hadamard"))))
    assert np.array_equal(ident, np.eye(3))


def test_rpn_head_matches_parameterized():
    from rpn2.reconciliation import ReconciliationSpec
    from rpn2.transformation import ExpansionSpec
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3))
    m, mp = 3, 4
    w = rng.standard_normal(6 * m * mp)
    head = _spec(itd.RpnHead(m, mp, 6, ExpansionSpec("identity"),
                             ReconciliationSpec("identity", n=m * mp, D=6)))
    a = itd.build_matrix(head, x, w)
    assert a.shape == (m, mp)
    want = (x.reshape(1, -1) @ w.reshape(m * mp, 6).T).reshape(m, mp)
    assert np.max(np.abs(a - want)) < 1e-12
