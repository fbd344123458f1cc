import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import grid_geometry as gg
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng


# ---------------------------------------------------------------------------
# polynomials


def test_hermite_closed_forms():
    # He1..He4 = x, x^2-1, x^3-3x, x^4-6x^2+3 at x=2
    vals = tf.polynomial_values("hermite", np.array([2.0]), 4)
    assert np.array_equal(vals[0], np.array([2.0, 3.0, 2.0, -5.0]))


def test_fibonacci_lucas_closed_forms():
    f = tf.polynomial_values("fibonacci", np.array([1.0]), 5)
    assert np.array_equal(f[0], np.array([1.0, 1.0, 2.0, 3.0, 5.0]))
    # F_5(x) = x^4 + 3x^2 + 1
    x = 1.7
    f2 = tf.polynomial_values("fibonacci", np.array([x]), 5)
    assert f2[0, 4] == pytest.approx(x ** 4 + 3 * x ** 2 + 1, abs=1e-12)
    # L1..L5 = x, x^2+2, x^3+3x, x^4+4x^2+2, x^5+5x^3+5x
    l = tf.polynomial_values("lucas", np.array([x]), 5)
    want = [x, x ** 2 + 2, x ** 3 + 3 * x, x ** 4 + 4 * x ** 2 + 2,
            x ** 5 + 5 * x ** 3 + 5 * x]
    assert np.allclose(l[0], want, atol=1e-12)


def test_laguerre_closed_forms():
    # alpha=0: L1 = 1-x, L2 = (x^2-4x+2)/2
    x = 0.9
    vals = tf.polynomial_values("laguerre", np.array([x]), 2, alpha=0.0)
    assert vals[0, 0] == pytest.approx(1 - x, abs=1e-12)
    assert vals[0, 1] == pytest.approx((x * x - 4 * x + 2) / 2, abs=1e-12)


def test_legendre_closed_forms_and_orthogonality():
    x = 0.3
    vals = tf.polynomial_values("legendre", np.array([x]), 3)
    assert vals[0, 1] == pytest.approx((3 * x * x - 1) / 2, abs=1e-12)
    assert vals[0, 2] == pytest.approx((5 * x ** 3 - 3 * x) / 2, abs=1e-12)
    grid = np.linspace(-1, 1, 100001)
    pv = tf.polynomial_values("legendre", grid, 3)
    riemann = np.mean(pv[:, 1] * pv[:, 2]) * 2.0
    assert abs(riemann) < 1e-3


def test_gegenbauer_half_equals_legendre():
    grid = np.linspace(-0.95, 0.95, 41)
    geg = tf.polynomial_values("gegenbauer", grid, 6, alpha=0.5)
    leg = tf.polynomial_values("legendre", grid, 6)
    assert np.max(np.abs(geg - leg)) < 1e-10


def test_gegenbauer_rejects_zero_alpha():
    with pytest.raises(ValueError):
        tf.polynomial_values("gegenbauer", np.array([0.5]), 3, alpha=0.0)


def test_bessel_closed_form():
    # y1 = x+1, y2 = 3x^2+3x+1
    x = 0.4
    vals = tf.polynomial_values("bessel", np.array([x]), 2)
    assert vals[0, 0] == pytest.approx(x + 1, abs=1e-12)
    assert vals[0, 1] == pytest.approx(3 * x * x + 3 * x + 1, abs=1e-12)


def test_expand_polynomial_degree_major_layout():
    x = np.array([[1.0, 2.0]])
    spec = tf.ExpansionSpec("fibonacci", d=3)
    out = tf.expand(x, spec)
    # [F1(x), F2(x), F3(x)] blocks: F1=1, F2=x, F3=x^2+1
    assert np.array_equal(out, np.array([[1, 1, 1, 2, 2, 5]], dtype=float))


# ---------------------------------------------------------------------------
# wavelets


def test_haar_values():
    tau = np.array([0.25, 0.75, 1.5, -0.1])
    assert np.array_equal(tf.mother_wavelet("haar", tau),
                          np.array([1.0, -1.0, 0.0, 0.0]))


def test_meyer_at_zero():
    assert tf.mother_wavelet("meyer", np.array([0.0]))[0] == \
        pytest.approx(2.0 / 3.0 + 4.0 / (3.0 * np.pi))


def test_ricker_at_zero():
    sigma = 1.3
    want = 2.0 / (np.sqrt(3.0 * sigma) * np.pi ** 0.25)
    got = tf.mother_wavelet("ricker", np.array([0.0]), {"sigma": sigma})[0]
    assert got == pytest.approx(want)


def test_shannon_limit_and_dog():
    assert tf.mother_wavelet("shannon", np.array([0.0]))[0] == 1.0
    got = tf.mother_wavelet("dog", np.array([0.0]),
                            {"sigma1": 1.0, "sigma2": 2.0})[0]
    assert got == pytest.approx(1.0 / np.sqrt(2 * np.pi) - 0.5 / np.sqrt(2 * np.pi))


def test_beta_wavelet_validation():
    with pytest.raises(ValueError):
        tf.mother_wavelet("beta", np.array([0.5]), {"alpha": 0.5, "beta": 2.0})


@pytest.mark.parametrize("kind, params, unread", [
    ("ricker", {"sigma": 1.0, "width": 2.0}, "'width'"),
    ("haar", {"sigma": 1.0}, "'sigma'"),
    ("dog", {"sigma": 1.0}, "'sigma'"),
])
def test_a_wavelet_refuses_a_param_its_kind_does_not_read(kind, params, unread):
    with pytest.raises(ValueError, match="the %s wavelet reads no %s" % (kind, unread)):
        tf.mother_wavelet(kind, np.array([0.5]), params)
    spec = tf.ExpansionSpec("wavelet", wavelet=kind, wavelet_params=params)
    with pytest.raises(ValueError, match="reads no %s" % unread):
        tf.expand(np.ones((2, 3)), spec)
    with pytest.raises(ValueError, match="unknown wavelet kind 'bogus'"):
        tf.mother_wavelet("bogus", np.array([0.5]), params)


def test_child_wavelet_scaling():
    x = np.array([0.6])
    got = tf.child_wavelet("haar", x, 1, 0, a=2.0, b=1.0)
    # a^{-1/2} phi(x/2)
    assert got[0] == pytest.approx(2 ** -0.5 * 1.0)
    with pytest.raises(ValueError):
        tf.child_wavelet("haar", x, 0, 0, a=1.0)


def test_wavelet_expansion_widths():
    x = np.random.default_rng(0).random((3, 2))
    s1 = tf.ExpansionSpec("wavelet", wavelet="haar", s_max=2, t_max=3)
    out1 = tf.expand(x, s1)
    assert out1.shape == (3, 12)
    s2 = tf.ExpansionSpec("wavelet", wavelet="haar", s_max=2, t_max=3, order=2)
    out2 = tf.expand(x, s2)
    assert out2.shape == (3, 144)
    # order-2 is the per-instance outer square of order-1
    assert np.allclose(out2[0], np.outer(out1[0], out1[0]).reshape(-1))


# ---------------------------------------------------------------------------
# compression


def test_compress_elementwise():
    x = np.full((2, 3), 2.0)
    assert np.array_equal(tf.compress_elementwise(x, "identity"), x)
    assert np.array_equal(tf.compress_elementwise(x, "reciprocal"),
                          np.full((2, 3), 0.5))
    with pytest.raises(ValueError):
        tf.compress_elementwise(np.zeros((1, 2)), "reciprocal")
    c = np.eye(3)[:, :2]
    assert np.array_equal(tf.compress_elementwise(np.arange(6.0).reshape(2, 3),
                                                  "linear", c),
                          np.array([[0.0, 1.0], [3.0, 4.0]]))


def test_compress_patch_max_pool_oracle():
    rng = np.random.default_rng(1)
    grid = gg.GridSpec(4, 4, 1)
    x = rng.random((3, 16))
    shape = gg.Cuboid(0, 1, 0, 1, 0, 0)
    packing = gg.PackingSpec(2, 2, 1, clip_out_of_grid=True)
    got = tf.compress_patch(x, grid, shape, packing, "operator", "max")
    assert got.shape == (3, 4)
    imgs = x.reshape(3, 4, 4)
    want = np.stack([imgs[:, a:a + 2, b:b + 2].max(axis=(1, 2))
                     for a in (0, 2) for b in (0, 2)], axis=1)
    assert np.array_equal(got, want)
    const = tf.compress_patch(np.full((1, 16), 3.5), grid, shape, packing,
                              "operator", "max")
    assert np.all(const == 3.5)


def test_patch_mappings():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert tf._patch_map(vals, "norm", 1) == 10.0
    assert tf._patch_map(vals, "norm", 2) == pytest.approx(np.sqrt(30.0))
    assert tf._patch_map(vals, "norm", "inf") == 4.0
    p = vals / vals.sum()
    assert tf._patch_map(vals, "entropy", None) == \
        pytest.approx(-np.sum(p * np.log(p)))
    with pytest.raises(ValueError):
        tf._patch_map(np.array([1.0, -1.0]), "entropy", None)
    assert tf._patch_map(vals, "metric", "variance") == pytest.approx(np.var(vals))
    assert tf._patch_map(vals, "operator", "geo_mean") == \
        pytest.approx(np.exp(np.mean(np.log(vals))))
    assert tf._patch_map(vals, "operator", "harmonic_mean") == \
        pytest.approx(4.0 / np.sum(1.0 / vals))
    assert tf._patch_map(np.array([1.0, 1.0, 2.0]), "operator", "mode") == 1.0
    assert tf._patch_map(np.array([-1.0, 2.0]), "operator", "geo_mean") == 0.0


# ---------------------------------------------------------------------------
# selectors


def test_selector_single_batch_equals_column_variance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 6))
    state = tf.SelectorState(6, "variance", 3)
    state, out, sel = tf.select_features(state, x)
    assert np.allclose(state.v_bar, x.var(axis=0), atol=1e-12)
    assert sel == sorted(np.argsort(-x.var(axis=0))[:3].tolist())
    assert out.shape == (30, 3)


def test_selector_streaming_matches_rule():
    rng = np.random.default_rng(3)
    batches = [rng.standard_normal((20, 5)) for _ in range(4)]
    state = tf.SelectorState(5, "variance", 2)
    for b in batches:
        state, _, _ = tf.select_features(state, b)
    # the batch-averaging rule applied independently
    vbar = np.zeros(5)
    for t, b in enumerate(batches, start=1):
        vbar = ((t - 1) * vbar + b.var(axis=0)) / t
    assert np.allclose(state.v_bar, vbar, atol=1e-12)


def test_selector_freeze_idempotent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 4))
    state = tf.SelectorState(4, "variance", 2, early_stop_epoch=1)
    state, out1, sel1 = tf.select_features(state, x)
    assert state.frozen
    v_before = state.v_bar.copy()
    state, out2, sel2 = tf.select_features(state, rng.standard_normal((10, 4)))
    assert np.array_equal(state.v_bar, v_before)
    assert sel1 == sel2


def test_selector_cluster_k_equals_m():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 4))
    state = tf.SelectorState(4, "cluster", 4)
    state, out, sel = tf.select_features(state, x)
    assert sel == [0, 1, 2, 3]


def test_selector_rejects_large_k():
    with pytest.raises(ValueError):
        tf.SelectorState(3, "variance", 4)


# ---------------------------------------------------------------------------
# dimension reduction


def test_ipca_rank1_reconstruction():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((40, 1))
    v = rng.standard_normal((1, 8))
    x = u @ v
    state, z = tf.reduce_dimension(None, x, "ipca", 1)
    recon = z @ state.basis.T + state.mean
    assert np.max(np.abs(recon - x)) < 1e-8


def test_ipca_basis_orthonormal():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 6))
    state, _ = tf.reduce_dimension(None, x, "ipca", 3)
    assert np.allclose(state.basis.T @ state.basis, np.eye(3), atol=1e-8)


def test_gaussian_projection_variance():
    r = Prng(0).normals((10000, 16)) / np.sqrt(16)
    assert abs(r.var() - 1.0 / 16) < 3 * (1.0 / 16) * np.sqrt(2.0 / 10000)


def test_sparse_projection_degenerate_density():
    r = tf.sparse_projection_matrix(Prng(1), 50, 8, s=1.0)
    mag = np.sqrt(1.0 / 8)
    assert set(np.round(np.unique(np.abs(r)), 12)) == {round(mag, 12)}
    with pytest.raises(ValueError):
        tf.sparse_projection_matrix(Prng(1), 5, 2, s=0.0)


def _sparse_projection_oracle(prng, m, k, s):
    """One scalar draw per entry in row-major order."""
    mag = np.sqrt(1.0 / (s * k))
    out = np.zeros((m, k))
    for i in range(m):
        for j in range(k):
            u = prng.uniform()
            if u < s / 2.0:
                out[i, j] = mag
            elif u < s:
                out[i, j] = -mag
    return out


@pytest.mark.parametrize("m,k,s", [(1, 1, 1.0), (5, 3, 1.0), (17, 9, 0.3),
                                   (64, 7, 1.0 / 3.0), (0, 4, 0.5)])
def test_sparse_projection_matches_scalar_loop(m, k, s):
    a, b = Prng(11), Prng(11)
    got = tf.sparse_projection_matrix(a, m, k, s)
    want = _sparse_projection_oracle(b, m, k, s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert a.next_u64() == b.next_u64()


def test_projection_state_frozen():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 20))
    state, z1 = tf.reduce_dimension(None, x, "random_projection_gaussian", 4,
                                    prng=Prng(3))
    state, z2 = tf.reduce_dimension(state, x, "random_projection_gaussian", 4)
    assert np.array_equal(z1, z2)


# ---------------------------------------------------------------------------
# probabilistic


def test_probabilistic_naive_permutation_and_determinism():
    x = np.array([[3.0, 1.0, 2.0, 0.5]])
    spec = tf.CompressionSpec("probabilistic", mode="naive", d=4)
    out1 = tf.compress_probabilistic(x, spec, Prng(5))
    out2 = tf.compress_probabilistic(x, spec, Prng(5))
    assert np.array_equal(out1, out2)
    assert sorted(out1[0].tolist()) == sorted(x[0].tolist())


def test_probabilistic_log_likelihood_at_zero():
    x = np.zeros((1, 3))
    spec = tf.CompressionSpec("probabilistic", mode="naive", d=2,
                              log_likelihood=True)
    out = tf.compress_probabilistic(x, spec, Prng(6))
    assert np.allclose(out, np.log(1.0 / np.sqrt(2 * np.pi)))


def test_probabilistic_combinatorial_sums():
    x = np.array([[1.0, 2.0, 4.0]])
    spec = tf.CompressionSpec("probabilistic", mode="combinatorial", d=6,
                              tuple_k=2)
    out = tf.compress_probabilistic(x, spec, Prng(7))
    allowed = {1.0, 2.0, 4.0, 3.0, 5.0, 6.0}
    assert set(out[0].tolist()) <= allowed
    with pytest.raises(ValueError):
        tf.compress_probabilistic(x, tf.CompressionSpec(
            "probabilistic", mode="combinatorial", d=2, tuple_k=4), Prng(8))
