import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import reconciliation as rc
from rpn2.numeric_core import (Node, Prng, SingularMatrixError, SparseCoo,
                               Tape, concat_nodes,
                               cross_entropy_node, l1_normalize_node,
                               matrix_exp, norm, scaled_softmax, softmax_node,
                               solve)


# ---------------------------------------------------------------------------
# sparse


def test_sparse_canonicalization_sums_duplicates_drops_zeros():
    a = SparseCoo(3, 3, [0, 0, 1, 1], [0, 0, 1, 1], [1.0, 2.0, 5.0, -5.0])
    assert a.nnz == 1
    assert a.triplets == [(0, 0, 3.0)]


def test_sparse_roundtrip_and_matmul():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((5, 7))
    d[np.abs(d) < 0.8] = 0.0
    s = SparseCoo.from_dense(d)
    assert np.array_equal(s.to_dense(), d)
    b = rng.standard_normal((7, 4))
    assert np.allclose(s.transpose().rmatmul(b.T).T, d @ b, atol=1e-14)
    assert np.array_equal(s.transpose().to_dense(), d.T)


def test_matrix_market_format():
    s = SparseCoo(2, 3, [1, 0], [2, 0], [0.5, -1.0])
    text = s.to_matrix_market()
    lines = text.strip().split("\n")
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "2 3 2"
    assert lines[2].startswith("1 1 ")  # 1-based, sorted
    assert lines[3].startswith("2 3 ")


def test_sparse_rejects_out_of_range():
    with pytest.raises(IndexError):
        SparseCoo(2, 2, [2], [0], [1.0])


def test_from_dense_keeps_what_the_constructor_keeps():
    # the one entry rule, value != 0: NaN and inf stay, +-0.0 goes
    d = np.array([[np.nan, 1.0], [-0.0, np.inf]])
    s = SparseCoo.from_dense(d)
    assert s.nnz == 3
    assert s.to_dense().tobytes() == np.array([[np.nan, 1.0], [0.0, np.inf]]).tobytes()
    same = SparseCoo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], d.reshape(-1))
    for x, y in ((s.row_idx, same.row_idx), (s.col_idx, same.col_idx), (s.vals, same.vals)):
        assert x.tobytes() == y.tobytes()
    assert s.to_matrix_market().split("\n")[2:4] == ["1 1 nan", "1 2 1"]


def test_each_matrix_is_canonicalised_once(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    s = SparseCoo.from_dense(np.eye(4)[::-1])
    t = s.transpose()
    u = SparseCoo(5, 5)
    assert len(calls) == 3
    assert s.transpose() is t and t.nnz == 4 and u.nnz == 0
    with pytest.raises(ValueError):
        SparseCoo(2, 2, [0, 1], [0], [1.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_sparse_matmul_matches_dense(seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((4, 6))
    d[rng.random((4, 6)) < 0.5] = 0.0
    b = rng.standard_normal((6, 3))
    assert np.allclose(SparseCoo.from_dense(d).transpose().rmatmul(b.T).T, d @ b, atol=1e-13)


# ---------------------------------------------------------------------------
# linear algebra


def test_scaled_softmax_rows_sum_to_one():
    a = np.random.default_rng(1).standard_normal((4, 5))
    s = scaled_softmax(a, 4, axis="row")
    assert np.allclose(s.sum(axis=1), 1.0)
    c = scaled_softmax(a, 4, axis="col")
    assert np.allclose(c.sum(axis=0), 1.0)
    # scaling: softmax(a/sqrt(r)) literally
    z = a / 2.0
    e = np.exp(z - z.max(axis=1, keepdims=True))
    assert np.allclose(s, e / e.sum(axis=1, keepdims=True))


def test_solve_matches_numpy():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal((6, 2))
    assert np.allclose(solve(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_solve_singular_raises():
    a = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        solve(a, np.eye(3))


def test_matrix_exp_nilpotent_exact():
    a = np.zeros((4, 4))
    a[np.arange(3), np.arange(3) + 1] = 1.0
    got = matrix_exp(a)
    want = np.eye(4) + a + a @ a / 2 + a @ a @ a / 6
    assert np.array_equal(got, want)


def test_matrix_exp_diagonal():
    a = np.diag([0.3, -0.7])
    assert np.allclose(matrix_exp(a), np.diag(np.exp([0.3, -0.7])), atol=1e-14)


def test_norms_against_brute_force():
    a = np.array([[3.0, -4.0], [1.0, 1.0]])
    assert norm(a, "frobenius") == pytest.approx(np.sqrt(27.0))
    assert norm(a, "infinity") == 7.0
    assert norm(a, "two_to_infinity") == 5.0
    # sup definition cross-check by sampling unit vectors
    rng = np.random.default_rng(3)
    best = 0.0
    for _ in range(2000):
        z = rng.standard_normal(2)
        z /= np.linalg.norm(z)
        best = max(best, np.max(np.abs(a @ z)))
    assert best <= norm(a, "two_to_infinity") + 1e-9


# ---------------------------------------------------------------------------
# prng


def test_prng_deterministic_and_derive_independent():
    a = Prng(42).uniforms((8,))
    b = Prng(42).uniforms((8,))
    assert np.array_equal(a, b)
    c = Prng(42).derive("x").uniforms((8,))
    assert not np.array_equal(a, c)
    assert np.array_equal(c, Prng(42).derive("x").uniforms((8,)))


def test_prng_uniform_range_and_normal_moments():
    p = Prng(7)
    u = p.uniforms((5000,))
    assert np.all((u >= 0) & (u < 1))
    z = Prng(9).normals((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_prng_randint_and_choice():
    p = Prng(1)
    vals = [p.randint(5) for _ in range(100)]
    assert set(vals) <= set(range(5))
    q = Prng(2)
    picks = [q.choice_weighted([0.0, 1.0, 0.0]) for _ in range(20)]
    assert picks == [1] * 20


@pytest.mark.parametrize("n", [0, -2])
def test_prng_randint_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="n >= 1, got %d" % n):
        Prng(1).randint(n)


def _scalar_uniforms(p, n):
    return np.array([p.uniform() for _ in range(n)])


def _scalar_normals(p, n):
    return np.array([p.normal() for _ in range(n)])


# seeds above 2**63 set the top bit that a signed 64-bit type would lose
_SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 63, 2 ** 64 - 1))


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.integers(0, 2000))
def test_uniforms_block_equals_scalar_stream(seed, n):
    a, b = Prng(seed), Prng(seed)
    assert a.uniforms(n).tobytes() == _scalar_uniforms(b, n).tobytes()
    assert a.next_u64() == b.next_u64()


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.integers(0, 1000))
def test_odd_normals_block_leaves_the_scalar_spare(seed, k):
    n = 2 * k + 1
    a, b = Prng(seed), Prng(seed)
    assert a.normals(n).tobytes() == _scalar_normals(b, n).tobytes()
    assert np.float64(a.normal()).tobytes() == np.float64(b.normal()).tobytes()
    assert a.next_u64() == b.next_u64()


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.integers(0, 2000))
def test_normals_block_consumes_a_pending_spare(seed, n):
    a, b = Prng(seed), Prng(seed)
    assert np.float64(a.normal()).tobytes() == np.float64(b.normal()).tobytes()
    assert a.normals(n).tobytes() == _scalar_normals(b, n).tobytes()
    assert np.float64(a.normal()).tobytes() == np.float64(b.normal()).tobytes()
    assert a.next_u64() == b.next_u64()


def test_block_draws_keep_shape_and_interleave():
    a, b = Prng(3), Prng(3)
    got = [a.uniforms((4, 5)), a.normals((3, 3)), a.uniforms(0), a.normals((2, 1))]
    want = [_scalar_uniforms(b, 20).reshape(4, 5), _scalar_normals(b, 9).reshape(3, 3),
            _scalar_uniforms(b, 0), _scalar_normals(b, 2).reshape(2, 1)]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert a.next_u64() == b.next_u64()


# ---------------------------------------------------------------------------
# tape: finite differences per op


def _fd_check(build, shapes, seed=0, tol=1e-6):
    """build(tape, nodes) -> scalar-ish node; checks d(loss)/d(every input)."""
    rng = np.random.default_rng(seed)
    vals = [rng.standard_normal(s) for s in shapes]
    tape = Tape()
    nodes = [tape.parameter(v.copy(), name="p%d" % i) for i, v in enumerate(vals)]
    loss = build(tape, nodes)
    grads = tape.backward(loss)
    h = 1e-6
    for i, v in enumerate(vals):
        g = grads["p%d" % i]
        flat = v.reshape(-1)
        for j in range(min(flat.size, 6)):
            orig = flat[j]
            flat[j] = orig + h
            t2 = Tape()
            n2 = [t2.parameter(vv, name="q%d" % ii) for ii, vv in enumerate(vals)]
            lp = float(np.sum(build(t2, n2).value))
            flat[j] = orig - h
            t3 = Tape()
            n3 = [t3.parameter(vv, name="r%d" % ii) for ii, vv in enumerate(vals)]
            lm = float(np.sum(build(t3, n3).value))
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            gj = np.asarray(g).reshape(-1)[j]
            assert abs(fd - gj) / max(1.0, abs(fd), abs(gj)) < tol, \
                "input %d coord %d: fd %g vs %g" % (i, j, fd, gj)


def test_grad_add_mul_matmul():
    _fd_check(lambda t, n: ((n[0] + n[1]) * n[0]).matmul(n[2]).sum(),
              [(3, 4), (3, 4), (4, 2)])


def test_grad_sub_scale_transpose_reshape():
    _fd_check(lambda t, n: (n[0] - n[1].transpose()).scale(1.7)
              .reshape((2, 6)).sum(), [(3, 4), (4, 3)])


def test_grad_activations():
    _fd_check(lambda t, n: (n[0].tanh() + n[0].sigmoid() + n[0].relu()).sum(),
              [(3, 3)], seed=5)


def test_grad_mean():
    _fd_check(lambda t, n: n[0].mean(), [(4, 5)])


def test_grad_softmax_node():
    _fd_check(lambda t, n: (softmax_node(n[0], axis="row", r=3)
                            * n[1]).sum(), [(3, 4), (3, 4)])
    _fd_check(lambda t, n: (softmax_node(n[0], axis="col", r=2)
                            * n[1]).sum(), [(3, 4), (3, 4)])


def test_grad_l1_normalize_node():
    _fd_check(lambda t, n: (l1_normalize_node(n[0], axis="col") * n[1]).sum(),
              [(3, 4), (3, 4)], seed=2)
    _fd_check(lambda t, n: (l1_normalize_node(n[0], axis="row") * n[1]).sum(),
              [(3, 4), (3, 4)], seed=3)


def test_grad_concat_blocks_cross_entropy():
    _fd_check(lambda t, n: (concat_nodes([n[0], n[1]])
                            .matmul(n[2])).sum(), [(3, 2), (3, 3), (5, 2)])
    blocks = rc.ReconciliationSpec("duplicated_padding", n=3, D=12)
    _fd_check(lambda t, n: rc.reconciled_product(n[0], blocks, n[1]).sum(), [(2, 12), (4,)])
    # the block layout reconcile_node lays out on the tape
    _fd_check(lambda t, n: n[0].matmul(rc.reconcile_node(blocks, n[1]).transpose()).sum(),
              [(2, 12), (4,)], seed=1)
    labels = np.array([0, 2, 1])
    _fd_check(lambda t, n: cross_entropy_node(n[0], labels), [(3, 3)], seed=8)


def test_grad_take():
    _fd_check(lambda t, n: n[0].take(2, 7).reshape((1, 5)).matmul(n[1]).sum(),
              [(3, 4), (5, 2)])
    # two slices of one node, one of them reaching the end, accumulate
    _fd_check(lambda t, n: (n[0].take(9, 12) * n[0].take(0, 3)).sum(), [(12,)],
              seed=6)


def test_duplicated_padding_product_equals_block_matrix():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 8))
    w = rng.standard_normal(4)
    tape = Tape()
    spec = rc.ReconciliationSpec("duplicated_padding", n=2, D=8)
    out = rc.reconciled_product(tape.constant(a), spec, tape.constant(w))
    psi = np.zeros((2, 8))
    psi[0, :4] = w
    psi[1, 4:] = w
    assert np.array_equal(rc.reconcile(spec, w), psi)
    assert np.allclose(out.value, a @ psi.T, atol=1e-14)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.parameter(np.ones((2, 2)), name="x")
    with pytest.raises(ValueError):
        tape.backward(x)


def test_cross_entropy_value():
    tape = Tape()
    logits = tape.constant(np.array([[100.0, 0.0], [0.0, 100.0]]))
    loss = cross_entropy_node(logits, np.array([0, 1]))
    assert float(loss.value[0, 0]) < 1e-12
