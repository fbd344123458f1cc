import dataclasses

import numpy as np
import pytest

from rpn2 import backbone_equiv as be
from rpn2 import fusion as fu
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng, Tape


# ---------------------------------------------------------------------------
# reconciliation


def test_identity_reshape():
    spec = rc.ReconciliationSpec("identity", n=2, D=3)
    got = rc.reconcile(spec, np.arange(1.0, 7.0))
    assert np.array_equal(got, np.array([[1, 2, 3], [4, 5, 6]], dtype=float))


def test_constant_eye():
    spec = rc.ReconciliationSpec("constant_eye", n=3, D=5)
    got = rc.reconcile(spec)
    assert np.array_equal(got, np.eye(3, 5))
    assert rc.param_length(spec) == 0


def test_param_length_table():
    assert rc.param_length(rc.ReconciliationSpec("lorr", n=8, D=16, rank=2)) == 48
    assert rc.param_length(rc.ReconciliationSpec("vera", n=8, D=16, rank=2)) == 10
    assert rc.param_length(rc.ReconciliationSpec("identity", n=2, D=3)) == 6
    assert rc.param_length(
        rc.ReconciliationSpec("duplicated_padding", n=4, D=12, p=3, p_count=4)) == 3
    assert rc.param_length(
        rc.ReconciliationSpec("hypernet_lowrank", n=4, D=4, rank=2, mid=8,
                              input_len=5)) == 5


def test_reconcile_rejects_off_by_one():
    for spec in (rc.ReconciliationSpec("identity", n=2, D=3),
                 rc.ReconciliationSpec("lorr", n=4, D=6, rank=2),
                 rc.ReconciliationSpec("vera", n=4, D=6, rank=2),
                 rc.ReconciliationSpec("duplicated_padding", n=3, D=6, p=2,
                                       p_count=3)):
        l = rc.param_length(spec)
        rc.reconcile(spec, np.zeros(l))
        for bad in (l - 1, l + 1):
            with pytest.raises(ValueError):
                rc.reconcile(spec, np.zeros(bad))


def test_duplicated_padding_block_structure():
    spec = rc.ReconciliationSpec("duplicated_padding", n=3, D=6, p=2, p_count=3)
    w = np.array([1.5, -2.0])
    psi = rc.reconcile(spec, w)
    assert psi.shape == (3, 6)
    for j in range(3):
        assert np.array_equal(psi[j, 2 * j: 2 * j + 2], w)
    # each block row carries one copy of w, so row sums all equal sum(w)
    assert np.allclose(psi.sum(axis=1), w.sum())
    assert np.count_nonzero(psi) == 6


def _blocks_dot(a, w, n):
    """The blockwise product duplicated padding used to run as its own tape
    op, kept as the oracle: each row of `a` split into n blocks, each dotted
    with w."""
    return a.reshape(a.shape[0], n, -1) @ w


def _patch_products():
    """(expanded input, kernel, block count) at the benchmark's grid_cnn
    shape and of every channel of the cnn and pool equivalence cases."""
    prng = Prng(11)
    yield prng.normals((32, 192 * 27)), prng.normals((27,)), 192
    for build in (be.build_cnn_case, be.build_pool_case):
        case = build(Prng(5))
        head = case["model"].layers[0].heads[0]
        expanded = itd.build_matrix(head.attr_prior).rmatmul(case["x"])
        for c in range(head.channels):
            yield expanded, case["store"].get("l0.h0.c%d.psi" % c), head.n


def test_duplicated_padding_product_is_the_blockwise_oracle_bit_for_bit():
    for a, w, n in _patch_products():
        spec = rc.ReconciliationSpec("duplicated_padding", n=n, D=a.shape[1])
        with Tape() as tape:
            got = rc.reconciled_product(tape.constant(a), spec, tape.constant(w)).value
        assert got.tobytes() == _blocks_dot(a, w, n).tobytes()


@pytest.mark.parametrize("spec", [
    rc.ReconciliationSpec("identity", n=3, D=6),
    rc.ReconciliationSpec("constant_eye", n=3, D=6),
    rc.ReconciliationSpec("duplicated_padding", n=3, D=6),
    rc.ReconciliationSpec("lorr", n=3, D=6, rank=1),
], ids=lambda spec: spec.method)
def test_reconciled_product_checks_the_width_for_every_method(spec):
    with Tape() as tape:
        w = tape.constant(np.ones(rc.param_length(spec))) if rc.param_length(spec) else None
        with pytest.raises(ValueError, match="expanded width 8 != declared D 6"):
            rc.reconciled_product(tape.constant(np.ones((2, 8))), spec, w)


def test_lorr_dense_oracle():
    rng = np.random.default_rng(0)
    spec = rc.ReconciliationSpec("lorr", n=4, D=6, rank=2)
    w = rng.standard_normal(20)
    a = w[:8].reshape(4, 2)
    b = w[8:].reshape(6, 2)
    assert np.allclose(rc.reconcile(spec, w), a @ b.T, atol=1e-14)


def test_vera_dense_oracle_and_annihilation():
    rng = np.random.default_rng(1)
    spec = rc.ReconciliationSpec("vera", n=4, D=6, rank=3, seed=9)
    w = rng.standard_normal(7)
    fr = rc.frozen_randoms(spec)
    lam1, lam2 = w[:4], w[4:]
    want = np.diag(lam1) @ fr.A @ np.diag(lam2) @ fr.B.T
    assert np.max(np.abs(rc.reconcile(spec, w) - want)) < 1e-12
    zero = np.concatenate([np.zeros(4), lam2])
    assert np.array_equal(rc.reconcile(spec, zero), np.zeros((4, 6)))


def test_frozen_randoms_seed_determinism():
    s1 = rc.ReconciliationSpec("vera", n=3, D=4, rank=2, seed=5)
    s2 = rc.ReconciliationSpec("vera", n=3, D=4, rank=2, seed=6)
    a1 = rc.FrozenRandoms(s1)
    a1b = rc.FrozenRandoms(s1)
    a2 = rc.FrozenRandoms(s2)
    assert np.array_equal(a1.A, a1b.A)
    assert np.array_equal(a1.B, a1b.B)
    assert np.linalg.norm(a1.A - a2.A) > 0


@pytest.mark.parametrize("spec", [
    rc.ReconciliationSpec("vera", n=3, D=4, rank=2, seed=5),
    rc.ReconciliationSpec("hypernet_lowrank", n=3, D=4, rank=2, mid=6, input_len=5, seed=2),
])
def test_frozen_randoms_are_kept_once_per_spec_and_read_only(spec):
    fr = rc.frozen_randoms(spec)
    assert rc.frozen_randoms(spec) is fr
    arrays = list(vars(fr).values())
    assert arrays and all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0, 0] = 1.0
    # an equal spec draws the same factors into its own kept object
    twin = dataclasses.replace(spec)
    assert twin == spec and rc.frozen_randoms(twin) is not fr
    for a, b in zip(arrays, vars(rc.frozen_randoms(twin)).values()):
        assert a.tobytes() == b.tobytes()


def test_hypernet_shapes_and_determinism():
    spec = rc.ReconciliationSpec("hypernet_lowrank", n=3, D=4, rank=2, mid=6,
                                 input_len=5, seed=2)
    w = np.linspace(-1, 1, 5)
    out1 = rc.reconcile(spec, w)
    out2 = rc.reconcile(spec, w)
    assert out1.shape == (3, 4)
    assert np.array_equal(out1, out2)


def test_reconcile_node_matches_numpy():
    rng = np.random.default_rng(2)
    for spec in (rc.ReconciliationSpec("identity", n=3, D=4),
                 rc.ReconciliationSpec("lorr", n=3, D=4, rank=2),
                 rc.ReconciliationSpec("vera", n=3, D=4, rank=2, seed=1),
                 rc.ReconciliationSpec("hypernet_lowrank", n=3, D=4, rank=2,
                                       mid=5, input_len=6, seed=1)):
        w = rng.standard_normal(rc.param_length(spec))
        tape = Tape()
        node = rc.reconcile_node(spec, tape.parameter(w, name="w"))
        assert np.max(np.abs(node.value - rc.reconcile(spec, w))) < 1e-12


# ---------------------------------------------------------------------------
# fusion


def _rand_mats(k, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(k)]


def test_sum_average_weighted_consistency():
    mats = _rand_mats(3, (4, 4))
    s = fu.fuse(mats, fu.FusionSpec("sum"))
    a = fu.fuse(mats, fu.FusionSpec("average"))
    ws1 = fu.fuse(mats, fu.FusionSpec("weighted_sum", weights=(1, 1, 1)))
    wsk = fu.fuse(mats, fu.FusionSpec("weighted_sum", weights=(1 / 3,) * 3))
    assert np.max(np.abs(s - ws1)) < 1e-14
    assert np.max(np.abs(a - wsk)) < 1e-14
    cancel = fu.fuse([mats[0], mats[0]],
                     fu.FusionSpec("weighted_sum", weights=(1, -1)))
    assert np.array_equal(cancel, np.zeros((4, 4)))


def test_metric_fusions_entrywise_oracle():
    mats = _rand_mats(5, (4, 4), seed=3)
    stack = np.stack(mats)
    for metric, oracle in (("max", stack.max(0)), ("min", stack.min(0)),
                           ("prod", stack.prod(0)),
                           ("median", np.median(stack, 0))):
        got = fu.fuse(mats, fu.FusionSpec("metric", metric=metric))
        assert np.array_equal(got, oracle)


def test_hadamard_commutative_associative():
    a, b, c = _rand_mats(3, (3, 3), seed=4)
    spec = fu.FusionSpec("hadamard")
    ab = fu.fuse([a, b], spec)
    ba = fu.fuse([b, a], spec)
    assert np.max(np.abs(ab - ba)) < 1e-12
    abc1 = fu.fuse([fu.fuse([a, b], spec), c], spec)
    abc2 = fu.fuse([a, fu.fuse([b, c], spec)], spec)
    assert np.max(np.abs(abc1 - abc2)) < 1e-12
    masked = fu.fuse([a, np.ones((3, 3))], spec)
    assert np.array_equal(masked, a)


def test_concat_linear_identity_and_low_rank():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    spec = fu.FusionSpec("concat_linear", target=3)
    got = fu.fuse([a], spec, np.eye(3).reshape(-1))
    assert np.array_equal(got, a)
    b = rng.standard_normal((4, 2))
    p = rng.standard_normal((5, 2))
    q = rng.standard_normal((3, 2))
    spec_lr = fu.FusionSpec("concat_linear", target=3, low_rank=2)
    params = np.concatenate([p.reshape(-1), q.reshape(-1)])
    got_lr = fu.fuse([a, b], spec_lr, params)
    assert np.allclose(got_lr, np.concatenate([a, b], 1) @ p @ q.T, atol=1e-13)


def test_fusion_param_lengths():
    assert fu.param_length(fu.FusionSpec("weighted_sum"), (3, 3, 3, 3)) == 4
    assert fu.param_length(fu.FusionSpec("concat_linear", target=3), (2, 2)) == 12
    assert fu.param_length(fu.FusionSpec("concat_linear", target=3, low_rank=2),
                           (2, 2)) == 14
    assert fu.param_length(fu.FusionSpec("sum"), (2, 2)) == 0


def test_concat_linear_is_sized_without_learnable():
    spec = fu.FusionSpec("concat_linear", target=3)
    assert fu.param_length(spec, (2, 2)) == 12
    # the head's n is its channel fusion's output width, the target
    head = md.HeadConfig(m=4, n=3, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=4),
                         channels=2, channel_fusion=spec)
    model = md.ModelConfig([md.LayerConfig([head])])
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
    # train raises unless every registered slot receives a gradient
    history, store = md.train(model, x, y, epochs=1)
    assert len(history.epochs) == 1
    assert store.slots["l0.h0.cfuse"][1] == 12


def test_fusion_errors():
    with pytest.raises(ValueError):
        fu.fuse([], fu.FusionSpec("sum"))
    with pytest.raises(ValueError):
        fu.fuse([np.eye(2), np.eye(3)], fu.FusionSpec("sum"))
    with pytest.raises(ValueError):
        fu.fuse([np.eye(2), np.eye(2)],
                fu.FusionSpec("weighted_sum", weights=(1.0,)))


def test_fuse_nodes_matches_fuse():
    mats = _rand_mats(3, (3, 4), seed=6)
    for spec in (fu.FusionSpec("sum"), fu.FusionSpec("average"),
                 fu.FusionSpec("hadamard"),
                 fu.FusionSpec("weighted_sum", weights=(0.2, 0.3, 0.5)),
                 fu.FusionSpec("metric", metric="max")):
        tape = Tape()
        nodes = [tape.constant(m) for m in mats]
        got = fu.fuse_nodes(nodes, spec)
        assert np.max(np.abs(got.value - fu.fuse(mats, spec))) < 1e-13
    # learnable strategies carry a parameter node
    tape = Tape()
    nodes = [tape.constant(m) for m in mats]
    wspec = fu.FusionSpec("weighted_sum")
    w = np.array([0.5, -1.0, 2.0])
    got = fu.fuse_nodes(nodes, wspec, tape.parameter(w, name="w"))
    assert np.max(np.abs(got.value - fu.fuse(mats, wspec, w))) < 1e-13


def test_hypernet_closed_form_oracle():
    spec = rc.ReconciliationSpec("hypernet_lowrank", n=3, D=4, rank=2, mid=6,
                                 input_len=5, seed=2)
    w = np.linspace(-1, 1, 5)
    fr = rc.frozen_randoms(spec)
    hidden = 1.0 / (1.0 + np.exp(-(w[None, :] @ fr.P @ fr.Q.T)))
    want = (hidden @ fr.S @ fr.T.T).reshape(3, 4)
    assert np.max(np.abs(rc.reconcile(spec, w) - want)) < 1e-12


def _fd_fusion(spec, mats, params, h=1e-6):
    """Worst relative error of d sum(fuse * c) / d(params, inputs) against
    central finite differences."""
    c = np.random.default_rng(7).standard_normal(fu.fuse(mats, spec, params).shape)

    def loss(ms, p):
        return float(np.sum(fu.fuse(ms, spec, p) * c))

    tape = Tape()
    nodes = [tape.parameter(m, name=i) for i, m in enumerate(mats)]
    out = fu.fuse_nodes(nodes, spec, tape.parameter(params, name="p"))
    grads = tape.backward((out * tape.constant(c)).sum())
    worst = 0.0
    for name, vec in [("p", params)] + list(enumerate(mats)):
        flat = vec.reshape(-1)
        g = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss(mats, params)
            flat[j] = orig - h
            dn = loss(mats, params)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - g[j]) / max(1.0, abs(fd), abs(g[j])))
    return worst


def test_learnable_weighted_sum_gradient():
    spec = fu.FusionSpec("weighted_sum")
    params = np.array([0.5, -1.0, 2.0])
    assert _fd_fusion(spec, _rand_mats(3, (3, 4), seed=8), params) < 1e-6


def test_low_rank_concat_linear_gradient():
    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((4, 3)), rng.standard_normal((4, 2))]
    spec = fu.FusionSpec("concat_linear", target=3, low_rank=2)
    params = rng.standard_normal(fu.param_length(spec, (3, 2)))
    assert _fd_fusion(spec, mats, params) < 1e-6


@pytest.mark.parametrize("spec,widths", [
    (fu.FusionSpec("weighted_sum"), (3, 3)),
    (fu.FusionSpec("concat_linear", target=2), (3, 3)),
    (fu.FusionSpec("concat_linear", target=2, low_rank=1), (3, 3)),
])
@pytest.mark.parametrize("delta", [-1, 1])
def test_fuse_rejects_parameter_vector_of_wrong_length(spec, widths, delta):
    # a short concat_linear vector used to fail inside a numpy reshape
    mats = _rand_mats(len(widths), (4, 3), seed=10)
    need = fu.param_length(spec, widths)
    fu.fuse(mats, spec, np.ones(need))
    with pytest.raises(ValueError, match="%s fusion of 2 inputs needs %d parameters, got %d"
                       % (spec.strategy, need, need + delta)):
        fu.fuse(mats, spec, np.ones(need + delta))


@pytest.mark.parametrize("spec", [fu.FusionSpec("weighted_sum", weights=(1.0, 1.0)),
                                  fu.FusionSpec("sum")])
def test_fuse_rejects_parameters_a_fusion_does_not_learn(spec):
    # fixed weights used to be ignored without a word when a vector was given
    with pytest.raises(ValueError, match="needs 0 parameters, got 2"):
        fu.fuse(_rand_mats(2, (3, 3), seed=11), spec, np.full(2, 100.0))


def test_fusion_spec_fields():
    assert [f.name for f in dataclasses.fields(fu.FusionSpec)] == [
        "strategy", "weights", "metric", "target", "low_rank"]


@pytest.mark.parametrize("method, sizes", [
    ("identity", dict(n=2, D=2)),
    ("constant_eye", dict(n=2, D=2)),
    ("lorr", dict(n=2, D=3, rank=1)),
    ("vera", dict(n=2, D=3, rank=1)),
    ("hypernet_lowrank", dict(n=2, D=3, rank=1, mid=2, input_len=4)),
])
@pytest.mark.parametrize("copies", [dict(p=7, p_count=9), dict(p=1), dict(p_count=2)])
def test_only_duplicated_padding_takes_p_and_p_count(method, sizes, copies):
    # identity with p = 7, p_count = 9 once built and ran with both ignored
    with pytest.raises(ValueError, match="%s reconciliation reads no p" % method):
        rc.ReconciliationSpec(method, **sizes, **copies)
    assert rc.ReconciliationSpec(method, **sizes, p=0, p_count=0).p == 0


@pytest.mark.parametrize("method, unread", [
    ("identity", dict(rank=5, mid=7, input_len=9, seed=11)),
    ("constant_eye", dict(rank=1)),
    ("duplicated_padding", dict(seed=3)),
    ("lorr", dict(seed=2)),
    ("lorr", dict(mid=2)),
    ("vera", dict(input_len=4)),
])
def test_a_reconciliation_takes_only_the_sizes_its_method_reads(method, unread):
    # identity with rank 5, mid 7, input_len 9 and seed 11 once built with
    # 6 parameters, all four ignored
    sizes = dict(n=2, D=4, rank=1 if method in ("lorr", "vera") else 0)
    with pytest.raises(ValueError, match="%s reconciliation reads no %s = " % (
            method, next(iter(unread)))):
        rc.ReconciliationSpec(method, **dict(sizes, **unread))
    rc.ReconciliationSpec(method, **sizes)
    rc.ReconciliationSpec("hypernet_lowrank", n=2, D=4, rank=1, mid=7, input_len=9, seed=11)
    rc.ReconciliationSpec("vera", n=2, D=4, rank=1, seed=11)


def test_parameterized_full_with_a_rank_is_refused():
    spec = itd.InterdependenceSpec(itd.Parameterized(3, 3, "full", rank=2))
    with pytest.raises(ValueError, match="identity reconciliation reads no rank = 2"):
        itd.param_length(spec)
