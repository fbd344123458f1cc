import numpy as np
import pytest

from rpn2 import datasets as ds
from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng


def _perceptron_head(m, n, remainder="zero", out_proc=None):
    return md.HeadConfig(m=m, n=n, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=n, D=m),
                         remainder=remainder,
                         processors={"output": out_proc} if out_proc else {})


def _single(head):
    return md.ModelConfig([md.LayerConfig([head])])


def test_perceptron_reduction():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((4, 3))
    model = _single(_perceptron_head(3, 4))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (12,), w.reshape(-1))
    out = md.model_forward(x, model, store)
    assert np.max(np.abs(out - x @ w.T)) < 1e-13


def test_two_channels_sum_equals_two_heads():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    w1 = rng.standard_normal(6)
    w2 = rng.standard_normal(6)
    head2c = md.HeadConfig(m=3, n=2, expansion=tf.ExpansionSpec("identity"),
                           reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
                           channels=2, channel_fusion=fu.FusionSpec("sum"))
    store2 = md.ParameterStore()
    store2.add_slot("l0.h0.c0.psi", (6,), w1)
    store2.add_slot("l0.h0.c1.psi", (6,), w2)
    got = md.model_forward(x, _single(head2c), store2)
    want = x @ w1.reshape(2, 3).T + x @ w2.reshape(2, 3).T
    assert np.max(np.abs(got - want)) < 1e-13


def test_identical_heads_average_idempotent():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal(6)
    layer = md.LayerConfig([_perceptron_head(3, 2), _perceptron_head(3, 2)],
                           fu.FusionSpec("average"))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (6,), w)
    store.add_slot("l0.h1.c0.psi", (6,), w)
    got = md.model_forward(x, md.ModelConfig([layer]), store)
    assert np.max(np.abs(got - x @ w.reshape(2, 3).T)) < 1e-13


def test_three_layer_perceptron_chain_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    ws = [rng.standard_normal((5, 4)), rng.standard_normal((3, 5)),
          rng.standard_normal((2, 3))]
    layers = []
    dims = [(4, 5), (5, 3), (3, 2)]
    for k, (m, n) in enumerate(dims):
        proc = "tanh" if k < 2 else None
        layers.append(md.LayerConfig([_perceptron_head(m, n, out_proc=proc)]))
    model = md.ModelConfig(layers)
    store = md.ParameterStore()
    for k, w in enumerate(ws):
        store.add_slot("l%d.h0.c0.psi" % k, (w.size,), w.reshape(-1))
    got = md.model_forward(x, model, store)
    want = np.tanh(np.tanh(x @ ws[0].T) @ ws[1].T) @ ws[2].T
    assert np.max(np.abs(got - want)) < 1e-12


def test_zero_extra_channel_under_sum_unchanged():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal(6)
    head1 = _perceptron_head(3, 2)
    head2 = md.HeadConfig(m=3, n=2, expansion=tf.ExpansionSpec("identity"),
                          reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
                          channels=2, channel_fusion=fu.FusionSpec("sum"))
    s1 = md.ParameterStore()
    s1.add_slot("l0.h0.c0.psi", (6,), w)
    s2 = md.ParameterStore()
    s2.add_slot("l0.h0.c0.psi", (6,), w)
    s2.add_slot("l0.h0.c1.psi", (6,), np.zeros(6))
    assert np.array_equal(md.model_forward(x, _single(head1), s1),
                          md.model_forward(x, _single(head2), s2))


def test_linearity_in_psi_parameters():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 3))
    head = md.HeadConfig(m=3, n=2, expansion=tf.ExpansionSpec("hermite", d=2),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=6))
    model = _single(head)
    w1 = rng.standard_normal(12)
    w2 = rng.standard_normal(12)
    outs = []
    for w in (w1, w2, w1 + w2):
        store = md.ParameterStore()
        store.add_slot("l0.h0.c0.psi", (12,), w)
        outs.append(md.model_forward(x, model, store))
    assert np.max(np.abs(outs[2] - outs[0] - outs[1])) < 1e-12


def test_versatile_reduction_with_identity_interdeps():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal(6)
    plain = _perceptron_head(3, 2)
    dressed = md.HeadConfig(
        m=3, n=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
        attr_prior=itd.InterdependenceSpec(itd.Identity(3)),
        inst_post=itd.InterdependenceSpec(itd.Identity(5), axis="instance"))
    s = md.ParameterStore()
    s.add_slot("l0.h0.c0.psi", (6,), w)
    assert np.allclose(md.model_forward(x, _single(plain), s),
                       md.model_forward(x, _single(dressed), s), atol=1e-13)


def test_station_dimension_mismatch_reported():
    head = md.HeadConfig(m=3, n=2, expansion=tf.ExpansionSpec("hermite", d=2),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=5))
    store = md.init_store(_single(head), 0)
    with pytest.raises(ValueError, match="station"):
        md.model_forward(np.zeros((2, 3)), _single(head), store)


def test_quadratic_single_parameter_converges_to_least_squares():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 1))
    y = 3.0 * x
    head = _perceptron_head(1, 1)
    model = _single(head)
    hist, store = md.train(model, x, y, loss="mse",
                           optimizer={"kind": "sgd", "lr": 0.3}, epochs=200,
                           seed=1)
    w_opt = float((x.T @ y)[0, 0] / (x.T @ x)[0, 0])
    assert abs(store.vector[0] - w_opt) < 1e-6


def test_lr_zero_leaves_parameters_bit_identical():
    x, y = ds.two_moons(40, 0.1, 1)
    head = _perceptron_head(2, 2)
    model = _single(head)
    store0 = md.init_store(model, 9)
    before = store0.vector.copy()
    hist, store = md.train(model, x, y, loss="cross_entropy",
                           optimizer={"kind": "sgd", "lr": 0.0}, epochs=5,
                           seed=9)
    assert np.array_equal(store.vector, before)
    losses = [e["loss"] for e in hist.epochs]
    assert losses == [losses[0]] * 5


def test_training_nonincreasing_on_convex_task():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 3))
    y = x @ np.array([[1.0], [2.0], [-1.0]])
    model = _single(_perceptron_head(3, 1))
    hist, _ = md.train(model, x, y, loss="mse",
                       optimizer={"kind": "sgd", "lr": 1e-4}, epochs=10, seed=2)
    losses = [e["loss"] for e in hist.epochs]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_determinism_and_momentum_adam():
    x, y = ds.two_moons(60, 0.1, 2)
    head1 = md.HeadConfig(m=2, n=6, expansion=tf.ExpansionSpec("hermite", d=2),
                          reconciliation=rc.ReconciliationSpec("lorr", n=6, D=4,
                                                               rank=2),
                          processors={"output": "tanh"})
    head2 = _perceptron_head(6, 2)
    model = md.ModelConfig([md.LayerConfig([head1]), md.LayerConfig([head2])])
    runs = []
    for _ in range(2):
        hist, store = md.train(model, x, y, loss="cross_entropy",
                               optimizer={"kind": "adaptive_moments", "lr": 0.05},
                               epochs=30, seed=4)
        runs.append(store.vector.copy())
    assert np.array_equal(runs[0], runs[1])
    hist_m, _ = md.train(model, x, y, loss="cross_entropy",
                         optimizer={"kind": "sgd", "lr": 0.1, "momentum": 0.9},
                         epochs=30, seed=4)
    assert np.isfinite(hist_m.epochs[-1]["loss"])


def test_init_store_seeded_and_bounded():
    head = md.HeadConfig(m=4, n=3, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("lorr", n=3, D=4,
                                                              rank=2),
                         remainder="linear")
    model = _single(head)
    s1 = md.init_store(model, 3)
    s2 = md.init_store(model, 3)
    s3 = md.init_store(model, 4)
    assert np.array_equal(s1.vector, s2.vector)
    assert not np.array_equal(s1.vector, s3.vector)
    assert np.max(np.abs(s1.vector)) <= 1.0 / np.sqrt(4)
    assert s1.total() == (3 + 4) * 2 + 4 * 3


def test_diagnostics_identity_rank_and_norms():
    rng = np.random.default_rng(9)
    b = 7
    x = rng.standard_normal((b, 3))
    head = md.HeadConfig(
        m=3, n=3, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("constant_eye", n=3, D=3),
        inst_prior=itd.InterdependenceSpec(itd.Identity(b), axis="instance"))
    model = _single(head)
    store = md.init_store(model, 0)
    report = md.diagnostics(model, x, store)
    entry = report["layers"][0]
    assert entry["rank"] == b
    assert entry["norm_infinity"] == 1.0
    assert entry["nnz"] == b
    assert entry["norm_two_to_infinity_ax"] == pytest.approx(
        float(np.max(np.sqrt(np.sum(x * x, axis=1)))))


def test_diagnostics_parameter_total_lorr():
    head = md.HeadConfig(m=8, n=4, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("lorr", n=4, D=8,
                                                              rank=2))
    model = _single(head)
    store = md.init_store(model, 0)
    report = md.diagnostics(model, np.zeros((3, 8)), store)
    assert report["parameter_total"] == 24


def test_nonfinite_loss_aborts():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((10, 2)) * 1e150
    y = rng.standard_normal((10, 1)) * 1e150
    model = _single(_perceptron_head(2, 1))
    with pytest.raises(FloatingPointError):
        md.train(model, x, y, loss="mse",
                 optimizer={"kind": "sgd", "lr": 1e200}, epochs=5, seed=0)


def test_parametric_hybrid_prior_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    head = md.HeadConfig(
        m=3, n=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
        attr_prior=itd.InterdependenceSpec(itd.Hybrid(
            (itd.Parameterized(3, 3), itd.Identity(3)), fu.FusionSpec("sum"))))
    model = _single(head)
    store = md.init_store(model, 0)
    out, tape, _ = md.model_forward_nodes(x, model, store)
    g = tape.backward((out * out).sum())["l0.h0.attr_prior"]
    assert np.all(np.isfinite(g)) and np.any(g != 0)
    off, length, _ = store.slots["l0.h0.attr_prior"]
    base = store.vector.copy()
    h = 1e-6
    for i in range(length):
        losses = []
        for step in (h, -h):
            store.vector = base.copy()
            store.vector[off + i] += step
            losses.append(float(np.sum(md.model_forward(x, model, store) ** 2)))
        fd = (losses[0] - losses[1]) / (2.0 * h)
        assert abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i])) < 1e-5


def test_head_fusion_rejects_mismatched_head_widths():
    layer = md.LayerConfig([_perceptron_head(3, 2), _perceptron_head(3, 1)],
                           fu.FusionSpec("sum"))
    model = md.ModelConfig([layer])
    store = md.init_store(model, 0)
    with pytest.raises(ValueError, match="share a shape"):
        md.model_forward(np.ones((4, 3)), model, store)


def test_gegenbauer_alpha_zero_rejected_on_model_path():
    head = md.HeadConfig(m=2, n=2,
                         expansion=tf.ExpansionSpec("gegenbauer", d=2, alpha=0.0),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=4))
    model = _single(head)
    with pytest.raises(ValueError, match="gegenbauer"):
        md.model_forward(np.ones((3, 2)), model, md.init_store(model, 0))


def test_identity_remainder_checks_widths_of_duplicated_padding_heads():
    # one 2x2 patch on a 2x2x1 grid: the head maps 4 cells to 1 output, so
    # the input cannot be added back (it used to broadcast to a (3, 4) output)
    grid = gg.GridSpec(2, 2, 1)
    shape = gg.Cuboid(0, 1, 0, 1, 0, 0)
    packing = gg.PackingSpec(2.0, 2.0, 1.0, clip_out_of_grid=True)
    assert len(gg.packing_centers(grid, packing, shape)) == 1
    head = md.HeadConfig(
        m=4, n=1, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("duplicated_padding", n=1, D=4, p=4,
                                             p_count=1),
        attr_prior=itd.InterdependenceSpec(
            itd.GridStructural(grid, shape, packing, "padding")),
        remainder="identity", dup_blocks=(1, 4))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (4,), np.ones(4))
    with pytest.raises(ValueError, match="identity remainder"):
        md.model_forward(np.ones((3, 4)), _single(head), store)


@pytest.mark.parametrize("recon,n", [
    (rc.ReconciliationSpec("identity", n=8, D=2), 16),
    (rc.ReconciliationSpec("duplicated_padding", n=2, D=4, p=2, p_count=2), 3),
])
def test_init_store_rejects_head_width_its_reconciliation_does_not_give(recon, n):
    # a head of the wrong n used to forward at the reconciliation's width,
    # and head fusion would be sized from the wrong n
    ok = md.HeadConfig(m=2, n=2, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("identity", n=2, D=2))
    bad = md.HeadConfig(m=2, n=n, expansion=tf.ExpansionSpec("identity"),
                        reconciliation=recon)
    model = md.ModelConfig([md.LayerConfig([ok, bad])])
    with pytest.raises(ValueError, match=r"head l0\.h1 declares n = %d" % n):
        md.init_store(model, 0)


@pytest.mark.parametrize("sizes,match", [
    # ran silently at width p_count = 2 on a 6-wide input
    (dict(n=5, D=7, p=3, p_count=2), "D = 7 to be a multiple of n = 5"),
    (dict(n=5, D=4, p=2, p_count=2), "D = 4 to be a multiple of n = 5"),
    (dict(n=0, D=4), "n = 0"),
    (dict(n=2, D=4, p=1), "p = 1 and p_count = 0 to be 0 or D / n and n"),
    (dict(n=2, D=4, p_count=4), "p = 0 and p_count = 4"),
])
def test_duplicated_padding_rejects_sizes_other_than_n_blocks_of_D_over_n(sizes, match):
    with pytest.raises(ValueError, match=match):
        rc.ReconciliationSpec("duplicated_padding", **sizes)


@pytest.mark.parametrize("copies", [{}, dict(p=2), dict(p_count=2), dict(p=2, p_count=2)])
def test_duplicated_padding_head_width_is_its_block_count(copies):
    head = md.HeadConfig(m=4, n=2, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec(
                             "duplicated_padding", n=2, D=4, **copies))
    store = md.init_store(_single(head), 0)
    assert store.slots["l0.h0.c0.psi"][1] == 2
    assert md.model_forward(np.ones((3, 4)), _single(head), store).shape == (3, 2)


def test_init_store_names_a_head_without_channels():
    head = dict(m=2, n=2, expansion=tf.ExpansionSpec("identity"),
                reconciliation=rc.ReconciliationSpec("identity", n=2, D=2))
    model = md.ModelConfig([md.LayerConfig([md.HeadConfig(**head),
                                            md.HeadConfig(channels=0, **head)])])
    with pytest.raises(ValueError, match=r"head l0\.h1 has 0 channels"):
        md.init_store(model, 0)


def _value_only_beside_a_gradient_path(kind):
    """Layer 1 sums a head that runs a value-only op on layer 0's output with
    an identity head, so l0.h0.c0.psi gets a gradient only through the
    second head."""
    def head(expansion, method="identity", **extra):
        return md.HeadConfig(m=2, n=2, expansion=expansion,
                             reconciliation=rc.ReconciliationSpec(method, n=2, D=2),
                             **extra)
    identity = tf.ExpansionSpec("identity")
    cut = (head(tf.ExpansionSpec("wavelet", wavelet="ricker")) if kind == "wavelet" else
           head(identity, "constant_eye", channels=2, channel_fusion=fu.FusionSpec("metric")))
    return md.ModelConfig([md.LayerConfig([head(identity)]),
                           md.LayerConfig([cut, head(identity)], fu.FusionSpec("sum"))])


@pytest.mark.parametrize("kind,op", [("wavelet", "wavelet expansion"),
                                     ("metric", "metric fusion")])
def test_train_rejects_a_gradient_truncated_by_a_value_only_op(kind, op):
    model = _value_only_beside_a_gradient_path(kind)
    x = np.random.default_rng(0).standard_normal((5, 2))
    store = md.init_store(model, 0)
    before = store.vector.copy()
    # the tape gradient of l0.h0.c0.psi misses the path through the op
    out, tape, _ = md.model_forward_nodes(x, model, store)
    grad = tape.backward(out.sum())["l0.h0.c0.psi"]
    fd = []
    for i in range(store.slots["l0.h0.c0.psi"][1]):
        sums = []
        for step in (1e-6, -1e-6):
            store.vector = before.copy()
            store.vector[i] += step
            sums.append(md.model_forward(x, model, store).sum())
        fd.append((sums[0] - sums[1]) / 2e-6)
    store.vector = before.copy()
    assert np.max(np.abs(np.asarray(fd) - grad)) > 1e-3
    with pytest.raises(ValueError, match="value-only %s" % op):
        md.train(model, x, np.zeros((5, 2)), epochs=2, store=store)
    assert np.array_equal(store.vector, before)
    assert md.model_forward(x, model, store).shape == (5, 2)


@pytest.mark.parametrize("fusion", [fu.FusionSpec("weighted_sum"),
                                    fu.FusionSpec("concat_linear", target=3)])
def test_init_store_rejects_hybrid_whose_fusion_learns(fusion):
    head = md.HeadConfig(
        m=3, n=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
        attr_prior=itd.InterdependenceSpec(itd.Hybrid(
            (itd.Identity(3), itd.Parameterized(3, 3)), fusion)))
    with pytest.raises(ValueError, match="Hybrid learns no fusion parameters"):
        md.init_store(_single(head), 0)
