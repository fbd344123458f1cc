"""`train` builds its tape once per call and replays it in later epochs, so
a layer-0 head's gradient-free prefix and kernels are built once; the
trained bytes match an unfolded loop that rebuilds every node in every
epoch."""

import hashlib

import numpy as np
import pytest

from rpn2 import fusion as fu
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng, cross_entropy_node

B, M = 12, 3


def _unfolded_train(model, x, y, loss, optimizer, epochs, seed):
    """Oracle: `train`'s loop with a fresh `model_forward_nodes` in every
    epoch, so every epoch rebuilds the whole forward instead of replaying
    it. Returns the final loss, the store and per-epoch (grad_norm,
    param_norm)."""
    opt = dict(optimizer)
    kind, lr = opt.get("kind", "sgd"), float(opt.get("lr", 0.01))
    store = md.init_store(model, seed)
    velocity = np.zeros_like(store.vector)
    m1 = np.zeros_like(store.vector)
    m2 = np.zeros_like(store.vector)
    norms, lv = [], None
    for epoch in range(epochs):
        out, tape, _ = md.model_forward_nodes(x, model, store)
        if loss == "mse":
            diff = out - tape.constant(np.asarray(y, dtype=float))
            loss_node = (diff * diff).mean()
        else:
            loss_node = cross_entropy_node(out, y)
        lv = float(np.asarray(loss_node.value).reshape(-1)[0])
        grads = tape.backward(loss_node)
        g = np.zeros_like(store.vector)
        for name, gv in grads.items():
            off, length, _ = store.slots[name]
            g[off: off + length] = np.asarray(gv).reshape(-1)
        if kind == "sgd":
            velocity = float(opt.get("momentum", 0.0)) * velocity - lr * g
            store.vector = store.vector + velocity
        else:
            b1, b2, eps = 0.9, 0.999, 1e-8
            m1 = b1 * m1 + (1 - b1) * g
            m2 = b2 * m2 + (1 - b2) * g * g
            t = epoch + 1
            store.vector = store.vector - lr * (m1 / (1 - b1 ** t)) / (
                np.sqrt(m2 / (1 - b2 ** t)) + eps)
        norms.append((float(np.linalg.norm(g)), float(np.linalg.norm(store.vector))))
    return lv, store, norms


def _digest(lv, store):
    return float.hex(lv), hashlib.sha256(store.vector.tobytes()).hexdigest()


def _head(m, n, **kw):
    kw.setdefault("expansion", tf.ExpansionSpec("identity"))
    d = m if kw["expansion"].family == "identity" else m * kw["expansion"].d
    kw.setdefault("reconciliation", rc.ReconciliationSpec("identity", n=n, D=d))
    return md.HeadConfig(m=m, n=n, **kw)


def _instance(variant, **kw):
    return itd.InterdependenceSpec(variant, axis="instance", **kw)


def _kernel_head():
    return _head(M, 2, expansion=tf.ExpansionSpec("legendre", d=2),
                 inst_prior=_instance(itd.NumKernel("gaussian_rbf", {"sigma": 2.0})))


def _stat_kernel_head():
    return _head(M, 2, expansion=tf.ExpansionSpec("hermite", d=2), channels=2,
                 inst_prior=_instance(itd.StatKernel("pearson"), post_norm="row_l1"))


def _tanh_constant_post_head():
    post = np.random.default_rng(4).standard_normal((2 * M, 4))
    return _head(M, 2, expansion=tf.ExpansionSpec("hermite", d=2),
                 reconciliation=rc.ReconciliationSpec("lorr", n=2, D=4, rank=1),
                 attr_post=itd.InterdependenceSpec(itd.Constant(post)),
                 processors={"input": "tanh"}, remainder="linear")


def _learned_prior_head():
    # the learned attr_prior ends the prefix; the learned inst_prior past it
    # is rebuilt every epoch, the inst_post kernel is kept
    return _head(M, 2, attr_prior=itd.InterdependenceSpec(itd.Parameterized(M, M)),
                 inst_prior=_instance(itd.LowRankBilinear(M, 1), post_norm="col_softmax"),
                 inst_post=_instance(itd.NumKernel("cosine")),
                 processors={"input": "sigmoid"}, remainder="linear")


def _deferred_prior_head():
    # the learned instance prior multiplies the 2-wide reconciled output,
    # not the 6-wide expansion; the memo keeps the expansion only, so every
    # epoch still applies the prior
    return _head(M, 2, expansion=tf.ExpansionSpec("legendre", d=2),
                 reconciliation=rc.ReconciliationSpec("lorr", n=2, D=6, rank=1),
                 inst_prior=_instance(itd.LowRankBilinear(M, 1), post_norm="col_softmax"))


def _two_layer():
    first = md.LayerConfig([_kernel_head(), _tanh_constant_post_head()])
    # a kernel here would read a gradient-carrying input, which train refuses
    second = _head(2, 2, processors={"input": "tanh", "output": "tanh"},
                   inst_post=_instance(itd.ChainStructural(B, "bi"), post_norm="col_softmax"))
    return md.ModelConfig([first, md.LayerConfig([second])])


def _single(head):
    return md.ModelConfig([md.LayerConfig([head])])


def _data(seed):
    """Input, two-class labels and a width-2 regression target."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, M))
    return x, rng.integers(0, 2, B), rng.standard_normal((B, 2))


CASES = {
    "instance_num_kernel": (lambda: _single(_kernel_head()), "mse",
                            {"kind": "sgd", "lr": 0.05, "momentum": 0.9}),
    "instance_stat_kernel": (lambda: _single(_stat_kernel_head()), "cross_entropy",
                             {"kind": "adaptive_moments", "lr": 0.05}),
    "tanh_input_constant_post": (lambda: _single(_tanh_constant_post_head()), "mse",
                                 {"kind": "adaptive_moments", "lr": 0.05}),
    "learned_prior_inst_post_kernel": (lambda: _single(_learned_prior_head()), "mse",
                                       {"kind": "sgd", "lr": 0.05}),
    "two_layers": (_two_layer, "cross_entropy", {"kind": "adaptive_moments", "lr": 0.05}),
    "deferred_learned_prior": (lambda: _single(_deferred_prior_head()), "mse",
                               {"kind": "sgd", "lr": 0.05, "momentum": 0.9}),
}


def _train_both(name, seed):
    build, loss, opt = CASES[name]
    model = build()
    x, labels, target = _data(seed)
    y = labels if loss == "cross_entropy" else target
    history, store = md.train(model, x, y, loss=loss, optimizer=opt, epochs=3, seed=seed)
    return history, store, _unfolded_train(model, x, y, loss, opt, 3, seed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_folded_training_is_byte_identical_to_unfolded(name):
    history, store, (lv, want_store, norms) = _train_both(name, 7)
    assert _digest(history.epochs[-1]["loss"], store) == _digest(lv, want_store)
    assert [(e["grad_norm"], e["param_norm"]) for e in history.epochs] == norms
    assert all(e["step_seconds"] > 0 for e in history.epochs)


@pytest.mark.parametrize("name, kernel_builds", [
    ("instance_num_kernel", 1),
    ("tanh_input_constant_post", 0),
    ("learned_prior_inst_post_kernel", 1),
    ("two_layers", 1),
    ("deferred_learned_prior", 0),
])
def test_train_builds_one_tape_and_each_kernel_once(name, kernel_builds, monkeypatch):
    build, loss, opt = CASES[name]
    model = build()
    x, labels, y = _data(1)
    calls, tapes = [], []
    kernel, forward = itd.numerical_kernel_matrix, md.model_forward_nodes
    monkeypatch.setattr(itd, "numerical_kernel_matrix",
                        lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
    monkeypatch.setattr(md, "model_forward_nodes",
                        lambda *a, **kw: tapes.append(1) or forward(*a, **kw))
    md.train(model, x, labels if loss == "cross_entropy" else y, loss=loss,
             optimizer=opt, epochs=3, seed=1)
    assert len(calls) == kernel_builds and len(tapes) == 1


@pytest.mark.parametrize("kernel", [itd.NumKernel("linear"), itd.StatKernel("pearson")])
def test_a_kernel_on_a_gradient_carrying_input_is_refused(kernel):
    # the kernel is value-only in its data: the tape gradient of layer 0
    # would miss the path through it, so train stops before any update
    first = md.HeadConfig(m=3, n=4, expansion=tf.ExpansionSpec("identity"),
                          reconciliation=rc.ReconciliationSpec("identity", n=4, D=3),
                          processors={"output": "tanh"})
    model = md.ModelConfig([md.LayerConfig([first]), md.LayerConfig([_head(
        4, 2, attr_prior=itd.InterdependenceSpec(kernel))])])
    x, y = Prng(1).normals((12, 3)), Prng(2).normals((12, 2))
    store = md.init_store(model, 0)
    before = store.vector.copy()
    with pytest.raises(ValueError, match="value-only data kernel"):
        md.train(model, x, y, loss="mse", epochs=1, store=store)
    assert np.array_equal(store.vector, before)
    assert md.model_forward(x, model, store).shape == (12, 2)


def test_a_second_call_replays_its_own_data():
    """A second call on other data trains on that data, not the first call's."""
    build, loss, opt = CASES["instance_num_kernel"]
    model = build()
    for seed in (11, 12):
        x, _, y = _data(seed)
        history, store = md.train(model, x, y, loss=loss, optimizer=opt, epochs=3, seed=0)
        lv, want, _ = _unfolded_train(model, x, y, loss, opt, 3, 0)
        assert _digest(history.epochs[-1]["loss"], store) == _digest(lv, want)


def test_single_input_fusions_learn_and_train():
    # a learned fusion of one channel or one head runs, so its slot learns
    head = _head(M, 2, channel_fusion=fu.FusionSpec("weighted_sum"))
    model = md.ModelConfig([md.LayerConfig(
        [head], head_fusion=fu.FusionSpec("concat_linear", target=2))])
    store = md.init_store(model, 0)
    assert {name: store.slots[name][1] for name in store.slots} \
        == {"l0.h0.c0.psi": 2 * M, "l0.h0.cfuse": 1, "l0.hfuse": 4}
    x, _, y = _data(3)
    history, store = md.train(model, x, y, epochs=2, seed=0)
    assert len(history.epochs) == 2 and history.epochs[1]["loss"] < history.epochs[0]["loss"]
