"""Heads evaluate their matrix chain narrow-first: lorr and vera multiply
through their thin factors and never form psi, a learned instance prior
multiplies each channel's reconciled output when that is narrower than the
expansion, `mse_node` is the two-node mse in one node, and `train` updates
its optimizer state in place without touching the caller's vector."""

import numpy as np
import pytest

from rpn2 import fusion as fu
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Tape, mse_node

B, M = 12, 3
REL = 1e-12


def _close(got, want):
    """Within REL of the oracle, relative to its largest entry."""
    return np.max(np.abs(got - want)) <= REL * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# factored reconciliation against the fabricated psi


# (b, n, D, rank): a narrowing and a widening head, b = 1, and ranks at and
# past min(n, D)
SHAPES = [(12, 4, 20, 3), (7, 30, 6, 2), (1, 5, 9, 2), (4, 3, 8, 3), (5, 9, 4, 6)]


def _spec(method, n, D, rank):
    return rc.ReconciliationSpec(method, n=n, D=D, rank=rank, seed=3 if method == "vera" else 0)


@pytest.mark.parametrize("method", ["lorr", "vera"])
@pytest.mark.parametrize("b, n, D, rank", SHAPES)
def test_factored_product_matches_the_psi_oracle(method, b, n, D, rank):
    spec = _spec(method, n, D, rank)
    rng = np.random.default_rng(b + n + D + rank)
    x = rng.standard_normal((b, D))
    w = rng.standard_normal(rc.param_length(spec))
    g = rng.standard_normal((b, n))
    got, want = {}, {}

    def oracle(xn, s, wn):
        return xn.matmul(rc.reconcile_node(s, wn).transpose())

    for result, build in ((got, rc.reconciled_product), (want, oracle)):
        tape = Tape()
        xn, wn = tape.parameter(x, name="x"), tape.parameter(w, name="w")
        out = build(xn, spec, wn)
        result["out"] = out.value.copy()
        if build is rc.reconciled_product and {n, D}.isdisjoint({b, rank, 1}):
            # psi (n x D) and psi.T are never formed
            assert all(node.shape not in ((n, D), (D, n)) for node in tape.nodes)
        result.update(tape.backward((out * g).sum()))
    assert got["out"].shape == (b, n)
    for key in ("out", "x", "w"):
        assert _close(got[key], want[key]), key


# ---------------------------------------------------------------------------
# the instance prior on the narrow side


def _head(channels=1, n=2, recon="lorr", **kw):
    kw.setdefault("expansion", tf.ExpansionSpec("legendre", d=2))
    D = M * kw["expansion"].d if kw["expansion"].family != "identity" else M
    spec = (rc.ReconciliationSpec("lorr", n=n, D=D, rank=1) if recon == "lorr" else
            rc.ReconciliationSpec("vera", n=n, D=D, rank=2, seed=5))
    return md.HeadConfig(m=M, n=n, channels=channels, reconciliation=spec,
                         channel_fusion=fu.FusionSpec("weighted_sum"), **kw)


def _learned_prior():
    return itd.InterdependenceSpec(itd.LowRankBilinear(M, 1), axis="instance",
                                   post_norm="col_softmax")


def _kernel_prior():
    return itd.InterdependenceSpec(itd.NumKernel("gaussian_rbf", {"sigma": 2.0}),
                                   axis="instance")


def _learned_attr_prior():
    return itd.InterdependenceSpec(itd.Parameterized(M, M))


# name -> (head, deferred); a head defers exactly when its prior or the
# expansion it multiplies needs a gradient and channels * n < D
HEADS = {
    "learned_lorr": (lambda: _head(inst_prior=_learned_prior()), True),
    "learned_vera_two_channels": (lambda: _head(2, recon="vera", inst_prior=_learned_prior()),
                                  True),
    "constant_on_a_learned_attr_prior": (
        lambda: _head(inst_prior=_kernel_prior(), attr_prior=_learned_attr_prior()), True),
    "learned_channels_n_equal_D": (lambda: _head(3, inst_prior=_learned_prior()), False),
    "learned_n_past_D": (lambda: _head(1, n=4, recon="vera", inst_prior=_learned_prior(),
                                       expansion=tf.ExpansionSpec("identity")), False),
    "constant_prior": (lambda: _head(inst_prior=_kernel_prior()), False),
}


def _station_order(x, head, store, g):
    """Oracle: the head's prefix stations in order, the instance prior
    applied to the expansion at its own station; output and the gradient
    of (output * g).sum()."""
    tape = Tape()
    params = md.make_param_nodes(tape, store)
    xn = tape.constant(x)
    cur = xn
    for tag in md._PREFIX_STATIONS:
        if tag == "expansion":
            cur = tf.expand_node(cur, head.expansion)
            continue
        spec = getattr(head, tag)
        if spec is not None:
            a = itd.build_node(spec, xn, params.get("l0.h0." + tag))
            cur = md._instance_apply(a, cur) if tag == "inst_prior" else cur.matmul(a)
    outs = [rc.reconciled_product(cur, head.reconciliation, params.get("l0.h0.c%d.psi" % c))
            for c in range(head.channels)]
    out = fu.fuse_nodes(outs, head.channel_fusion, params.get("l0.h0.cfuse"))
    value = out.value.copy()
    return value, md._flatten_grads(store, tape.backward((out * g).sum()))


def _head_forward(x, model, store, g):
    out, tape, _ = md.model_forward_nodes(x, model, store)
    value = out.value.copy()
    return value, md._flatten_grads(store, tape.backward((out * g).sum()))


@pytest.mark.parametrize("name", sorted(HEADS))
def test_instance_prior_order(name, monkeypatch):
    build, deferred = HEADS[name]
    head = build()
    model = md.ModelConfig([md.LayerConfig([head])])
    rng = np.random.default_rng(len(name))
    x = rng.standard_normal((B, M))
    store = md.init_store(model, 2)
    g = rng.standard_normal((B, head.n))
    want = _station_order(x, head, store, g)

    widths = []
    apply = md._instance_apply
    monkeypatch.setattr(md, "_instance_apply", lambda a, cur: widths.append(cur.shape[1])
                        or apply(a, cur))
    got = _head_forward(x, model, store, g)
    n, D = head.reconciliation.n, head.reconciliation.D
    assert widths == ([n] * head.channels if deferred else [D])
    if deferred:
        assert _close(got[0], want[0]) and _close(got[1], want[1])
    else:  # today's order, so today's bytes
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_diagnostics_still_record_a_deferred_prior():
    model = md.ModelConfig([md.LayerConfig([HEADS["learned_lorr"][0]()])])
    x = np.random.default_rng(1).standard_normal((B, M))
    report = md.diagnostics(model, x, md.init_store(model, 0))
    assert [entry["matrix"] for entry in report["layers"]] == ["l0.h0.inst_prior"]


@pytest.mark.parametrize("name", ["learned_lorr", "learned_vera_two_channels",
                                  "constant_on_a_learned_attr_prior"])
def test_finite_differences_through_a_deferred_prior(name):
    model = md.ModelConfig([md.LayerConfig([HEADS[name][0]()])])
    rng = np.random.default_rng(9)
    x = rng.standard_normal((B, M))
    store = md.init_store(model, 4)
    target = rng.standard_normal((B, model.layers[0].heads[0].n))
    out, tape, _ = md.model_forward_nodes(x, model, store)
    grad = md._flatten_grads(store, tape.backward(mse_node(out, target)))
    assert np.all(np.isfinite(grad))
    for slot in store.slots:
        assert np.any(grad[store.slots[slot][0]: sum(store.slots[slot][:2])] != 0.0), slot
    base, step = store.vector.copy(), 1e-6
    for i in range(base.size):
        losses = []
        for sign in (1, -1):
            store.vector = base.copy()
            store.vector[i] += sign * step
            losses.append(np.mean((md.model_forward(x, model, store) - target) ** 2))
        fd = (losses[0] - losses[1]) / (2 * step)
        assert abs(fd - grad[i]) / max(1.0, abs(fd), abs(grad[i])) < 1e-6, i


# ---------------------------------------------------------------------------
# the mse node and the in-place optimizer


def test_mse_node_is_the_two_node_mse_bit_for_bit():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((17, 5)), rng.standard_normal((17, 5))
    got = {}
    for fused in (True, False):
        tape = Tape()
        out = tape.parameter(x, name="out")
        if fused:
            loss = mse_node(out, y)
        else:
            diff = out - tape.constant(y)
            loss = (diff * diff).mean()
        got[fused] = (loss.value.tobytes(), tape.backward(loss.scale(0.7))["out"].tobytes())
    assert got[True] == got[False]


@pytest.mark.parametrize("optimizer", [{"kind": "sgd", "lr": 0.05, "momentum": 0.9},
                                       {"kind": "adaptive_moments", "lr": 0.05}])
def test_train_leaves_the_callers_vector_alone(optimizer):
    model = md.ModelConfig([md.LayerConfig([HEADS["learned_lorr"][0]()])])
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((B, M)), rng.standard_normal((B, 2))
    store = md.init_store(model, 0)
    held = store.vector
    before = held.copy()
    _, trained = md.train(model, x, y, optimizer=optimizer, epochs=3, store=store)
    assert trained is store and store.vector is not held
    assert np.array_equal(held, before)
    assert not np.array_equal(store.vector, before)
