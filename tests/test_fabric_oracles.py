"""Oracles for the learnable matrices that reconciliation fabricates.

Each oracle writes out by hand the parameter slicing of parameterized,
bilinear and low-rank bilinear interdependence, of concat_linear fusion and
the slot registration of init_store, block by block. Values and tape
gradients of the fabricated matrices must match it byte for byte.
"""

import hashlib

import numpy as np
import pytest

from rpn2 import fusion as fu
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng, Tape, concat_nodes


def _oracle_param_length(v):
    if isinstance(v, itd.Parameterized):
        if v.reconciliation == "full":
            return v.m * v.m_prime
        return (v.m + v.m_prime) * v.rank
    if isinstance(v, itd.Bilinear):
        return v.dim * v.dim
    return 2 * v.dim * v.rank


def _oracle_matrix(v, data, param_node):
    if isinstance(v, itd.Parameterized):
        if v.reconciliation == "full":
            return param_node.reshape((v.m, v.m_prime))
        na = v.m * v.rank
        wa = param_node.take(0, na).reshape((v.m, v.rank))
        wb = param_node.take(na, _oracle_param_length(v)).reshape((v.m_prime, v.rank))
        return wa.matmul(wb.transpose())
    if isinstance(v, itd.Bilinear):
        w = param_node.reshape((v.dim, v.dim))
        return data.transpose().matmul(w).matmul(data)
    half = v.dim * v.rank
    wp = param_node.take(0, half).reshape((v.dim, v.rank))
    wq = param_node.take(half, 2 * half).reshape((v.dim, v.rank))
    return data.transpose().matmul(wp).matmul(data.transpose().matmul(wq).transpose())


def _value_and_grads(build, x, w):
    tape = Tape()
    out = build(tape.parameter(x, name="x"), tape.parameter(w, name="w"))
    grads = tape.backward((out * out).sum())
    return out.value, grads.get("x"), grads["w"]


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _variants(b, m):
    return [itd.Parameterized(m, m + 2), itd.Parameterized(m + 1, m, "lorr", 2),
            itd.Bilinear(b), itd.LowRankBilinear(b, 1), itd.LowRankBilinear(b, 3)]


@pytest.mark.parametrize("b,m", [(2, 3), (4, 4), (6, 2)])
@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("axis", ["attribute", "instance"])
def test_parametric_interdependence_matches_oracle(b, m, index, axis):
    rows = m if axis == "instance" else b
    v = _variants(rows, m)[index]
    spec = itd.InterdependenceSpec(v, axis=axis)
    assert itd.param_length(spec) == _oracle_param_length(v)
    rng = np.random.default_rng(10 * b + m)
    x = rng.standard_normal((b, m))
    w = rng.standard_normal(_oracle_param_length(v))

    def oracle(x_node, w_node):
        data = x_node.transpose() if axis == "instance" else x_node
        return _oracle_matrix(v, data, w_node)

    want = _value_and_grads(oracle, x, w)
    got = _value_and_grads(lambda xn, wn: itd.build_node(spec, xn, wn), x, w)
    _assert_same_bytes(got, want)
    assert itd.build_matrix(spec, x, w).tobytes() == want[0].tobytes()


def test_parameterized_rejects_other_reconciliation_tags():
    with pytest.raises(ValueError, match="unknown reconciliation tag"):
        itd.param_length(itd.Parameterized(3, 3, "vera", 2))


def _oracle_concat_linear(nodes, spec, param_node):
    cat = concat_nodes(nodes)
    total = cat.shape[1]
    if spec.low_rank:
        r = spec.low_rank
        p = param_node.take(0, total * r).reshape((total, r))
        q = param_node.take(total * r, param_node.value.size).reshape((spec.target, r))
        return cat.matmul(p).matmul(q.transpose())
    return cat.matmul(param_node.reshape((total, spec.target)))


@pytest.mark.parametrize("widths,target,low_rank", [
    ((2, 3), 4, 0), ((2, 3), 4, 2), ((1, 1, 5), 3, 1), ((4,), 6, 3), ((3, 3), 1, 0)])
def test_concat_linear_matches_oracle(widths, target, low_rank):
    spec = fu.FusionSpec("concat_linear", target=target, low_rank=low_rank)
    total = sum(widths)
    want_len = (total + target) * low_rank if low_rank else total * target
    assert fu.param_length(spec, widths) == want_len
    rng = np.random.default_rng(total * 7 + target)
    inputs = [rng.standard_normal((5, w)) for w in widths]
    w = rng.standard_normal(want_len)

    def run(fuse):
        tape = Tape()
        nodes = [tape.parameter(a, name="i%d" % k) for k, a in enumerate(inputs)]
        out = fuse(nodes, spec, tape.parameter(w, name="w"))
        grads = tape.backward((out * out).sum())
        return [out.value, grads["w"]] + [grads["i%d" % k] for k in range(len(inputs))]

    want = run(_oracle_concat_linear)
    _assert_same_bytes(run(fu.fuse_nodes), want)
    assert fu.fuse(inputs, spec, w).tobytes() == want[0].tobytes()


def _oracle_fusion_length(spec, widths):
    """Learned-parameter count of a fusion of inputs of these widths, written
    out per strategy rather than read from fusion.param_length."""
    if spec.strategy == "weighted_sum" and not spec.weights:
        return len(widths)
    if spec.strategy == "concat_linear":
        total = sum(widths)
        return (total + spec.target) * spec.low_rank if spec.low_rank else total * spec.target
    return 0


def _oracle_init_store(model, seed=0):
    store = md.ParameterStore()
    prng = Prng(seed)
    for k, layer in enumerate(model.layers):
        for h, head in enumerate(layer.heads):
            scale = 1.0 / np.sqrt(max(1, head.m))
            for tag in ("attr_prior", "attr_post", "inst_prior", "inst_post"):
                spec = getattr(head, tag)
                if spec is None:
                    continue
                length = itd.param_length(spec)
                if length:
                    name = "l%d.h%d.%s" % (k, h, tag)
                    init = (prng.derive(name).uniforms((length,)) * 2 - 1) * scale
                    store.add_slot(name, (length,), init)
            for c in range(head.channels):
                length = rc.param_length(head.reconciliation)
                if length:
                    name = "l%d.h%d.c%d.psi" % (k, h, c)
                    init = (prng.derive(name).uniforms((length,)) * 2 - 1) * scale
                    store.add_slot(name, (length,), init)
            if head.remainder == "linear":
                name = "l%d.h%d.pi" % (k, h)
                init = (prng.derive(name).uniforms((head.m, head.n)) * 2 - 1) * scale
                store.add_slot(name, (head.m, head.n), init)
            length = _oracle_fusion_length(head.channel_fusion, [head.n] * head.channels)
            if length:
                name = "l%d.h%d.cfuse" % (k, h)
                init = (prng.derive(name).uniforms((length,)) * 2 - 1) * scale
                store.add_slot(name, (length,), init)
        length = _oracle_fusion_length(layer.head_fusion, [h.n for h in layer.heads])
        if length:
            name = "l%d.hfuse" % k
            init = (prng.derive(name).uniforms((length,)) * 2 - 1)
            store.add_slot(name, (length,), init)
    return store


def _every_slot_model():
    """Every slot kind: all four interdependence tags, two channels, a
    linear remainder, learnable channel and head fusion; plus parameter-free
    specs and fusions that register nothing."""
    m = 4
    full = md.HeadConfig(
        m=m, n=3, channels=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("lorr", n=3, D=m, rank=2),
        remainder="linear",
        attr_prior=itd.InterdependenceSpec(itd.Parameterized(m, m, "lorr", 1)),
        attr_post=itd.InterdependenceSpec(itd.Parameterized(m, m)),
        inst_prior=itd.InterdependenceSpec(itd.Bilinear(m), axis="instance"),
        inst_post=itd.InterdependenceSpec(itd.LowRankBilinear(5, 2), axis="instance"),
        channel_fusion=fu.FusionSpec("weighted_sum"))
    plain = md.HeadConfig(
        m=m, n=3, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("constant_eye", n=3, D=m),
        attr_prior=itd.InterdependenceSpec(itd.Identity(m)))
    return md.ModelConfig([
        md.LayerConfig([full, plain], fu.FusionSpec("concat_linear", target=3, low_rank=2)),
        md.LayerConfig([plain, full], fu.FusionSpec("weighted_sum"))])


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5])
def test_init_store_matches_five_block_oracle(seed):
    model = _every_slot_model()
    want = _oracle_init_store(model, seed)
    got = md.init_store(model, seed)
    assert got.vector.tobytes() == want.vector.tobytes()
    assert got.slots == want.slots
    assert list(got.slots) == list(want.slots)
    tags = {name.split(".", 2)[-1] for name in got.slots}
    assert {"attr_prior", "attr_post", "inst_prior", "inst_post", "c0.psi", "c1.psi",
            "pi", "cfuse", "hfuse"} <= tags


# init_store of _every_slot_model as it stood while fusions declared their
# own sizes (input_count, input_widths): derived sizes must give these bytes
_EVERY_SLOT_MAP = {
    "l0.h0.attr_prior": (0, 8, (8,)), "l0.h0.attr_post": (8, 16, (16,)),
    "l0.h0.inst_prior": (24, 16, (16,)), "l0.h0.inst_post": (40, 20, (20,)),
    "l0.h0.c0.psi": (60, 14, (14,)), "l0.h0.c1.psi": (74, 14, (14,)),
    "l0.h0.pi": (88, 12, (4, 3)), "l0.h0.cfuse": (100, 2, (2,)),
    "l0.hfuse": (102, 18, (18,)),
    "l1.h1.attr_prior": (120, 8, (8,)), "l1.h1.attr_post": (128, 16, (16,)),
    "l1.h1.inst_prior": (144, 16, (16,)), "l1.h1.inst_post": (160, 20, (20,)),
    "l1.h1.c0.psi": (180, 14, (14,)), "l1.h1.c1.psi": (194, 14, (14,)),
    "l1.h1.pi": (208, 12, (4, 3)), "l1.h1.cfuse": (220, 2, (2,)),
    "l1.hfuse": (222, 2, (2,)),
}
_EVERY_SLOT_SHA256 = {
    0: "8a833cb274a4548afcabd9aae9c31d8060fa0db1c571e8e220c8265c1bd8b944",
    7: "ef512dd76459e87d35512d2c7a4c864a4aa85077ddee2867ddf1efc2ccb136cf",
    2 ** 63 + 5: "e988621daa9eadb7b8aa95ac15582b96d39fb4af90f8becde84092fd2c2efa16",
}


@pytest.mark.parametrize("seed", sorted(_EVERY_SLOT_SHA256))
def test_init_store_of_every_slot_model_is_pinned(seed):
    store = md.init_store(_every_slot_model(), seed)
    assert list(store.slots.items()) == list(_EVERY_SLOT_MAP.items())
    assert hashlib.sha256(store.vector.tobytes()).hexdigest() == _EVERY_SLOT_SHA256[seed]
