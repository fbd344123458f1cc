"""Generated single-head configs: every interdependence variant at every
station, every reconciliation method and every channel fusion. Each slot
`init_store` registers gets a finite, non-zero gradient that matches central
finite differences to 1e-5 (the bound of acceptance criterion 5); a `metric`
fusion, which is value-only, is rejected by `train` when a slot lies
upstream of it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf

STATIONS = ("attr_prior", "attr_post", "inst_prior", "inst_post")
VARIANTS = ("constant", "identity", "stat_kernel", "num_kernel", "parameterized",
            "bilinear", "lowrank_bilinear", "rpn_head", "grid", "chain", "graph", "hybrid")
# variants that read the head input: at attr_post their m x m matrix needs
# an expansion that keeps the width
READS_DATA = ("stat_kernel", "num_kernel", "bilinear", "lowrank_bilinear")
RECONCILIATIONS = ("identity", "constant_eye", "duplicated_padding", "lorr", "vera",
                   "hypernet_lowrank")
FUSIONS = ("sum", "average", "weighted_sum", "weighted_sum_learnable", "hadamard",
           "metric", "concat_linear", "concat_linear_low_rank")
CASES = [(station, variant) for station in STATIONS for variant in VARIANTS]
FD_STEP = 1e-6
FD_TOL = 1e-5


def _variant(kind, dim, b, m, axis, draw):
    """A dim x dim relation matrix spec; b x m is the head input."""
    rows = b if axis == "attribute" else m  # rows of the dispatch input
    if kind == "constant":
        return itd.Constant(np.random.default_rng(draw(st.integers(0, 99)))
                            .standard_normal((dim, dim)))
    if kind == "identity":
        return itd.Identity(dim)
    if kind == "stat_kernel":
        return itd.StatKernel(draw(st.sampled_from(("pearson", "rv", "mutual_info"))))
    if kind == "num_kernel":
        return itd.NumKernel(draw(st.sampled_from(("linear", "polynomial", "cosine",
                                                   "gaussian_rbf"))))
    if kind == "parameterized":
        if draw(st.booleans()):
            return itd.Parameterized(dim, dim)
        return itd.Parameterized(dim, dim, "lorr", rank=draw(st.integers(1, 2)))
    if kind == "bilinear":
        return itd.Bilinear(rows)
    if kind == "lowrank_bilinear":
        return itd.LowRankBilinear(rows, draw(st.integers(1, 2)))
    if kind == "rpn_head":
        return itd.RpnHead(dim, dim, tf.ExpansionSpec("identity"),
                           rc.ReconciliationSpec("identity", n=dim * dim, D=b * m))
    if kind == "grid":
        return itd.GridStructural(gg.GridSpec(dim, 1, 1), gg.Cuboid(1, 1, 0, 0, 0, 0),
                                  gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True),
                                  "aggregation")
    if kind == "chain":
        return itd.ChainStructural(dim, draw(st.sampled_from(("uni", "bi"))),
                                   draw(st.sampled_from(("onehop", "accumulative",
                                                         "exponential"))),
                                   hops=1, include_self=draw(st.booleans()))
    if kind == "graph":
        ring = itd.Graph(dim, [(i, (i + 1) % dim) for i in range(dim)])
        return itd.GraphStructural(ring, draw(st.sampled_from(("adjacency", "pagerank"))),
                                   normalization="row_selfloop" if draw(st.booleans())
                                   else "row")
    assert kind == "hybrid"
    return itd.Hybrid((itd.Parameterized(dim, dim), itd.ChainStructural(dim, "bi")),
                      fu.FusionSpec(draw(st.sampled_from(("sum", "average", "hadamard")))))


def _reconciliation(method, n, D, draw):
    if method == "duplicated_padding":
        p = 2 if D % 2 == 0 else 1
        return rc.ReconciliationSpec(method, n=D // p, D=D, p=p, p_count=D // p)
    if method in ("identity", "constant_eye"):
        return rc.ReconciliationSpec(method, n=n, D=D)
    seed = draw(st.integers(0, 99))
    if method in ("lorr", "vera"):
        # lorr reads no seed; it is drawn anyway, so the examples stay the same
        return rc.ReconciliationSpec(method, n=n, D=D, rank=draw(st.integers(1, 2)),
                                     seed=seed if method == "vera" else 0)
    return rc.ReconciliationSpec(method, n=n, D=D, rank=2, mid=3, input_len=4, seed=seed)


def _fusion(kind, n):
    return {
        "sum": fu.FusionSpec("sum"),
        "average": fu.FusionSpec("average"),
        "weighted_sum": fu.FusionSpec("weighted_sum", weights=(0.7, -1.3)),
        "weighted_sum_learnable": fu.FusionSpec("weighted_sum"),
        "hadamard": fu.FusionSpec("hadamard"),
        "metric": fu.FusionSpec("metric", metric="max"),
        "concat_linear": fu.FusionSpec("concat_linear", target=n),
        "concat_linear_low_rank": fu.FusionSpec("concat_linear", target=n, low_rank=1),
    }[kind]


def _head(case, draw):
    station, variant = CASES[case]
    b, m = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    family = "identity" if station == "attr_post" and variant in READS_DATA else \
        draw(st.sampled_from(("identity", "hermite", "legendre", "laguerre")))
    expansion = tf.ExpansionSpec(family, d=1 if family == "identity" else draw(st.integers(1, 2)))
    D = tf.expand(np.zeros((1, m)), expansion).shape[1]
    dim = {"attr_prior": m, "attr_post": D}.get(station, b)
    axis = "attribute" if station.startswith("attr") else "instance"
    spec = itd.InterdependenceSpec(_variant(variant, dim, b, m, axis, draw), axis=axis,
                                   post_norm=draw(st.sampled_from(("none", "col_softmax"))))
    recon = _reconciliation(RECONCILIATIONS[case % len(RECONCILIATIONS)],
                            draw(st.integers(2, 3)), D, draw)
    head = md.HeadConfig(
        m=m, n=recon.n, expansion=expansion, reconciliation=recon, channels=2,
        remainder=draw(st.sampled_from(("zero", "linear"))),
        channel_fusion=_fusion(FUSIONS[case % len(FUSIONS)], recon.n),
        processors={"output": draw(st.sampled_from((None, "tanh", "sigmoid")))},
        **{station: spec})
    return md.ModelConfig([md.LayerConfig([head])]), b


def _check_gradients(model, x, seed):
    store = md.init_store(model, seed)
    out, tape, _ = md.model_forward_nodes(x, model, store)
    c = np.random.default_rng(seed).standard_normal(out.shape)
    grads = tape.backward((out * tape.constant(c)).sum())
    flat = md._flatten_grads(store, grads)
    base = store.vector.copy()

    def loss_at(i, step):
        store.vector = base.copy()
        store.vector[i] += step
        return float(np.sum(md.model_forward(x, model, store) * c))

    picks = np.random.default_rng(seed + 1)
    for name, (off, length, _) in store.slots.items():
        assert name in grads, name
        g = np.asarray(grads[name])
        assert np.all(np.isfinite(g)) and np.any(g != 0.0), name
        for i in off + picks.choice(length, size=min(length, 2), replace=False):
            fd = (loss_at(i, FD_STEP) - loss_at(i, -FD_STEP)) / (2.0 * FD_STEP)
            assert abs(fd - flat[i]) / max(1.0, abs(fd), abs(flat[i])) < FD_TOL, (name, i)


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=["%s-%s" % sv for sv in CASES])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_head_gradients(case, data):
    model, b = _head(case, data.draw)
    m = model.layers[0].heads[0].m
    seed = data.draw(st.integers(0, 999))
    # small inputs keep a tanh or sigmoid output off its flat tails
    x = 0.5 * np.random.default_rng(seed).standard_normal((b, m))
    if model.layers[0].heads[0].channel_fusion.strategy != "metric":
        _check_gradients(model, x, seed)
        return
    # metric fusion is value-only: a slot upstream of it would never learn
    store = md.init_store(model, seed)
    upstream = sorted(name for name in store.slots
                      if not name.endswith((".inst_post", ".pi")))
    y = np.zeros((b, model.layers[0].heads[0].n))
    if upstream:
        with pytest.raises(ValueError, match="no gradient reaches") as info:
            md.train(model, x, y, epochs=1, store=store)
        assert all(name in str(info.value) for name in upstream)
    else:
        md.train(model, x, y, epochs=1, store=store)


def test_every_reconciliation_and_fusion_is_generated():
    assert {RECONCILIATIONS[k % len(RECONCILIATIONS)] for k in range(len(CASES))} \
        == set(RECONCILIATIONS)
    assert {FUSIONS[k % len(FUSIONS)] for k in range(len(CASES))} == set(FUSIONS)
