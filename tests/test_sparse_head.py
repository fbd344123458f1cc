"""Sparse grid matrices through the head: no densification on the model path,
the sparse product's gradient, and its error on a batch of the wrong width."""

import dataclasses
import importlib.util
import os

import numpy as np
import pytest

import rpn2
from rpn2 import backbone_equiv as be
from rpn2 import cli
from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import numeric_core as nc
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng, SparseCoo, Tape


def _cnn_model(grid, shape, packing):
    p = gg.patch_size(shape)
    p_count = len(gg.packing_centers(grid, packing, shape))
    head = md.HeadConfig(
        m=grid.size, n=p_count, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("duplicated_padding", n=p_count,
                                             D=p * p_count, p=p, p_count=p_count),
        attr_prior=itd.InterdependenceSpec(
            itd.GridStructural(grid, shape, packing, "padding")),
        dup_blocks=(p_count, p))
    return md.ModelConfig([md.LayerConfig([head])]), p


def test_benchmark_cnn_model_forwards_as_the_head_sized_by_n_and_D():
    # bench/workloads.py is frozen with the p, p_count and dup_blocks copies;
    # they must stay accepted and change nothing
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    model, p = wl.cnn_model()
    head = model.layers[0].heads[0]
    recon = head.reconciliation
    assert (recon.p, recon.p_count, head.dup_blocks) == (p, recon.n, (recon.n, p))
    plain = dataclasses.replace(head, dup_blocks=(), reconciliation=rc.ReconciliationSpec(
        "duplicated_padding", n=recon.n, D=recon.D))
    prng = Prng(7)
    x = prng.normals((wl.CNN_BATCH, wl.GRID.size))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (p,), prng.normals((p,)))
    got = md.model_forward(x, model, store)
    assert got.tobytes() == md.model_forward(x, md.ModelConfig(
        [md.LayerConfig([plain])]), store).tobytes()
    assert md.init_store(model, 3).vector.tobytes() == \
        md.init_store(md.ModelConfig([md.LayerConfig([plain])]), 3).vector.tobytes()


def _forbid_densifying(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was densified")

    monkeypatch.setattr(SparseCoo, "to_dense", refuse)
    monkeypatch.setattr(nc, "as_dense", refuse)
    # modules that imported as_dense hold their own reference
    for module in (getattr(rpn2, name) for name in rpn2.__all__):
        if getattr(module, "as_dense", None) is not None:
            monkeypatch.setattr(module, "as_dense", refuse)


def test_cnn_head_on_a_32x32x3_grid_builds_no_dense_matrix(monkeypatch):
    grid = gg.GridSpec(32, 32, 3)
    shape = gg.Cuboid(1, 1, 1, 1, 1, 1)
    packing = gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True)
    model, p = _cnn_model(grid, shape, packing)
    prng = Prng(32)
    x = prng.normals((8, grid.size))
    kernel = prng.normals((p,))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (p,), kernel)
    _forbid_densifying(monkeypatch)
    got = md.model_forward(x, model, store)
    monkeypatch.undo()
    ref = be.ref_cross_correlation(x, grid, shape, packing, kernel)
    assert got.shape == ref.shape == (8, grid.size)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_wrong_batch_width_is_a_value_error():
    grid = gg.GridSpec(4, 4, 2)
    model, p = _cnn_model(grid, gg.Cuboid(1, 1, 1, 1, 0, 0),
                          gg.PackingSpec(1, 1, 1, clip_out_of_grid=True))
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (p,), np.ones(p))
    for width in (grid.size - 1, grid.size + 3):
        with pytest.raises(ValueError, match=r"head l0\.h0 declares m = %d, but its input "
                                             r"is %d wide" % (grid.size, width)):
            md.model_forward(np.ones((2, width)), model, store)
    s = itd.grid_structural_matrix(grid, gg.Cuboid(1, 1, 1, 1, 0, 0), gg.PackingSpec())
    with pytest.raises(ValueError):
        s.rmatmul(np.ones(grid.size))  # a 1-D batch
    with pytest.raises(ValueError):
        Tape().constant(np.ones((2, grid.size + 1))).matmul(s)


def test_sparse_product_vjp_is_g_times_the_transpose():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.5)
    s = SparseCoo.from_dense(a)
    tape = Tape()
    x = tape.parameter(rng.normal(size=(3, 7)), name="x")
    w = rng.normal(size=(3, 5))
    loss = (x.matmul(s) * w).sum()
    grads = tape.backward(loss)
    assert np.allclose(x.value @ a, x.matmul(s).value, rtol=0, atol=1e-14)
    assert np.allclose(grads["x"], w @ a.T, rtol=0, atol=1e-14)


def _fd_worst(model, x, store, h=1e-6):
    out, tape, _ = md.model_forward_nodes(x, model, store)
    grads = tape.backward((out * out).sum())
    assert sorted(grads) == sorted(store.slots)
    for g in grads.values():
        assert np.all(np.isfinite(g)) and np.any(g != 0.0)
    g = md._flatten_grads(store, grads)
    base = store.vector.copy()

    def loss_at(vec):
        store.vector[:] = vec
        o = md.model_forward(x, model, store)
        return float(np.sum(o * o))

    worst = 0.0
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        fd = (loss_at(up) - loss_at(dn)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i])))
    store.vector[:] = base
    return worst


def test_finite_differences_through_an_aggregation_grid_station():
    # layer 0's parameters reach the loss only through g @ S^T of layer 1's
    # aggregation-mode grid prior, which a trainable reconciliation follows
    grid = gg.GridSpec(3, 3, 2)
    shape = gg.Cuboid(1, 1, 1, 1, 0, 1)
    packing = gg.PackingSpec(2, 2, 1)
    p_count = len(gg.packing_centers(grid, packing, shape))
    l0 = md.HeadConfig(m=4, n=grid.size, expansion=tf.ExpansionSpec("identity"),
                       reconciliation=rc.ReconciliationSpec("lorr", n=grid.size, D=4,
                                                            rank=2),
                       processors={"output": "tanh"})
    l1 = md.HeadConfig(
        m=grid.size, n=3, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=3, D=p_count),
        attr_prior=itd.InterdependenceSpec(
            itd.GridStructural(grid, shape, packing, "aggregation")))
    model = md.ModelConfig([md.LayerConfig([l0]), md.LayerConfig([l1])])
    store = md.init_store(model, seed=3)
    x = np.random.default_rng(5).normal(size=(5, 4))
    assert _fd_worst(model, x, store) < 1e-5


def test_finite_differences_through_sparse_instance_stations():
    # a sparse constant at inst_prior and inst_post runs as (cur.T @ S).T
    rng = np.random.default_rng(6)
    prior = SparseCoo.from_dense(rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.6))
    post = SparseCoo.from_dense(np.eye(4)[:, ::-1] + np.eye(4))
    head = md.HeadConfig(
        m=3, n=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=2, D=3),
        inst_prior=itd.InterdependenceSpec(itd.Constant(prior), axis="instance"),
        inst_post=itd.InterdependenceSpec(itd.Constant(post), axis="instance"))
    model = md.ModelConfig([md.LayerConfig([head])])
    store = md.init_store(model, seed=1)
    x = rng.normal(size=(5, 3))
    out = md.model_forward(x, model, store)
    w = store.get("l0.h0.c0.psi").reshape(2, 3)
    want = post.to_dense().T @ (prior.to_dense().T @ x @ w.T)
    assert np.allclose(out, want, rtol=0, atol=1e-12)
    assert _fd_worst(model, x, store) < 1e-5


def test_diagnostics_and_hybrids_accept_a_sparse_prior():
    grid = gg.GridSpec(3, 3, 1)
    shape = gg.Cuboid(1, 1, 1, 1, 0, 0)
    packing = gg.PackingSpec(1, 1, 1, clip_out_of_grid=True)
    s = itd.grid_structural_matrix(grid, shape, packing, "aggregation")
    inst = md.HeadConfig(
        m=2, n=2, expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=2, D=2),
        inst_prior=itd.InterdependenceSpec(itd.Constant(s), axis="instance"))
    x = np.random.default_rng(7).normal(size=(9, 2))
    model = md.ModelConfig([md.LayerConfig([inst])])
    report = md.diagnostics(model, x, md.init_store(model))
    assert report["layers"][0]["nnz"] == s.nnz
    hybrid = itd.Hybrid((itd.GridStructural(grid, shape, packing, "aggregation"),
                         itd.Identity(9)), fu.FusionSpec("sum"))
    got = itd.build_matrix(itd.InterdependenceSpec(hybrid))
    assert np.array_equal(got, s.to_dense() + np.eye(9))


def test_cli_equiv_cnn_still_passes(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"kind": "cnn", "seed": 3}')
    assert cli.main(["equiv", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out
