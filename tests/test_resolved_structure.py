"""Parameter-free structure is resolved once per spec: the kept matrix equals
a fresh build, is built once across forwards and epochs, and is read-only,
and a graph cannot be edited after it is built. Every parameter-free variant
(structure, constants and kernels) builds the bytes of the former off-tape
dispatcher, kept here as the oracle. Also: the sparse product plan and the
lifetime of finished tapes."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.interdependence import (ChainStructural, Constant, GraphStructural, GridStructural,
                                  Identity, NumKernel, StatKernel, apply_post_norm,
                                  chain_structural_matrix, graph_structural_matrix,
                                  grid_structural_matrix, numerical_kernel_matrix,
                                  statistical_kernel_matrix)
from rpn2.numeric_core import SparseCoo, Tape


# the off-tape dispatcher over the parameter-free variants that
# `interdependence.build_node` once fell through to, kept unchanged
def _fixed_matrix_oracle(spec, x):
    """Post-normalized matrix of a parameter-free spec, built off the tape.

    Instance-axis specs dispatch on the transposed batch; graph matrices on
    the instance axis are returned transposed so that the model's
    stored.T @ X convention applies the natural propagation direction.
    """
    v = spec.variant
    data = None
    if x is not None:
        data = np.asarray(x, dtype=float)
        if spec.axis == "instance":
            data = data.T
    if isinstance(v, Constant):
        a = v.matrix
    elif isinstance(v, Identity):
        a = np.eye(v.dim)
    elif isinstance(v, StatKernel):
        if data is None:
            raise ValueError("statistical kernel needs a data batch")
        a = statistical_kernel_matrix(data, v.kind)
    elif isinstance(v, NumKernel):
        if data is None:
            raise ValueError("numerical kernel needs a data batch")
        a = numerical_kernel_matrix(data, v.kind, v.params)
    elif isinstance(v, GridStructural):
        a = grid_structural_matrix(v.grid, v.shape, v.packing, v.mode)
    elif isinstance(v, ChainStructural):
        a = chain_structural_matrix(v.length, v.direction, v.variant, v.hops,
                                    v.include_self)
    elif isinstance(v, GraphStructural):
        a = graph_structural_matrix(v.graph, v.variant, v.hops, v.alpha,
                                    v.normalization)
        if spec.axis == "instance":
            a = a.T
    else:
        raise TypeError("unknown interdependence variant %r" % (v,))
    return apply_post_norm(a, spec.post_norm, spec.norm_r)


POST_NORMS = ("none", "row_l1", "col_l1", "col_softmax", "scaled_col_softmax")
GRID = gg.GridSpec(3, 3, 2)
SHAPE = gg.Cuboid(1, 1, 0, 1, 0, 0)
PACKING = gg.PackingSpec(2.0, 1.0, 1.0, clip_out_of_grid=True)


def _graph():
    return itd.Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (1, 4)])


VARIANTS = {
    "grid padding": lambda: itd.GridStructural(GRID, SHAPE, PACKING, "padding"),
    "grid aggregation": lambda: itd.GridStructural(GRID, SHAPE, PACKING, "aggregation"),
    "identity": lambda: itd.Identity(5),
    **{"chain %s %s" % (d, v): (lambda d=d, v=v: itd.ChainStructural(
        6, d, v, hops=2, include_self=(v == "onehop")))
       for d in ("uni", "bi")
       for v in ("onehop", "multihop", "accumulative", "exponential", "reciprocal")},
    **{"graph %s" % v: (lambda v=v: itd.GraphStructural(
        _graph(), v, hops=2, normalization="row" if v == "pagerank" else "row_selfloop"))
       for v in ("adjacency", "multihop", "accumulative", "pagerank")},
}


def _bytes(a):
    if isinstance(a, SparseCoo):
        return ("sparse", a.rows, a.cols, a.row_idx.tobytes(), a.col_idx.tobytes(),
                a.vals.tobytes())
    return ("dense", a.shape, a.tobytes())


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_resolved_matrix_is_a_fresh_build(name):
    for post_norm in POST_NORMS:
        for axis in ("attribute", "instance"):
            spec = itd.InterdependenceSpec(VARIANTS[name](), axis=axis,
                                           post_norm=post_norm, norm_r=4)
            first = itd.build_matrix(spec)
            again = itd.build_matrix(spec)
            assert again is first
            fresh = _fixed_matrix_oracle(
                itd.InterdependenceSpec(VARIANTS[name](), axis, post_norm, 4), None)
            assert _bytes(first) == _bytes(fresh), (post_norm, axis)


X = np.abs(np.sin(np.arange(20.0))).reshape(5, 4) + 0.1  # kl needs no negative entry


def _free_variants(rows):
    """Every constant and kernel, for a batch whose dispatched input has
    `rows` rows (anisotropic_rbf weighs each of them)."""
    dim = X.shape[1] if rows == X.shape[0] else X.shape[0]
    c = np.cos(np.arange(dim * dim, dtype=float)).reshape(dim, dim)
    return {
        "constant dense": itd.Constant(c),
        "constant sparse": itd.Constant(SparseCoo.from_dense(np.where(c > 0, c, 0.0))),
        **{"stat %s" % k: itd.StatKernel(k) for k in ("kl", "pearson", "rv", "mutual_info")},
        **{"num %s" % k: itd.NumKernel(k, p) for k, p in (
            ("linear", {}), ("polynomial", {"c": 0.5, "d": 3}), ("tanh", {"alpha": 0.3}),
            ("exponential", {"gamma": 0.7}), ("cosine", {}), ("minkowski", {"p": 3}),
            ("gaussian_rbf", {"sigma": 2.0}), ("laplacian", {"sigma": 0.5}),
            ("anisotropic_rbf", {"a": np.linspace(0.1, 1.0, rows)}),
            ("hybrid", {"k1": "linear", "k2": "cosine", "alpha": 0.3, "beta": 0.7}))},
    }


@pytest.mark.parametrize("axis", ["attribute", "instance"])
def test_constants_and_kernels_build_the_oracle_bytes(axis):
    rows = X.shape[0] if axis == "attribute" else X.shape[1]
    names = sorted(_free_variants(rows))
    assert len(names) == 16
    for name in names:
        for post_norm in POST_NORMS:
            variant = _free_variants(rows)[name]
            spec = itd.InterdependenceSpec(variant, axis, post_norm, 4)
            got = itd.build_matrix(spec, X)
            want = _fixed_matrix_oracle(spec, X)
            assert _bytes(got) == _bytes(want), (name, post_norm)
            if post_norm == "none" and name.startswith("constant"):
                assert got is variant.matrix
            assert "_resolved" not in vars(spec)


def test_resolved_arrays_are_read_only():
    dense = itd.build_matrix(itd.InterdependenceSpec(itd.ChainStructural(5, "uni")))
    sparse = itd.build_matrix(itd.InterdependenceSpec(VARIANTS["grid padding"]()))
    for a in (dense, sparse.row_idx, sparse.col_idx, sparse.vals):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7


def test_spec_is_frozen_and_constant_is_not_copied():
    a = np.arange(9.0).reshape(3, 3)
    spec = itd.InterdependenceSpec(itd.Constant(a))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.post_norm = "row_l1"
    assert itd.build_matrix(spec) is a
    assert a.flags.writeable
    assert "_resolved" not in vars(spec)


def _counting(monkeypatch):
    counts = {}
    for name in ("grid_structural_matrix", "chain_structural_matrix",
                 "graph_structural_matrix"):
        def counted(*args, _f=getattr(itd, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(itd, name, counted)
    return counts


def _structure_model(b):
    """Three heads over an 8-wide batch of b rows: a uni chain, a grid and a
    graph over the instances."""
    grid = gg.GridSpec(2, 2, 2)
    grid_spec = itd.InterdependenceSpec(itd.GridStructural(
        grid, gg.Cuboid(0, 1, 0, 1, 0, 0), gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True),
        "aggregation"), post_norm="col_l1")
    width = _fixed_matrix_oracle(grid_spec, None).shape[1]

    def head(D, **interdep):
        return md.HeadConfig(m=8, n=3, expansion=tf.ExpansionSpec("identity"),
                             reconciliation=rc.ReconciliationSpec("identity", n=3, D=D),
                             **interdep)

    graph = itd.Graph(b, [(k, k + 1) for k in range(b - 1)])
    heads = [
        head(8, attr_prior=itd.InterdependenceSpec(
            itd.ChainStructural(8, "uni", "exponential"), post_norm="col_l1")),
        head(width, attr_prior=grid_spec),
        head(8, inst_prior=itd.InterdependenceSpec(
            itd.GraphStructural(graph, normalization="row_selfloop"), axis="instance")),
    ]
    return md.ModelConfig([md.LayerConfig(heads, fu.FusionSpec("average"))])


def test_one_build_per_spec_across_forwards_and_epochs(monkeypatch):
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((5, 8)), rng.standard_normal((5, 3))
    model, trained = _structure_model(5), _structure_model(5)
    store = md.init_store(model, 1)
    counts = _counting(monkeypatch)
    outs = [md.model_forward(x, model, store) for _ in range(5)]
    assert counts == {"grid_structural_matrix": 1, "chain_structural_matrix": 1,
                      "graph_structural_matrix": 1}
    assert all(o.tobytes() == outs[0].tobytes() for o in outs)
    counts.clear()
    history, _ = md.train(trained, x, y, epochs=4, seed=2)
    assert len(history.epochs) == 4
    assert counts == {"grid_structural_matrix": 1, "chain_structural_matrix": 1,
                      "graph_structural_matrix": 1}


def test_graph_cannot_be_edited():
    x = np.random.default_rng(3).standard_normal((4, 6))
    graph = _graph()
    spec = itd.InterdependenceSpec(itd.GraphStructural(graph, "accumulative", hops=2))
    head = md.HeadConfig(m=6, n=2, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=6),
                         attr_prior=spec)
    model = md.ModelConfig([md.LayerConfig([head])])
    store = md.init_store(model, 0)
    before = md.model_forward(x, model, store)
    with pytest.raises(AttributeError):
        graph.edges.append((0, 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.n_nodes = 7
    assert md.model_forward(x, model, store).tobytes() == before.tobytes()
    edited = itd.Graph(6, graph.edges + ((0, 5),))
    after = md.model_forward(x, md.ModelConfig([md.LayerConfig([dataclasses.replace(
        head, attr_prior=itd.InterdependenceSpec(
            itd.GraphStructural(edited, "accumulative", hops=2)))])]), store)
    assert not np.array_equal(after, before)


def test_rmatmul_plan_is_kept_and_repeats_bytes():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.4)
    a[:, 2] = 0.0  # an empty column
    s = SparseCoo.from_dense(a)
    x = rng.standard_normal((4, 9))
    first = s.rmatmul(x)
    plan = s._rmatmul_plan()
    for _ in range(3):
        assert s.rmatmul(x).tobytes() == first.tobytes()
    assert s._rmatmul_plan() is plan
    copy = SparseCoo(9, 7, s.row_idx, s.col_idx, s.vals)
    assert copy.rmatmul(x).tobytes() == first.tobytes()
    assert s.transpose() is s.transpose()
    b = rng.standard_normal((7, 3))
    assert s.transpose().rmatmul(b.T).tobytes() == copy.transpose().rmatmul(b.T).tobytes()


def test_finished_tapes_die_without_the_cycle_collector(monkeypatch):
    tapes = []
    forward_nodes = md.model_forward_nodes

    def spy(*args, **kwargs):
        out = forward_nodes(*args, **kwargs)
        tapes.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(md, "model_forward_nodes", spy)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((5, 8)), rng.standard_normal((5, 3))
    model = _structure_model(5)
    store = md.init_store(model, 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        md.model_forward(x, model, store)
        assert len(tapes) == 1 and tapes[0]() is None
        md.train(model, x, y, epochs=2, seed=0)
        # one tape per train call, released when the call returns
        assert len(tapes) == 2 and all(t() is None for t in tapes)
    finally:
        if enabled:
            gc.enable()


def test_a_released_tape_refuses_backward():
    tape = Tape()
    x = tape.parameter(np.arange(3.0), name="x")
    loss = (x * x).sum()
    assert np.array_equal(tape.backward(loss)["x"], 2 * np.arange(3.0))
    assert np.array_equal(tape.backward(loss)["x"], 2 * np.arange(3.0))
    tape.release()
    assert tape.nodes == []
    with pytest.raises(ValueError, match="released"):
        tape.backward(loss)
