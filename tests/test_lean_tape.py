"""The training tape records VJPs only where a gradient is needed, the class
loss reduces column-major, `take` slices straight into shape, and training
outputs keep their pinned bytes under one and two BLAS threads."""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import datasets as ds
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2.numeric_core import SparseCoo, Tape, cross_entropy_node

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# needs_grad pruning


def test_constant_subgraph_records_no_vjp():
    tape = Tape()
    x = tape.constant(np.arange(6.0).reshape(2, 3))
    y = ((x * x - 1.0).tanh().matmul(np.ones((3, 2))) + x.take(0, 2, (1, 2))).sum()
    s = x.matmul(SparseCoo.from_dense(np.eye(3)))
    for node in tape.nodes:
        assert not node.needs_grad
        assert node.vjps == []
    assert not y.needs_grad and not s.needs_grad


@pytest.mark.parametrize("op", ["mul", "rmul", "add", "sub", "matmul", "rmatmul"])
def test_mixed_product_keeps_only_the_parameter_side(op):
    tape = Tape()
    c = tape.constant(np.full((2, 2), 3.0))
    w = tape.parameter(np.eye(2), name="w")
    out = {"mul": lambda: c * w, "rmul": lambda: w * c, "add": lambda: c + w,
           "sub": lambda: w - c, "matmul": lambda: c.matmul(w),
           "rmatmul": lambda: w.matmul(c)}[op]()
    assert out.needs_grad
    assert [parent for parent, _ in out.vjps] == [w]
    grads = tape.backward(out.sum())
    assert set(grads) == {"w"} and np.all(np.isfinite(grads["w"]))


def test_parameter_and_its_descendants_need_grad():
    tape = Tape()
    w = tape.parameter(np.ones(4), name="w")
    a = w.take(1, 3, (2, 1))
    assert w.needs_grad and w.vjps == [] and a.needs_grad
    assert tape.constant(np.ones(2)).needs_grad is False


def test_moons_tape_has_no_constant_vjp():
    cfg = _bench_workloads().moons_config(1000, 5000, "m.csv", "c.json")
    model = cli.model_from_config(cfg["model"])
    x, y = ds.two_moons(50, 0.1, 0)
    store = md.init_store(model, 0)
    out, tape, _ = md.model_forward_nodes(x, model, store)
    loss = cross_entropy_node(out, y)
    nodes = list(tape.nodes)
    # 45 nodes per epoch: 54 before take sliced into shape, 48 before lorr
    # ran as its two factors instead of forming psi
    assert len(nodes) == 45
    for node in nodes:
        assert all(parent.needs_grad for parent, _ in node.vjps)
        assert node.needs_grad == (node.is_param or bool(node.vjps))
    assert sum(not n.needs_grad for n in nodes) == 16
    tape.backward(loss)


# ---------------------------------------------------------------------------
# take into shape


def test_take_into_shape_matches_take_then_reshape():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(12)
    g = rng.standard_normal((3, 2))
    got = {}
    for fused in (True, False):
        tape = Tape()
        w = tape.parameter(v, name="w")
        a = w.take(4, 10, (3, 2)) if fused else w.take(4, 10).reshape((3, 2))
        got[fused] = (a.value.copy(), tape.backward((a * g).sum())["w"], a.nid)
    assert np.array_equal(got[True][0], got[False][0])
    assert np.array_equal(got[True][1], got[False][1])
    assert got[True][2] == got[False][2] - 1


# ---------------------------------------------------------------------------
# cross entropy


def _cross_entropy_row_major(z, labels):
    """The row-major definition: loss and gradient with respect to z."""
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    b = z.shape[0]
    loss = -logp[np.arange(b), labels].mean()
    onehot = np.zeros_like(z)
    onehot[np.arange(b), labels] = 1.0
    return loss, 1.0 * (np.exp(logp) - onehot) / b


def _cross_entropy(z, labels):
    tape = Tape()
    node = cross_entropy_node(tape.parameter(z, name="z"), labels)
    return float(node.value[0, 0]), tape.backward(node)["z"]


@pytest.mark.parametrize("classes", [1, 2, 3, 5, 7])
def test_cross_entropy_bit_identical_below_8_classes(classes):
    rng = np.random.default_rng(classes)
    z = rng.standard_normal((301, classes)) * 7.0
    labels = rng.integers(0, classes, 301)
    loss, grad = _cross_entropy(z, labels)
    want_loss, want_grad = _cross_entropy_row_major(z, labels)
    assert float.hex(loss) == float.hex(float(want_loss))
    assert np.array_equal(grad, want_grad)
    assert grad.flags.c_contiguous


@pytest.mark.parametrize("classes", [8, 9, 16, 33])
def test_cross_entropy_within_1e12_from_8_classes(classes):
    rng = np.random.default_rng(classes)
    z = rng.standard_normal((257, classes)) * 7.0
    labels = rng.integers(0, classes, 257)
    loss, grad = _cross_entropy(z, labels)
    want_loss, want_grad = _cross_entropy_row_major(z, labels)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("labels, message", [
    ([0, 1, -1], r"\[0, 3\)"),
    ([0, 1, 3], r"\[0, 3\)"),
    ([0, 1.7, 2], "integers"),
    ([0, np.nan, 2], "integers"),
    ([0, 1], "one label per row"),
    ([0, 1, 2, 0], "one label per row"),
    ([[0], [1], [2]], "one label per row"),
    (["a", "b", "c"], "integers"),
])
def test_cross_entropy_rejects_bad_labels(labels, message):
    tape = Tape()
    z = tape.parameter(np.zeros((3, 3)), name="z")
    with pytest.raises(ValueError, match=message):
        cross_entropy_node(z, labels)


def test_cross_entropy_accepts_integer_valued_floats():
    z = np.random.default_rng(1).standard_normal((4, 3))
    assert _cross_entropy(z, [0.0, 2.0, 1.0, 2.0])[0] == _cross_entropy(z, [0, 2, 1, 2])[0]


def test_train_with_bad_labels_exits_4(tmp_path, capsys):
    cfg = {"model": {"layers": [{"heads": [
        {"m": 4, "n": 4, "reconciliation": {"method": "identity", "n": 4, "D": 4}}]}]},
        "data": {"kind": "chain_series", "m": 4, "b": 3, "seed": 0},
        "train": {"loss": "cross_entropy", "epochs": 1},
        "outputs": {"metrics": str(tmp_path / "m.csv"),
                    "checkpoint": str(tmp_path / "c.json")}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path)]) == 4
    assert "one label per row" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# byte-identity pin: 20 epochs of both training workloads' models, recorded
# under one and two BLAS threads (the same bytes) once lorr and vera ran as
# their factors and the series head's instance prior multiplied its
# reconciled output; the pins before that held the psi-forming float order


def _digest(history, store):
    return (float.hex(history.epochs[-1]["loss"]),
            hashlib.sha256(store.vector.tobytes()).hexdigest())


def test_moons_training_is_byte_identical():
    wl = _bench_workloads()
    cfg = wl.moons_config(1000, 5000, "m.csv", "c.json")
    x, y = cli.generate_dataset(cfg["data"])
    history, store = md.train(cli.model_from_config(cfg["model"]), x, y,
                              loss="cross_entropy", optimizer=cfg["train"]["optimizer"],
                              epochs=20, seed=5000)
    assert _digest(history, store) == (
        "0x1.bed9c22768073p-3",
        "ca27af24f96b06513bfc816be697a56f4284a9034c8d8bdc6587102f4578d1c8")


def test_series_training_is_byte_identical():
    wl = _bench_workloads()
    model = wl.series_model()
    x, y = ds.chain_series(wl.SERIES_M, wl.SERIES_B, 2000)
    history, store = md.train(model, x, y, loss="mse", optimizer=wl.SERIES_OPTIMIZER,
                              epochs=20, seed=6000, store=md.init_store(model, 6000))
    assert _digest(history, store) == (
        "0x1.7df52b9db4c2cp+3",
        "1d365a3ecd5638a1b51c31aa94f4278b4cd276b7be2011d077c8befbf81cc68a")


# ---------------------------------------------------------------------------
# lorr layout: lorr_vector is the inverse of lorr_factors


@pytest.mark.parametrize("n, D, rank", [(1, 1, 1), (3, 5, 2), (8, 8, 4)])
def test_lorr_vector_round_trip(n, D, rank):
    rng = np.random.default_rng(n + D + rank)
    a = rng.standard_normal((n, rank))
    b = rng.standard_normal((D, rank))
    v = rc.lorr_vector(a, b)
    assert v.shape == (rc.param_length(rc.ReconciliationSpec("lorr", n=n, D=D, rank=rank)),)
    with Tape() as tape:
        fa, fb = rc.lorr_factors(tape.constant(v), n, D, rank)
        assert np.array_equal(fa.value, a) and np.array_equal(fb.value, b)
        w = rng.standard_normal(v.size)
        assert np.array_equal(rc.lorr_vector(*(f.value for f in
                                                rc.lorr_factors(tape.constant(w), n, D, rank))), w)
