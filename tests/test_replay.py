"""`Tape.replay` re-evaluates a recorded tape at new parameter values, in
place: every op's replayed values and gradients are those of a tape built
fresh at those values, byte for byte, and `train`, which builds its tape
once per call and replays it in every later epoch, trains to the bytes of a
loop that rebuilds every epoch."""

import importlib.util
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import cli
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import (SparseCoo, Tape, concat_nodes, cross_entropy_node,
                               l1_normalize_node, mse_node, softmax_node)
from test_generated_heads import CASES as GRID, FUSIONS, _head
from test_train_fold import _digest, _unfolded_train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RNG = np.random.default_rng(29)
C = RNG.standard_normal((4, 3))  # a constant the size of every op's input
S = SparseCoo.from_dense(RNG.standard_normal((3, 5)) * (RNG.random((3, 5)) < 0.5))
G = RNG.standard_normal((4, 5))
LABELS = np.array([0, 2, 1, 2])
TARGET = RNG.standard_normal((4, 3))

# op -> a scalar loss of the 4 x 3 parameter node w; each multiplies its op's
# output by a constant before the sum, so the VJP sees an uneven gradient
OPS = {
    "add": lambda t, w: ((w + t.constant(C)) * C).sum(),
    "add_broadcast": lambda t, w: ((w + t.constant(C[:1])) * C).sum(),
    "sub": lambda t, w: ((t.constant(C) - w) * C).sum(),
    "mul": lambda t, w: ((w * t.constant(C)) * w).sum(),
    "div": lambda t, w: ((w / 3.0) * C).sum(),
    "scale": lambda t, w: (w.scale(-0.7) * C).sum(),
    "take_view": lambda t, w: (w.take(2, 8, (2, 3)) * C[:2]).sum(),
    "take_copy": lambda t, w: (w.transpose().take(1, 7, (3, 2)) * C.T[:, :2]).sum(),
    "matmul_dense": lambda t, w: (w.matmul(t.constant(C.T)) * (C @ C.T)).sum(),
    "matmul_sparse": lambda t, w: (w.matmul(S) * G).sum(),
    "transpose": lambda t, w: (w.transpose() * C.T).sum(),
    "reshape_view": lambda t, w: (w.reshape((3, 4)) * C.reshape(3, 4)).sum(),
    "reshape_copy": lambda t, w: (w.transpose().reshape((2, 6)) * C.reshape(2, 6)).sum(),
    "tanh": lambda t, w: (w.tanh() * C).sum(),
    "sigmoid": lambda t, w: (w.sigmoid() * C).sum(),
    "relu": lambda t, w: (w.relu() * C).sum(),
    "sum": lambda t, w: (w * w).sum(),
    "mean": lambda t, w: (w * C).mean(),
    "softmax_row": lambda t, w: (softmax_node(w, "row") * C).sum(),
    "softmax_col_scaled": lambda t, w: (softmax_node(w, "col", r=3) * C).sum(),
    "l1_normalize_col": lambda t, w: (l1_normalize_node(w, "col") * C).sum(),
    "l1_normalize_row": lambda t, w: (l1_normalize_node(w, "row") * C).sum(),
    "concat": lambda t, w: (concat_nodes([w, t.constant(C), w.tanh()]) * np.tile(C, 3)).sum(),
    "cross_entropy": lambda t, w: cross_entropy_node(w.scale(2.0), LABELS),
    "mse": lambda t, w: mse_node(w.tanh(), TARGET),
}


def _tape(op, w_value):
    tape = Tape()
    w = tape.parameter(w_value, name="w")
    loss = OPS[op](tape, w)
    return tape, w, loss


def _snapshot(tape, loss):
    return [n.value.tobytes() for n in tape.nodes], tape.backward(loss)["w"].tobytes()


def test_every_op_is_covered():
    assert {"add", "sub", "mul", "div", "scale", "take_view", "matmul_dense",
            "matmul_sparse", "transpose", "reshape_view", "reshape_copy", "tanh", "sigmoid",
            "relu", "sum", "mean", "softmax_row", "l1_normalize_col", "concat",
            "cross_entropy", "mse"} <= set(OPS)


@pytest.mark.parametrize("op", sorted(OPS))
def test_a_replayed_op_matches_a_fresh_tape(op):
    # p2 flips signs, so relu's mask, l1's signs and the labels' residual change
    p1 = RNG.standard_normal((4, 3)) + 0.1
    p2 = -1.3 * p1[::-1].copy()
    tape, w, loss = _tape(op, p1.copy())
    fresh1 = _snapshot(tape, loss)
    w.value[...] = p2
    tape.replay()
    got = _snapshot(tape, loss)
    want = _snapshot(*_tape(op, p2.copy())[::2])
    assert got == want
    assert got != fresh1
    # and back: a second replay is not a one-off
    w.value[...] = p1
    tape.replay()
    assert _snapshot(tape, loss) == fresh1


@pytest.mark.parametrize("op", ["take_view", "reshape_view", "transpose", "take_copy",
                                "reshape_copy"])
def test_a_view_replays_only_when_it_copies(op):
    tape, _, _ = _tape(op, RNG.standard_normal((4, 3)))
    view = tape.nodes[2 if op.endswith("copy") else 1]  # the copy reads a transpose
    assert (view.redo is None) == np.may_share_memory(view.value, view.vjps[0][0].value)
    assert (view.redo is None) == op.endswith(("view", "transpose"))


def test_constants_and_parameters_never_replay():
    tape = Tape()
    c = tape.constant(C)
    d = (c.tanh() + 1.0).relu()
    w = tape.parameter(np.ones((3, 2)), name="w")
    out = d.matmul(w)
    assert [n.redo is None for n in (c, d, w, out)] == [True, True, True, False]


# ---------------------------------------------------------------------------
# train against a loop that rebuilds every epoch


def _second_layer(m, b):
    """Layer 1 reads a gradient-carrying input: every processor, a learned
    row_l1-normalized prior and a linear remainder replay there."""
    return md.LayerConfig([md.HeadConfig(
        m=m, n=2, expansion=tf.ExpansionSpec("legendre", d=2),
        reconciliation=rc.ReconciliationSpec("lorr", n=2, D=2 * m, rank=1),
        attr_prior=itd.InterdependenceSpec(itd.Bilinear(b), post_norm="row_l1"),
        processors={"input": "tanh", "expansion": "relu", "output": "sigmoid"},
        remainder="linear")])


# metric fusion is value-only: train refuses a slot upstream of it
TRAINABLE = [k for k in range(len(GRID)) if FUSIONS[k % len(FUSIONS)] != "metric"]


@pytest.mark.parametrize("optimizer", [{"kind": "sgd", "lr": 0.05, "momentum": 0.9},
                                       {"kind": "adaptive_moments", "lr": 0.05}],
                         ids=["sgd_momentum", "adaptive_moments"])
@pytest.mark.parametrize("case", TRAINABLE, ids=["%s-%s" % GRID[k] for k in TRAINABLE])
@settings(max_examples=1, deadline=None, derandomize=True)
@given(data=st.data())
def test_two_layer_generated_heads_train_to_the_rebuilt_bytes(case, optimizer, data):
    first, b = _head(case, data.draw)
    n = first.layers[0].heads[0].n
    model = md.ModelConfig(first.layers + [_second_layer(n, b)])
    seed = data.draw(st.integers(0, 999))
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal((b, first.layers[0].heads[0].m))
    loss = "mse" if case % 2 else "cross_entropy"
    y = rng.standard_normal((b, 2)) if loss == "mse" else rng.integers(0, 2, b)
    history, store = md.train(model, x, y, loss=loss, optimizer=optimizer, epochs=3, seed=seed)
    lv, want, norms = _unfolded_train(model, x, y, loss, optimizer, 3, seed)
    assert _digest(history.epochs[-1]["loss"], store) == _digest(lv, want)
    assert [(e["grad_norm"], e["param_norm"]) for e in history.epochs] == norms


# ---------------------------------------------------------------------------
# what a replay keeps


def _bench_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Replays:
    """Tape.replay, recording each call's tape and its nodes' value arrays."""

    def __init__(self, monkeypatch):
        self.calls = []
        replay = Tape.replay

        def spy(tape):
            self.calls.append((tape, [(n, n.value) for n in tape.nodes]))
            replay(tape)

        monkeypatch.setattr(Tape, "replay", spy)


def _moons(epochs, n=1000):
    cfg = _bench_workloads().moons_config(1000, 5000, "m.csv", "c.json")
    cfg["data"]["n"] = n
    x, y = cli.generate_dataset(cfg["data"])
    model = cli.model_from_config(cfg["model"])
    history, store = md.train(model, x, y, loss="cross_entropy",
                              optimizer=cfg["train"]["optimizer"], epochs=epochs, seed=5000)
    return model, x, history, store


def test_no_forward_value_is_allocated_again_after_epoch_0(monkeypatch):
    replays = _Replays(monkeypatch)
    _, _, history, _ = _moons(4)
    assert len(history.epochs) == 4 and len(replays.calls) == 3
    tapes = {id(tape) for tape, _ in replays.calls}
    assert len(tapes) == 1  # one tape per call
    first = replays.calls[0][1]
    # 45 forward and loss nodes, 13 of which replay
    assert len(first) == 45 and sum(n.redo is not None for n, _ in first) == 13
    for _, nodes in replays.calls[1:]:
        assert len(nodes) == len(first)
        assert all(n is n0 and v is v0 for (n, v), (n0, v0) in zip(nodes, first))


def test_kept_gradients_and_constants_survive_the_next_replay():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    tape = Tape()
    w = tape.parameter(rng.standard_normal((3, 5)), name="w")
    c = tape.constant(x)
    h = c.matmul(w)
    out = (h + c.matmul(w).scale(0.5)) - h.scale(0.25)
    loss = (out * out).mean()
    grad = tape.backward(loss)["w"]
    kept_grad, kept_x = grad.copy(), x.copy()
    assert not any(np.may_share_memory(grad, n.value) for n in tape.nodes)
    w.value[...] = rng.standard_normal((3, 5))
    tape.replay()
    again = tape.backward(loss)["w"]
    assert not np.array_equal(again, kept_grad)
    assert np.array_equal(grad, kept_grad) and np.array_equal(c.value, kept_x)


def test_a_view_follows_its_parent_through_a_replay():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    tape = Tape()
    w = tape.parameter(rng.standard_normal((4, 6)), name="w")
    h = tape.constant(x).matmul(w)
    view = h.transpose().reshape((-1,))
    for _ in range(20):  # later ops of the tape write their own arrays
        h = (h + h).scale(0.5) - tape.constant(x).matmul(w)
    w.value[...] = rng.standard_normal((4, 6))
    tape.replay()
    want = (x @ w.value).T.reshape(-1)
    assert np.array_equal(view.value, want)
    tape.backward(h.sum())
    assert np.array_equal(view.value, want)


def test_model_forward_and_diagnostics_never_replay(monkeypatch):
    replays = _Replays(monkeypatch)
    model, x, _, store = _moons(3, n=40)
    assert len(replays.calls) == 2
    replays.calls.clear()
    md.model_forward(x, model, store)
    md.diagnostics(model, x, store)
    assert replays.calls == []


def test_a_non_finite_loss_in_a_replayed_epoch_is_refused_and_the_tape_freed(monkeypatch):
    released = []
    release = Tape.release
    monkeypatch.setattr(Tape, "release", lambda tape: released.append(tape) or release(tape))
    head = md.HeadConfig(m=2, n=2, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=2, D=2))
    model = md.ModelConfig([md.LayerConfig([head])])
    x = np.full((4, 2), 1e150)
    with pytest.raises(FloatingPointError, match="non-finite loss at epoch [1-9]"):
        with np.errstate(over="ignore", invalid="ignore"):
            md.train(model, x, np.zeros((4, 2)), optimizer={"kind": "sgd", "lr": 1.0},
                     epochs=5, seed=0)
    assert len(released) == 1 and released[0].nodes == []


def _readme_train_config():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    body = re.search(r"rpn2 train --config train\.json\n```\n\n```json\n(.*?)```",
                     readme, re.S).group(1)
    return json.loads(body)


def test_two_readme_train_runs_write_identical_files(tmp_path, monkeypatch):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(_readme_train_config()))
    files = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert cli.main(["train", "--config", str(config)]) == 0
        outputs = _readme_train_config()["outputs"]
        files.append([(tmp_path / run / outputs[key]).read_bytes()
                      for key in ("metrics", "checkpoint")])
    assert files[0] == files[1]
