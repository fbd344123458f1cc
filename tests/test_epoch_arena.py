"""`train` takes the forward values of its gradient-carrying dense ops from
one `Arena` per call and hands them out again in the next epoch; nothing
held past an epoch is ever overwritten, and the trained bytes do not
change."""

import importlib.util
import json
import os
import re

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Arena, Tape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingArena(Arena):
    """An Arena that notes, per epoch, every buffer it hands out."""

    made = []

    def __init__(self):
        super().__init__()
        self.epochs = []
        RecordingArena.made.append(self)

    def take(self, shape):
        buf = super().take(shape)
        self.epochs[-1].append(buf)
        return buf

    def recycle(self):
        super().recycle()
        self.epochs.append([])

    def buffers(self):
        return {id(buf): buf for epoch in self.epochs for buf in epoch}


@pytest.fixture
def recording(monkeypatch):
    RecordingArena.made = []
    monkeypatch.setattr(md, "Arena", RecordingArena)
    return RecordingArena.made


def _moons(epochs, n=1000):
    cfg = _bench_workloads().moons_config(1000, 5000, "m.csv", "c.json")
    cfg["data"]["n"] = n
    x, y = cli.generate_dataset(cfg["data"])
    model = cli.model_from_config(cfg["model"])
    history, store = md.train(model, x, y, loss="cross_entropy",
                              optimizer=cfg["train"]["optimizer"], epochs=epochs, seed=5000)
    return model, x, history, store


def test_a_batch_sized_buffer_is_handed_out_again_in_the_next_epoch(recording):
    _moons(3)
    (arena,) = recording
    wide = [[id(buf) for buf in epoch if buf.shape == (1000, 16)] for epoch in arena.epochs]
    assert len(wide) == 3 and wide[0]
    # every (1000, 16) value of epoch k + 1 sits in a buffer of epoch k
    assert set(wide[1]) == set(wide[0]) and set(wide[2]) == set(wide[1])


def test_no_buffer_is_handed_out_twice_in_one_epoch():
    arena = Arena()
    first = [arena.take((3, 2)) for _ in range(4)]
    assert len({id(b) for b in first}) == 4
    arena.recycle()
    second = [arena.take((3, 2)) for _ in range(5)]
    assert len({id(b) for b in second}) == 5
    assert {id(b) for b in second} > {id(b) for b in first}
    assert arena.take((2, 3)).shape == (2, 3)


def test_buffer_count_stops_growing_after_epoch_two(recording):
    _moons(100)
    (arena,) = recording
    seen, counts = set(), []
    for epoch in arena.epochs:
        seen.update(id(buf) for buf in epoch)
        counts.append(len(seen))
    assert len(counts) == 100
    assert counts[2:] == [counts[2]] * 98
    # each epoch takes as many buffers as it holds values
    assert {len(epoch) for epoch in arena.epochs} == {len(arena.epochs[0])}


def test_memo_values_are_never_arena_buffers(recording, monkeypatch):
    # the kept prefix x @ A has the shape of the head's later values, so a
    # buffer it sat in would be handed to one of them in the next epoch
    rng = np.random.default_rng(5)
    a, x, y = (rng.standard_normal(shape) for shape in ((3, 3), (8, 3), (8, 3)))
    head = md.HeadConfig(m=3, n=3, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=3, D=3),
                         attr_prior=itd.InterdependenceSpec(itd.Constant(a)),
                         remainder="identity")
    model = md.ModelConfig([md.LayerConfig([head])])
    memos = []
    forward = md.model_forward_nodes

    def spy(x, model, store, trace=None, memo=None, arena=None):
        memos.append(memo)
        return forward(x, model, store, trace, memo, arena)

    monkeypatch.setattr(md, "model_forward_nodes", spy)
    _, store = md.train(model, x, y, loss="mse", epochs=4, seed=0)
    (arena,) = recording
    assert len(memos) == 4 and all(m is memos[0] for m in memos)
    _, kept = memos[0][(0, 0)]
    assert np.array_equal(kept, x @ a)
    assert not any(np.shares_memory(kept, buf) for buf in arena.buffers().values())
    # and the trained bytes are those of tapes without an arena
    monkeypatch.setattr(md, "Tape", lambda arena=None: Tape())
    _, plain = md.train(model, x, y, loss="mse", epochs=4, seed=0)
    assert np.array_equal(store.vector, plain.vector)


def _epoch(arena, w_value, x):
    """One forward and backward on a tape with that arena (or none): the
    parameter gradient and the output node."""
    tape = Tape(arena)
    w = tape.parameter(w_value, name="w")
    c = tape.constant(x)
    h = c.matmul(w)
    out = (h + c.matmul(w).scale(0.5)) - h.scale(0.25)
    loss = (out * out).mean()
    return tape.backward(loss)["w"], out


def test_kept_gradients_and_constants_survive_the_next_epoch():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    arena = Arena()
    grad, out = _epoch(arena, rng.standard_normal((3, 5)), x)
    kept_grad, kept_x = grad.copy(), x.copy()
    assert not any(np.shares_memory(grad, buf) for buf in arena.lent)
    assert any(np.shares_memory(out.value, buf) for buf in arena.lent)
    arena.recycle()
    _epoch(arena, rng.standard_normal((3, 5)), x)
    assert not any(arena.free.values())  # the second epoch took every buffer back
    assert np.array_equal(grad, kept_grad) and np.array_equal(x, kept_x)


def test_a_view_keeps_its_values_while_its_epoch_lasts():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    arena = Arena()
    tape = Tape(arena)
    w = tape.parameter(rng.standard_normal((4, 6)), name="w")
    h = tape.constant(x).matmul(w)
    view = h.transpose().reshape((-1,))
    want = (x @ w.value).T.reshape(-1)
    for _ in range(20):  # later ops of the epoch take other buffers
        h = (h + h).scale(0.5) - tape.constant(x).matmul(w)
    assert np.array_equal(view.value, want)
    tape.backward(h.sum())
    assert np.array_equal(view.value, want)


def test_arena_tape_matches_a_plain_tape_bit_for_bit():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 3))
    w = rng.standard_normal((3, 5))
    arena = Arena()
    for _ in range(3):
        got, out = _epoch(arena, w, x)
        got_out = out.value.copy()
        arena.recycle()
        want, want_out = _epoch(None, w, x)
        assert np.array_equal(got, want) and np.array_equal(got_out, want_out.value)


def test_model_forward_and_diagnostics_use_no_arena(recording, monkeypatch):
    tapes = []
    real = md.Tape

    def spy(arena=None):
        tapes.append(arena)
        return real(arena)

    monkeypatch.setattr(md, "Tape", spy)
    model, x, _, store = _moons(2, n=40)
    assert len(recording) == 1 and tapes == [recording[0]] * 2
    tapes.clear()
    out = md.model_forward(x, model, store)
    md.diagnostics(model, x, store)
    assert tapes == [None, None]
    assert not any(np.shares_memory(out, buf) for buf in recording[0].buffers().values())


def _readme_train_config():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    body = re.search(r"rpn2 train --config train\.json\n```\n\n```json\n(.*?)```",
                     readme, re.S).group(1)
    return json.loads(body)


def test_two_readme_train_runs_write_identical_files(tmp_path, monkeypatch, capsys):
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
