import json

import numpy as np
import pytest

from rpn2 import cli


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run(args):
    return cli.main(args)


def test_gen_data_two_moons_deterministic(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"data": {"kind": "two_moons", "n": 200, "noise": 0.1, "seed": 7}})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert _run(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
    assert _run(["gen-data", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "x0,x1,label"
    assert len(lines) == 201


def test_gen_data_grid_images_shape(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"data": {"kind": "grid_images", "h": 3, "w": 3, "d": 2,
                           "b": 4, "seed": 1}})
    out = tmp_path / "g.csv"
    assert _run(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert len(lines[1].split(",")) == 18


def test_gen_data_random_graph_no_edges(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"data": {"kind": "random_graph", "n_v": 6, "edge_prob": 0.0,
                           "seed": 3}})
    out = tmp_path / "g.csv"
    assert _run(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    edges = (tmp_path / "g.csv.edges.csv").read_text().strip().split("\n")
    assert edges == ["u,v"]


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"data": {"kind": "two_moons", "bogus": 1}})
    assert _run(["gen-data", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 2


def test_build_matrix_identity_stats(tmp_path):
    cfg = _write(tmp_path / "c.json", {"matrix": {"kind": "identity", "m": 100}})
    out = tmp_path / "m.mtx"
    assert _run(["build-matrix", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((tmp_path / "m.mtx.stats.json").read_text())
    assert stats == {"rows": 100, "cols": 100, "nnz": 100, "nnz_ratio": 0.01}
    header = out.read_text().split("\n")[0]
    assert header == "%%MatrixMarket matrix coordinate real general"


def test_build_matrix_chain_anchor_and_graph(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"matrix": {"kind": "chain", "m": 512,
                             "variant": "accumulative", "hops": 5}})
    assert _run(["build-matrix", "--config", cfg,
                 "--out", str(tmp_path / "c.mtx")]) == 0
    stats = json.loads((tmp_path / "c.mtx.stats.json").read_text())
    assert stats["nnz"] == 3057
    assert abs(stats["nnz_ratio"] - 0.011662) < 2e-4
    gcfg = _write(tmp_path / "g.json",
                  {"matrix": {"kind": "graph", "n_nodes": 3,
                              "edges": [[0, 1], [1, 2]]}})
    assert _run(["build-matrix", "--config", gcfg,
                 "--out", str(tmp_path / "g.mtx")]) == 0
    gstats = json.loads((tmp_path / "g.mtx.stats.json").read_text())
    assert gstats["nnz"] == 4


_TRAIN_MODEL = {
    "layers": [
        {"heads": [{"m": 2, "n": 8,
                    "expansion": {"family": "hermite", "d": 2},
                    "reconciliation": {"method": "lorr", "n": 8, "D": 4,
                                       "rank": 2},
                    "processors": {"output": "tanh"}}]},
        {"heads": [{"m": 8, "n": 2,
                    "reconciliation": {"method": "lorr", "n": 2, "D": 8,
                                       "rank": 2}}]}]}


def test_train_epochs_zero_checkpoint_equals_init(tmp_path):
    from rpn2 import model as md
    cfg_obj = {"model": _TRAIN_MODEL,
               "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
               "train": {"loss": "cross_entropy", "epochs": 0, "seed": 5,
                         "optimizer": {"kind": "sgd", "lr": 0.1}},
               "outputs": {"metrics": str(tmp_path / "m.csv"),
                           "checkpoint": str(tmp_path / "c.json")}}
    cfg = _write(tmp_path / "t.json", cfg_obj)
    assert _run(["train", "--config", cfg]) == 0
    ckpt = json.loads((tmp_path / "c.json").read_text())
    model = cli.model_from_config(_TRAIN_MODEL)
    init = md.init_store(model, 5)
    assert np.array_equal(np.array(ckpt["parameters"]), init.vector)


def test_train_writes_metrics(tmp_path):
    cfg_obj = {"model": _TRAIN_MODEL,
               "data": {"kind": "two_moons", "n": 60, "noise": 0.1, "seed": 7},
               "train": {"loss": "cross_entropy", "epochs": 10, "seed": 5,
                         "optimizer": {"kind": "adaptive_moments", "lr": 0.05}},
               "outputs": {"metrics": str(tmp_path / "m.csv"),
                           "checkpoint": str(tmp_path / "c.json")}}
    cfg = _write(tmp_path / "t.json", cfg_obj)
    assert _run(["train", "--config", cfg]) == 0
    lines = (tmp_path / "m.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,metric"
    assert len(lines) == 11


def test_equiv_pass_and_exit_codes(tmp_path, capsys):
    cfg = _write(tmp_path / "e.json", {"kind": "transformer", "seed": 1})
    assert _run(["equiv", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS max_diff < 1e-10")
    for kind in ("cnn", "pool", "rnn", "gnn"):
        cfg_k = _write(tmp_path / ("%s.json" % kind), {"kind": kind, "seed": 2})
        assert _run(["equiv", "--config", cfg_k]) == 0
    bad = _write(tmp_path / "bad.json", {"kind": "mlp"})
    assert _run(["equiv", "--config", bad]) == 4


def test_diagnose_identity_rank_equals_batch(tmp_path):
    cfg_obj = {"model": {"layers": [{"heads": [{
        "m": 2, "n": 2,
        "reconciliation": {"method": "identity", "n": 2, "D": 2},
        "inst_prior": {"variant": "identity", "dim": 40}}]}]},
        "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
        "seed": 0}
    cfg = _write(tmp_path / "d.json", cfg_obj)
    out = tmp_path / "r.json"
    assert _run(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["layers"][0]["rank"] == 40


def test_config_roundtrip_fixed_point(tmp_path):
    obj = {"data": {"kind": "two_moons", "n": 10, "noise": 0.2, "seed": 1}}
    once = json.loads(json.dumps(obj))
    twice = json.loads(json.dumps(once))
    assert once == twice


def test_missing_config_file_io_error(tmp_path):
    assert _run(["gen-data", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_train_rejects_metric_head_fusion_that_cannot_learn(tmp_path, capsys):
    head = {"m": 2, "n": 2,
            "reconciliation": {"method": "identity", "n": 2, "D": 2}}
    cfg_obj = {"model": {"layers": [{"heads": [head, head],
                                     "head_fusion": "metric"}]},
               "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
               "train": {"loss": "cross_entropy", "epochs": 5, "seed": 5},
               "outputs": {"metrics": str(tmp_path / "m.csv"),
                           "checkpoint": str(tmp_path / "c.json")}}
    cfg = _write(tmp_path / "t.json", cfg_obj)
    assert _run(["train", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "l0.h0.c0.psi" in err and "l0.h1.c0.psi" in err
    assert not (tmp_path / "c.json").exists()


def _two_head_fusion_config(tmp_path, head_fusion):
    head = {"m": 2, "n": 2,
            "reconciliation": {"method": "identity", "n": 2, "D": 2}}
    return {"model": {"layers": [{"heads": [head, head], "head_fusion": head_fusion}]},
            "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
            "train": {"loss": "cross_entropy", "epochs": 5, "seed": 5},
            "outputs": {"metrics": str(tmp_path / "m.csv"),
                        "checkpoint": str(tmp_path / "c.json")}}


def test_train_learns_a_bare_weighted_sum_head_fusion(tmp_path):
    # a bare name sets FusionSpec's strategy; with no weights it learns them
    cfg = _write(tmp_path / "t.json", _two_head_fusion_config(tmp_path, "weighted_sum"))
    assert _run(["train", "--config", cfg]) == 0
    slots = json.loads((tmp_path / "c.json").read_text())["slots"]
    assert slots["l0.hfuse"][1] == 2


@pytest.mark.parametrize("strategy,bad", [
    ("concat_linear", "target = 0"),
    ("bogus", "unknown fusion strategy 'bogus'"),
], ids=["concat_linear", "bogus"])
def test_train_rejects_a_head_fusion_it_cannot_build(tmp_path, capsys, strategy, bad):
    cfg = _write(tmp_path / "t.json", _two_head_fusion_config(tmp_path, strategy))
    assert _run(["train", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert bad in err and "Traceback" not in err
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("matrix", [
    {"kind": "chain", "m": 4, "direction": "bi", "variant": "multihop", "hops": -1},
    {"kind": "chain", "m": 4, "variant": "accumulative", "hops": -2},
    {"kind": "graph", "n_nodes": 3, "edges": [[0, 1]], "variant": "multihop", "hops": -1},
    {"kind": "graph", "n_nodes": 3, "edges": [[0, 1]], "variant": "accumulative",
     "hops": -1},
])
def test_build_matrix_negative_hops_exit_4(tmp_path, capsys, matrix):
    cfg = _write(tmp_path / "c.json", {"matrix": matrix})
    out = tmp_path / "m.mtx"
    assert _run(["build-matrix", "--config", cfg, "--out", str(out)]) == 4
    assert "hop count %d" % matrix["hops"] in capsys.readouterr().err
    assert not out.exists()


def test_build_matrix_singular_pagerank_exit_4(tmp_path, capsys):
    # I - 0.5 A is singular on the triangle: 2 is an eigenvalue of K3
    cfg = _write(tmp_path / "c.json", {"matrix": {
        "kind": "graph", "n_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]],
        "variant": "pagerank", "alpha": 0.5, "normalization": "none"}})
    out = tmp_path / "m.mtx"
    assert _run(["build-matrix", "--config", cfg, "--out", str(out)]) == 4
    assert "pivot below threshold" in capsys.readouterr().err
    assert not out.exists()


def test_build_matrix_accepts_seed_key(tmp_path):
    cfg = _write(tmp_path / "c.json", {"matrix": {"kind": "identity", "m": 3},
                                       "seed": 9})
    out = tmp_path / "m.mtx"
    assert _run(["build-matrix", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    assert json.loads((tmp_path / "m.mtx.stats.json").read_text())["nnz"] == 3


@pytest.mark.parametrize("geometry,bad", [
    ({"packing": {"d_h": 0}}, "d_h = 0.0"),
    ({"packing": {"d_h": -1}}, "d_h = -1.0"),
    ({"shape": {"p_h": -3}}, "p_h = -3"),
    ({"shape": {"p_h": -1, "p_h2": -2}}, "p_h = -1"),
])
def test_build_matrix_degenerate_grid_geometry_exit_4(tmp_path, capsys, geometry, bad):
    cfg = _write(tmp_path / "c.json", {"matrix": dict({"kind": "grid"}, **geometry)})
    out = tmp_path / "m.mtx"
    assert _run(["build-matrix", "--config", cfg, "--out", str(out)]) == 4
    assert bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("classes", [0, -2])
def test_gen_data_random_graph_needs_a_class(tmp_path, capsys, classes):
    cfg = _write(tmp_path / "g.json", {"data": {"kind": "random_graph", "classes": classes}})
    out = tmp_path / "g.csv"
    assert _run(["gen-data", "--config", cfg, "--out", str(out)]) == 4
    assert "classes must be >= 1, got %d" % classes in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("train,bad", [
    ({"loss": "bogus", "epochs": 0}, "unknown loss 'bogus'"),
    ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ({"optimizer": {"kind": "bogus"}, "epochs": 0}, "unknown optimizer 'bogus'"),
    ({"optimizer": {"kind": "sgd", "beta1": 0.5}, "epochs": 3},
     "the sgd optimizer reads no 'beta1'"),
    ({"optimizer": {"kind": "adaptive_moments", "momentum": 0.9}, "epochs": 3},
     "the adaptive_moments optimizer reads no 'momentum'"),
])
def test_train_checks_loss_optimizer_and_epochs_before_training(tmp_path, capsys,
                                                                train, bad):
    cfg = _write(tmp_path / "t.json", {
        "model": _TRAIN_MODEL, "train": train,
        "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
        "outputs": {"metrics": str(tmp_path / "m.csv"),
                    "checkpoint": str(tmp_path / "c.json")}})
    assert _run(["train", "--config", cfg]) == 4
    assert bad in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "c.json").exists()


def test_train_rejects_head_whose_n_its_reconciliation_does_not_give(tmp_path, capsys):
    head = {"m": 2, "n": 16,
            "reconciliation": {"method": "identity", "n": 8, "D": 2}}
    cfg = _write(tmp_path / "t.json", {
        "model": {"layers": [{"heads": [head]}]},
        "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
        "train": {"loss": "mse", "epochs": 5, "seed": 5},
        "outputs": {"metrics": str(tmp_path / "m.csv"),
                    "checkpoint": str(tmp_path / "c.json")}})
    assert _run(["train", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert "head l0.h0 declares n = 16" in captured.err
    assert "epoch" not in captured.out
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "c.json").exists()


def _mse_moons_config(tmp_path, width):
    return {"model": {"layers": [{"heads": [
        {"m": 2, "n": width,
         "reconciliation": {"method": "identity", "n": width, "D": 2}}]}]},
        "data": {"kind": "two_moons", "n": 200, "noise": 0.1, "seed": 7},
        "train": {"loss": "mse", "epochs": 50, "seed": 1,
                  "optimizer": {"kind": "sgd", "lr": 0.1}},
        "outputs": {"metrics": str(tmp_path / "m.csv"),
                    "checkpoint": str(tmp_path / "c.json")}}


def test_train_mse_on_labels_fits_the_width_1_output(tmp_path):
    # the labels once broadcast into a (200, 200) loss
    from rpn2 import model as md
    cfg_obj = _mse_moons_config(tmp_path, 1)
    assert _run(["train", "--config", _write(tmp_path / "t.json", cfg_obj)]) == 0
    x, y = cli.generate_dataset(cfg_obj["data"])
    history, store = md.train(cli.model_from_config(cfg_obj["model"]), x,
                              y.astype(float)[:, None], loss="mse",
                              optimizer={"kind": "sgd", "lr": 0.1}, epochs=50, seed=1)
    ckpt = json.loads((tmp_path / "c.json").read_text())
    assert ckpt["parameters"] == store.vector.tolist()
    last = (tmp_path / "m.csv").read_text().strip().split("\n")[-1].split(",")
    assert float(last[1]) == history.epochs[-1]["loss"]


def test_train_mse_on_labels_rejects_a_width_2_output(tmp_path, capsys):
    cfg = _write(tmp_path / "t.json", _mse_moons_config(tmp_path, 2))
    assert _run(["train", "--config", cfg]) == 4
    assert "output's shape (200, 2), got (200,)" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("head, loss, bad", [
    # width 1: the moons labels 0 and 1 need two classes
    ({"m": 2, "n": 1, "reconciliation": {"method": "identity", "n": 1, "D": 2}},
     "cross_entropy", "labels must lie in [0, 1)"),
    ({"m": 2, "n": 3, "reconciliation": {"method": "identity", "n": 3, "D": 2}},
     "mse", "mse needs a target of the output's shape (40, 3)"),
    ({"m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2, "rank": 3}},
     "cross_entropy", "identity reconciliation reads no rank = 3"),
])
def test_train_refuses_a_bad_target_or_an_unread_size_at_epochs_0(tmp_path, capsys,
                                                                  head, loss, bad):
    cfg = _write(tmp_path / "t.json", {
        "model": {"layers": [{"heads": [head]}]},
        "data": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": 7},
        "train": {"loss": loss, "epochs": 0},
        "outputs": {"metrics": str(tmp_path / "m.csv"),
                    "checkpoint": str(tmp_path / "c.json")}})
    assert _run(["train", "--config", cfg]) == 4
    assert bad in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()
