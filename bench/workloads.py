"""The four benchmark workloads.

Each workload is a closed loop of ops driven by `harness.py`. A workload
object is built once (set-up: inputs, model, oracles) and then exposes

    inputs(j)      -> the input of op j, made from the workload seed (untimed)
    run(inp)       -> the op itself (timed)
    check(inp, out)-> None, or a message saying why the output is wrong
    output_bytes(inp) -> bytes the op wrote to files
    cleanup(inp)   -> remove the op's files (untimed)

NOTES.md gives the reason for each workload and the layers it exercises.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from rpn2 import backbone_equiv as be
from rpn2 import cli
from rpn2 import datasets as ds
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Prng

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Recorded final losses must be reproduced to this relative tolerance: tight
# enough to catch a changed formula, loose enough for a reordered float sum.
LOSS_RTOL = 1e-6
MOONS_MIN_ACCURACY = 0.95
CNN_TOL = 1e-10


def load_expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _start_index(seed, label, count):
    return int(Prng(seed).derive(label).randint(count))


def _quiet_cli(argv):
    """rpn2.cli.main in-process, its stdout captured as a shell user would see it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _remove(paths):
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


# ---------------------------------------------------------------------------
# train_moons


def moons_config(data_seed, train_seed, metrics_path, ckpt_path):
    """The `rpn2 train` config of one train_moons op."""
    return {
        "model": {"layers": [
            {"heads": [
                {"m": 2, "n": 16, "channels": 2,
                 "expansion": {"family": "hermite", "d": 3},
                 "reconciliation": {"method": "lorr", "n": 16, "D": 6, "rank": 2}},
                {"m": 2, "n": 16,
                 "expansion": {"family": "legendre", "d": 2},
                 "reconciliation": {"method": "identity", "n": 16, "D": 4},
                 "remainder": "linear"}],
             "head_fusion": "average"},
            {"heads": [
                {"m": 16, "n": 2,
                 "reconciliation": {"method": "lorr", "n": 2, "D": 16, "rank": 2}}]}]},
        "data": {"kind": "two_moons", "n": 1000, "noise": 0.1, "seed": data_seed},
        "train": {"loss": "cross_entropy", "epochs": 100, "seed": train_seed,
                  "optimizer": {"kind": "adaptive_moments", "lr": 0.05}},
        "outputs": {"metrics": metrics_path, "checkpoint": ckpt_path},
    }


class TrainMoons:
    """One in-process `rpn2 train` run per op; inputs cycle through the
    recorded variants starting at a seed-chosen offset."""

    name = "train_moons"

    def __init__(self, seed, workdir, expected=None):
        self.variants = (expected or load_expected())["train_moons"]
        self.start = _start_index(seed, self.name, len(self.variants))
        self.cfg_path = os.path.join(workdir, "moons.json")
        self.metrics_path = os.path.join(workdir, "moons.metrics.csv")
        self.ckpt_path = os.path.join(workdir, "moons.ckpt.json")

    def inputs(self, j):
        v = self.variants[(self.start + j) % len(self.variants)]
        self.write_config(v)
        return v

    def write_config(self, v):
        cfg = moons_config(v["data_seed"], v["train_seed"], self.metrics_path,
                           self.ckpt_path)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

    def run(self, inp):
        return _quiet_cli(["train", "--config", self.cfg_path])

    def final_row(self):
        with open(self.metrics_path, "r", encoding="utf-8") as fh:
            last = fh.read().strip().splitlines()[-1]
        _, loss, acc = (float(t) for t in last.split(","))
        return loss, acc

    def check(self, inp, out):
        code, _ = out
        if code != 0:
            return "exit code %d" % code
        loss, acc = self.final_row()
        if not math.isfinite(loss):
            return "non-finite final loss"
        if abs(loss - inp["loss"]) > LOSS_RTOL * abs(inp["loss"]):
            return "final loss %.17g, recorded %.17g" % (loss, inp["loss"])
        if acc < MOONS_MIN_ACCURACY:
            return "final accuracy %.4f < %.2f" % (acc, MOONS_MIN_ACCURACY)
        with open(self.ckpt_path, "r", encoding="utf-8") as fh:
            ckpt = json.load(fh)
        if len(ckpt["parameters"]) != inp["parameters"]:
            return "checkpoint holds %d parameters, expected %d" % (
                len(ckpt["parameters"]), inp["parameters"])
        return None

    def output_bytes(self, inp):
        return _file_bytes([self.metrics_path, self.ckpt_path])

    def cleanup(self, inp):
        _remove([self.metrics_path, self.ckpt_path])


# ---------------------------------------------------------------------------
# train_series


SERIES_M = 128
SERIES_B = 64
SERIES_WIDTH = 64
SERIES_EPOCHS = 4
SERIES_OPTIMIZER = {"kind": "adaptive_moments", "lr": 0.01}


def series_model():
    """Two heads over chain priors, then a lorr head back to the series width."""
    m, w = SERIES_M, SERIES_WIDTH
    head_a = md.HeadConfig(
        m=m, n=w, channels=2,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("vera", n=w, D=m, rank=8),
        attr_prior=itd.InterdependenceSpec(
            itd.ChainStructural(m, "uni", "exponential"), post_norm="col_l1"))
    head_b = md.HeadConfig(
        m=m, n=w,
        expansion=tf.ExpansionSpec("legendre", d=2),
        reconciliation=rc.ReconciliationSpec("lorr", n=w, D=2 * m, rank=4),
        attr_prior=itd.InterdependenceSpec(
            itd.ChainStructural(m, "uni", "reciprocal"), post_norm="col_l1"),
        inst_prior=itd.InterdependenceSpec(
            itd.LowRankBilinear(m, 4), axis="instance",
            post_norm="scaled_col_softmax", norm_r=4))
    head_out = md.HeadConfig(
        m=w, n=m,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("lorr", n=m, D=w, rank=4),
        remainder="linear")
    return md.ModelConfig([md.LayerConfig([head_a, head_b]),
                           md.LayerConfig([head_out])])


class TrainSeries:
    """One library `rpn2.model.train` job per op on fresh chain_series data."""

    name = "train_series"

    def __init__(self, seed, workdir, expected=None):
        self.variants = (expected or load_expected())["train_series"]
        self.start = _start_index(seed, self.name, len(self.variants))
        self.model = series_model()

    def inputs(self, j):
        return self.variants[(self.start + j) % len(self.variants)]

    def run(self, inp):
        x, y = ds.chain_series(SERIES_M, SERIES_B, inp["data_seed"])
        store = md.init_store(self.model, inp["train_seed"])
        history, _ = md.train(self.model, x, y, loss="mse",
                              optimizer=SERIES_OPTIMIZER, epochs=SERIES_EPOCHS,
                              seed=inp["train_seed"], store=store)
        return history

    def check(self, inp, out):
        if len(out.epochs) != SERIES_EPOCHS:
            return "%d epochs recorded" % len(out.epochs)
        loss = out.epochs[-1]["loss"]
        if not math.isfinite(loss):
            return "non-finite final loss"
        if abs(loss - inp["loss"]) > LOSS_RTOL * abs(inp["loss"]):
            return "final loss %.17g, recorded %.17g" % (loss, inp["loss"])
        return None

    def output_bytes(self, inp):
        return 0

    def cleanup(self, inp):
        pass


# ---------------------------------------------------------------------------
# grid_cnn

# 8x8x3 and not 32x32x3: one 32x32x3 forward densifies a 2.0 GB grid matrix
# (see NOTES.md).
GRID = gg.GridSpec(8, 8, 3)
CNN_SHAPE = gg.Cuboid(1, 1, 1, 1, 1, 1)
CNN_PACKING = gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True)
POOL_SHAPE = gg.Cuboid(0, 1, 0, 1, 0, 0)
POOL_PACKING = gg.PackingSpec(2.0, 2.0, 1.0, clip_out_of_grid=True)
CNN_BATCH = 32
CNN_BATCHES = 8


def cnn_model():
    p = gg.patch_size(CNN_SHAPE)
    p_count = len(gg.packing_centers(GRID, CNN_PACKING, CNN_SHAPE))
    head = md.HeadConfig(
        m=GRID.size, n=p_count,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec(
            "duplicated_padding", n=p_count, D=p * p_count, p=p, p_count=p_count),
        attr_prior=itd.InterdependenceSpec(
            itd.GridStructural(GRID, CNN_SHAPE, CNN_PACKING, "padding")),
        dup_blocks=(p_count, p))
    return md.ModelConfig([md.LayerConfig([head])]), p


class GridCnn:
    """A CNN-configured forward plus a 2x2 stride-2 max pool per op, over a
    fixed set of batches whose references are computed in set-up."""

    name = "grid_cnn"

    def __init__(self, seed, workdir, expected=None):
        self.model, p = cnn_model()
        prng = Prng(seed).derive(self.name)
        self.batches = []
        for _ in range(CNN_BATCHES):
            x = prng.normals((CNN_BATCH, GRID.size))
            kernel = prng.normals((p,))
            store = md.ParameterStore()
            store.add_slot("l0.h0.c0.psi", (p,), kernel)
            self.batches.append({
                "x": x, "store": store,
                "ref": be.ref_cross_correlation(x, GRID, CNN_SHAPE, CNN_PACKING, kernel),
                "ref_pool": be.ref_pool(x, GRID, POOL_SHAPE, POOL_PACKING, "max"),
            })

    def inputs(self, j):
        return self.batches[j % len(self.batches)]

    def run(self, inp):
        out = md.model_forward(inp["x"], self.model, inp["store"])
        pool = tf.compress_patch(inp["x"], GRID, POOL_SHAPE, POOL_PACKING,
                                 "operator", "max")
        return out, pool

    def check(self, inp, out):
        conv, pool = out
        if conv.shape != inp["ref"].shape:
            return "conv shape %s" % (conv.shape,)
        diff = float(np.max(np.abs(conv - inp["ref"])))
        if not diff <= CNN_TOL:
            return "conv max diff %.3e > %.0e" % (diff, CNN_TOL)
        if pool.shape != inp["ref_pool"].shape or not np.array_equal(pool, inp["ref_pool"]):
            return "pool differs from ref_pool"
        return None

    def output_bytes(self, inp):
        return 0

    def cleanup(self, inp):
        pass


# ---------------------------------------------------------------------------
# cli_oneshot

EQUIV_KINDS = ("cnn", "pool", "rnn", "gnn", "transformer")
ACC_LENGTHS = (504, 508, 512, 516, 520)
ACC_HOPS = 5
ONEHOP_LENGTHS = (4088, 4092, 4096, 4100, 4104)
GRAPH_NODES = 160
GRAPH_EDGE_PROB = 0.04


def accumulative_nnz(m, h):
    """Entries of sum_{k<=h} A^k for the uni chain shift A."""
    return (h + 1) * m - h * (h + 1) // 2


def reachable_pairs(n, edges):
    """Ordered (i, j) pairs with j reachable from i in an undirected graph,
    i == j included: the nonzero count of a pagerank matrix."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    sizes = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sum(s * s for s in sizes.values())


class CliOneshot:
    """One pass of one-shot commands per op; every pass draws its own inputs."""

    name = "cli_oneshot"

    def __init__(self, seed, workdir, expected=None):
        self.seed = int(seed)
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, obj):
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def inputs(self, j):
        rng = np.random.default_rng([self.seed, j + 1])
        inp = {"commands": [], "outs": []}
        for kind in EQUIV_KINDS:
            cfg = self._write("equiv_%s.json" % kind,
                              {"kind": kind, "seed": int(rng.integers(1 << 31))})
            inp["commands"].append(["equiv", "--config", cfg])
        m_acc = int(rng.choice(ACC_LENGTHS))
        m_one = int(rng.choice(ONEHOP_LENGTHS))
        iu, ju = np.triu_indices(GRAPH_NODES, k=1)
        keep = rng.random(iu.size) < GRAPH_EDGE_PROB
        edges = [[int(a), int(b)] for a, b in zip(iu[keep], ju[keep])]
        mats = [
            ("acc", {"kind": "chain", "m": m_acc, "variant": "accumulative",
                     "hops": ACC_HOPS}, accumulative_nnz(m_acc, ACC_HOPS)),
            ("one", {"kind": "chain", "m": m_one, "variant": "onehop"}, m_one - 1),
            ("pr", {"kind": "graph", "n_nodes": GRAPH_NODES, "edges": edges,
                    "variant": "pagerank", "alpha": 0.15, "normalization": "row"},
             reachable_pairs(GRAPH_NODES, edges)),
        ]
        inp["nnz"] = []
        for tag, spec, nnz in mats:
            cfg = self._write("%s.json" % tag, {"matrix": spec})
            out = self._path("%s.mtx" % tag)
            inp["commands"].append(["build-matrix", "--config", cfg, "--out", out])
            inp["outs"] += [out, out + ".stats.json"]
            inp["nnz"].append((out + ".stats.json", nnz))
        return inp

    def run(self, inp):
        return [_quiet_cli(argv) for argv in inp["commands"]]

    def check(self, inp, out):
        for argv, (code, text) in zip(inp["commands"], out):
            if code != 0:
                return "%s exit code %d" % (argv[0], code)
            if argv[0] == "equiv" and not text.startswith("PASS"):
                return "equiv printed %r" % text.strip()
        for stats_path, want in inp["nnz"]:
            with open(stats_path, "r", encoding="utf-8") as fh:
                got = json.load(fh)["nnz"]
            if got != want:
                return "%s nnz %d, expected %d" % (os.path.basename(stats_path), got, want)
        return None

    def output_bytes(self, inp):
        return _file_bytes(inp["outs"])

    def cleanup(self, inp):
        _remove(inp["outs"])


WORKLOADS = {w.name: w for w in (TrainMoons, TrainSeries, GridCnn, CliOneshot)}
