"""Tests of the benchmark itself: tracer coverage, oracles, counters.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Kept out of the repository's tier-1 suite on purpose: it starts workload
processes and takes about half a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_work", "selftest")

# Functions each workload must reach; a miss means the tracer lost a path.
REACH = {
    "train_moons": [
        "cli.main", "cli.cmd_train", "cli.model_from_config", "cli.generate_dataset",
        "datasets.two_moons", "model.init_store", "model.train", "model.head_forward",
        "model._expand_node", "reconciliation.reconcile_node", "fusion.fuse_nodes",
        "numeric_core.Tape.backward", "numeric_core.cross_entropy_node",
        "numeric_core.concat_nodes", "numeric_core.Prng.normals", "numeric_core.Node.matmul",
    ],
    "train_series": [
        "datasets.chain_series", "model.init_store", "model.train",
        "model.build_interdep_node", "model._expand_node", "interdependence.build_matrix",
        "interdependence.chain_structural_matrix", "interdependence.apply_post_norm",
        "numeric_core.matrix_exp", "numeric_core.solve", "numeric_core.softmax_node",
        "reconciliation.reconcile_node", "reconciliation.frozen_randoms",
        "fusion.fuse_nodes", "numeric_core.Tape.backward",
    ],
    "grid_cnn": [
        "model.model_forward", "model.build_interdep_node", "interdependence.build_matrix",
        "interdependence.grid_structural_matrix", "grid_geometry.index_of",
        "grid_geometry.patch_offsets", "grid_geometry.packing_centers",
        "grid_geometry.patch_cells", "numeric_core.as_dense",
        "numeric_core.SparseCoo.to_dense", "numeric_core.blocks_dot",
        "transformation.compress_patch",
    ],
    "cli_oneshot": [
        "cli.main", "cli.cmd_equiv", "cli.cmd_build_matrix", "backbone_equiv.run_case",
        "backbone_equiv.build_cnn_case", "backbone_equiv.build_pool_case",
        "backbone_equiv.build_rnn_case", "backbone_equiv.build_gnn_case",
        "backbone_equiv.build_transformer_case", "backbone_equiv.ref_cross_correlation",
        "backbone_equiv.ref_pool", "backbone_equiv.ref_rnn_scan", "backbone_equiv.ref_sgc",
        "backbone_equiv.ref_attention", "interdependence.chain_structural_matrix",
        "interdependence.graph_structural_matrix", "numeric_core.solve",
        "numeric_core.SparseCoo.from_dense", "numeric_core.SparseCoo.to_matrix_market",
        "numeric_core.Prng.normals",
    ],
}

COUNTS = ("numeric_core.tape.nodes", "numeric_core.tape.vjp_useful_ratio",
          "numeric_core.dense.bytes", "numeric_core.prng.draws",
          "interdependence.structural.distinct_ratio", "reconciliation.tape_nodes",
          "fusion.tape_nodes", "grid_geometry.calls", "interdependence.build.calls",
          "cli.bytes_written")


def traced_run(workload, seconds):
    subprocess.run([sys.executable, harness.__file__, "--workload", workload, "--seed", "7",
                    "--mode", "run", "--seconds", str(seconds), "--trace", "1"],
                   cwd=ROOT, env=run.child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    with open(harness.trace_path(workload, 7), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traces():
    """Two traced runs of different lengths per workload, same seed."""
    return {w: (traced_run(w, 0.2), traced_run(w, 4.0)) for w in REACH}


def test_every_alias_of_a_wrapped_function_is_rebound():
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_aliases() == []
        import rpn2
        assert rpn2.interdependence.as_dense is rpn2.numeric_core.as_dense
        assert hasattr(rpn2.numeric_core.as_dense, "__wrapped__")
        assert hasattr(rpn2.cli._COMMANDS["train"], "__wrapped__")
        assert hasattr(rpn2.backbone_equiv._BUILDERS["cnn"], "__wrapped__")
    finally:
        tracer.uninstall()
    for module in tr.rpn2_modules() + [wl]:
        for name, value in vars(module).items():
            assert not hasattr(value, "__wrapped__"), "%s.%s" % (module.__name__, name)


def test_every_listed_function_is_reached(traces):
    for workload, (short, _) in traces.items():
        missed = [f for f in REACH[workload] if short["reached"].get(f, 0) == 0]
        assert missed == [], "%s never reached %s" % (workload, missed)


def test_trace_covers_op_time_and_reports_every_metric(traces):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    for workload, (_, long) in traces.items():
        assert sorted(long["metrics"]) == sorted(names)
        assert long["metrics"]["trace.coverage_ratio"] >= 0.9, workload


def test_counters_repeat_exactly_across_runs(traces):
    for workload, (short, long) in traces.items():
        assert len(long["ops"]) > len(short["ops"]) >= harness.COUNT_OPS
        for name in COUNTS:
            assert short["metrics"][name] == long["metrics"][name], (workload, name)


def _first_input(workload_cls, workdir):
    w = workload_cls(7, workdir)
    inp = w.inputs(0)
    return w, inp, w.run(inp)


def test_perturbed_expectations_count_as_failures():
    workdir = os.path.join(SCRATCH, "oracle")
    os.makedirs(workdir, exist_ok=True)

    w, inp, out = _first_input(wl.TrainMoons, workdir)
    assert w.check(inp, out) is None
    assert w.check(dict(inp, loss=inp["loss"] * (1 + 1e-5)), out) is not None
    assert w.check(dict(inp, parameters=inp["parameters"] + 1), out) is not None
    assert w.check(inp, (1, "")) is not None

    w, inp, out = _first_input(wl.TrainSeries, workdir)
    assert w.check(inp, out) is None
    assert w.check(dict(inp, loss=inp["loss"] * (1 + 1e-5)), out) is not None

    w, inp, out = _first_input(wl.GridCnn, workdir)
    assert w.check(inp, out) is None
    bad = dict(inp, ref=inp["ref"] + 1e-9)
    assert w.check(bad, out) is not None
    pool = inp["ref_pool"].copy()
    pool[0, 0] = np.nextafter(pool[0, 0], np.inf)
    assert w.check(dict(inp, ref_pool=pool), out) is not None

    w, inp, out = _first_input(wl.CliOneshot, workdir)
    assert w.check(inp, out) is None
    bad = copy.deepcopy(inp)
    bad["nnz"][0] = (bad["nnz"][0][0], bad["nnz"][0][1] + 1)
    assert w.check(bad, out) is not None
    failed_equiv = [(1, "FAIL max_diff")] + out[1:]
    assert w.check(inp, failed_equiv) is not None
    w.cleanup(inp)


def test_a_failing_op_is_counted_not_raised():
    workdir = os.path.join(SCRATCH, "loop")
    os.makedirs(workdir, exist_ok=True)
    w = wl.GridCnn(7, workdir)
    for batch in w.batches:
        batch["ref"] = batch["ref"] + 1.0
    loop = harness.Loop(w)
    loop.timed(0.0, 2)
    assert (loop.attempted, loop.failed) == (2, 2)


class HeaderOnlyMetrics(wl.TrainMoons):
    """Exits 0 but leaves a metrics CSV with its header only."""

    def run(self, inp):
        out = super().run(inp)
        with open(self.metrics_path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,metric\n")
        return out


class StatsWithoutNnz(wl.CliOneshot):
    """Exits 0 but writes matrix stats without their nnz entry."""

    def run(self, inp):
        out = super().run(inp)
        for stats_path, _ in inp["nnz"]:
            with open(stats_path, "w", encoding="utf-8") as fh:
                json.dump({}, fh)
        return out


@pytest.mark.parametrize("workload_cls", [HeaderOnlyMetrics, StatsWithoutNnz])
def test_malformed_output_is_a_failed_op_not_a_crash(workload_cls):
    workdir = os.path.join(SCRATCH, "malformed")
    os.makedirs(workdir, exist_ok=True)
    loop = harness.Loop(workload_cls(7, workdir))
    loop.timed(0.0, 2)
    assert (loop.attempted, loop.failed) == (2, 2)


def _nudging(make):
    """make(*args) -> (x, y), with every entry of x one unit in the last place up."""
    def nudged(*args):
        x, y = make(*args)
        return np.nextafter(x, np.inf), y
    return nudged


def test_recorded_losses_admit_a_one_ulp_input_change(monkeypatch):
    """LOSS_RTOL must absorb rounding differences, as a reordered sum makes:
    inputs one ulp off still reproduce the recorded final losses."""
    workdir = os.path.join(SCRATCH, "ulp")
    os.makedirs(workdir, exist_ok=True)
    monkeypatch.setattr(wl.cli, "generate_dataset", _nudging(wl.cli.generate_dataset))
    monkeypatch.setattr(wl.ds, "chain_series", _nudging(wl.ds.chain_series))
    for workload_cls in (wl.TrainMoons, wl.TrainSeries):
        w = workload_cls(7, workdir)
        for j in range(4):
            inp = w.inputs(j)
            out = w.run(inp)
            assert w.check(inp, out) is None, (workload_cls.name, j)
            w.cleanup(inp)


def test_exits_nonzero_without_the_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid_cnn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
