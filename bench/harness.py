"""One workload process: set-up, then the closed loop of ops.

    python3 bench/harness.py --workload NAME --seed N --mode setup|run
                             --seconds S --trace 0|1

run.py starts this process. It prints READY once set-up is done (imports,
inputs, model, oracles and one untimed warm-up op), so that the parent can
time set-up from process start. In `setup` mode it exits there; in `run` mode
it then runs the loop and prints one JSON line of results.

With --trace 1 the tracer is installed before set-up; the traced loop runs
first, for half the time, and an untraced loop follows for the other half,
so that trace.overhead_ratio compares the two on one process. The spans
and per-op figures go to .bench_out/trace-<workload>-s<seed>.json.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ops whose counters are reported: the first COUNT_OPS traced ops, whatever
# the run length, so that counts repeat exactly between runs.
COUNT_OPS = 3
# Failure messages echoed to stderr per run.
MAX_REPORTED_FAILURES = 3


def trace_path(name, seed):
    """Where a traced run writes its spans and per-op figures."""
    return os.path.join(ROOT, ".bench_out", "trace-%s-s%d.json" % (name, seed))


def work_dir(name, seed):
    path = os.path.join(ROOT, ".bench_work", "%s-s%d-p%d" % (name, seed, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


class Loop:
    """Closed loop: the next op starts when the previous one is checked."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def one(self, warmup=False):
        j = -1 if warmup else self.next_op
        inp = self.w.inputs(j)
        if self.tracer is not None and not warmup:
            self.tracer.begin_op(j)
        t0 = time.perf_counter()
        error = None
        try:
            out = self.w.run(inp)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if self.tracer is not None and not warmup:
            self.tracer.end_op(dt, self.w.output_bytes(inp))
        if error is None:
            try:
                error = self.w.check(inp, out)
            except Exception:  # malformed output fails its check
                error = traceback.format_exc()
        self.w.cleanup(inp)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.reported < MAX_REPORTED_FAILURES:
                self.reported += 1
                print("%s op %d failed: %s" % (self.w.name, j, error), file=sys.stderr)
        if not warmup:
            self.next_op += 1
        return dt, error is None

    def timed(self, seconds, min_ops):
        times = []
        completed = 0
        start = time.perf_counter()
        while len(times) < min_ops or time.perf_counter() - start < seconds:
            dt, ok = self.one()
            times.append(dt)
            completed += ok
        wall = time.perf_counter() - start
        return {"times": times, "completed": completed, "wall_s": wall}


def summarize(loop_result):
    times = loop_result["times"]
    n = len(times)
    # "inclusive" interpolates between closest ranks, as numpy's default does
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if n > 1 else times[0]
    return {
        "ops_per_s": loop_result["completed"] / loop_result["wall_s"],
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "samples": n,
        "op_times_s": loop_result["times"],
        # the guide's rule: a percentile needs ten samples beyond it
        "p90_valid": n - int(0.9 * n) >= 10,
    }


def environment(seed):
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2.0 ** 20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


def trace_metrics(tracer, untraced):
    """Per-op per-layer figures from the traced ops (see NOTES.md)."""
    ops = [r for r in tracer.ops if r["op"] != "setup"]
    counted = ops[:COUNT_OPS]
    n = len(ops)

    def self_s(layer):
        return sum(r["self_s"].get(layer, 0.0) for r in ops) / n

    def per_op(key, layer=None):
        if layer is None:
            return sum(r[key] for r in counted) / len(counted)
        return sum(r[key].get(layer, 0) for r in counted) / len(counted)

    def ratio(num, den):
        d = sum(r[den] for r in counted)
        return sum(r[num] for r in counted) / d if d else 1.0

    traced_p50 = statistics.median(r["wall_s"] for r in ops)
    return {
        "numeric_core.backward.self_s": self_s("numeric_core.backward"),
        "numeric_core.tape.nodes": per_op("nodes"),
        "numeric_core.tape.vjp_useful_ratio": ratio("vjp_useful", "vjp_evaluated"),
        "numeric_core.dense.bytes": per_op("dense_bytes"),
        "numeric_core.sparse.self_s": self_s("numeric_core.sparse"),
        "numeric_core.solve.self_s": self_s("numeric_core.solve"),
        "numeric_core.matrix_exp.self_s": self_s("numeric_core.matrix_exp"),
        "numeric_core.prng.self_s": self_s("numeric_core.prng"),
        "numeric_core.prng.draws": per_op("draws"),
        "grid_geometry.self_s": self_s("grid_geometry"),
        "grid_geometry.calls": per_op("entries", "grid_geometry"),
        "interdependence.build.self_s": self_s("interdependence.build"),
        "interdependence.build.calls": per_op("entries", "interdependence.build"),
        "interdependence.structural.distinct_ratio":
            ratio("structural_distinct", "structural_builds"),
        "transformation.expand.self_s": self_s("transformation.expand"),
        "transformation.compress.self_s": self_s("transformation.compress"),
        "reconciliation.self_s": self_s("reconciliation"),
        "reconciliation.tape_nodes": per_op("tape_nodes", "reconciliation"),
        "fusion.self_s": self_s("fusion"),
        "fusion.tape_nodes": per_op("tape_nodes", "fusion"),
        "model.station.interdep_s": self_s("model.station.interdep"),
        "model.station.expansion_s": self_s("model.station.expansion"),
        "model.head.self_s": self_s("model.head"),
        "model.optimizer.self_s": self_s("model.optimizer"),
        "model.init_store.self_s": self_s("model.init_store"),
        "backbone_equiv.reference.self_s": self_s("backbone_equiv.reference"),
        "backbone_equiv.build.self_s": self_s("backbone_equiv.build"),
        "datasets.self_s": self_s("datasets"),
        "cli.self_s": self_s("cli"),
        "cli.bytes_written": per_op("bytes_written"),
        "trace.coverage_ratio": sum(r["covered_s"] for r in ops) / sum(r["wall_s"] for r in ops),
        "trace.overhead_ratio": traced_p50 / untraced["op_s_p50"],
    }


def write_trace(tracer, metrics, env, args):
    ops = [r for r in tracer.ops if r["op"] != "setup"]
    setup = [r for r in tracer.ops if r["op"] == "setup"]
    doc = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "metrics": metrics, "count_ops": COUNT_OPS,
        "layers": sorted(tracer.layers),
        "setup": setup[0] if setup else None,
        "ops": ops,
        "reached": tracer.reached(),
        "spans": tracer.kept,
    }
    path = trace_path(args.workload, args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit("unknown workload %r" % args.workload)
    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tracer.install()
        tracer.begin_op("setup")
        t_setup = time.perf_counter()
    workdir = work_dir(args.workload, args.seed)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload)
        loop.one(warmup=True)
        if tracer is not None:
            tracer.end_op(time.perf_counter() - t_setup)
        print("READY", flush=True)
        if args.mode == "setup":
            print(json.dumps({"attempted": loop.attempted, "failed": loop.failed}))
            return 0
        if tracer is None:
            result = summarize(loop.timed(args.seconds, 1))
        else:
            loop.tracer = tracer
            traced = summarize(loop.timed(args.seconds / 2.0, COUNT_OPS))
            tracer.uninstall()
            loop.tracer = None
            untraced = summarize(loop.timed(args.seconds / 2.0, 1))
            result = {"traced": traced, "untraced": untraced,
                      "metrics": trace_metrics(tracer, untraced)}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["attempted"] = loop.attempted
        result["failed"] = loop.failed
        result["env"] = environment(args.seed)
        if tracer is not None:
            write_trace(tracer, result["metrics"], result["env"], args)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
