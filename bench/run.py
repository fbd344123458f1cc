"""rpn2 benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads: train_moons, train_series, grid_cnn, cli_oneshot (NOTES.md says
why each one). Every workload runs as a closed loop, one client, in its own
process (bench/harness.py) with BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics. setup_s is the median, over
SETUP_SAMPLES fresh processes, of the time from process start to ready;
the middle one of those processes runs the timed loop for --seconds.

--trace 1 prints the per-layer metrics of a traced run and writes its spans
to .bench_out/trace-<workload>-s<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and a readable summary. --smoke runs every workload briefly in both modes
and checks each metric named in BENCHMARK.json is printed with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("train_moons", "train_series", "grid_cnn", "cli_oneshot")
# Set-up processes per run: half before the timed loop and half after it,
# with the loop's own process in between, so the median spans the run.
SETUP_SAMPLES = 13
SETUP_TIMEOUT_S = 60
# The loop process may take --seconds plus its set-up and its last op.
RUN_MARGIN_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, timeout_s):
    """Start a harness process; return (seconds to READY, lines after it)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, HARNESS] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=child_env())
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise ChildFailed("harness %s exited with %s" % (" ".join(args), proc.returncode))
    return t_ready, rest.strip().splitlines()


def source_record():
    """git sha when the tree is a git checkout, and a digest of src/ always."""
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    run_timeout_s = seconds + RUN_MARGIN_S
    if trace:
        _, lines = spawn(common + ["--mode", "run", "--trace", "1"], run_timeout_s)
        result = json.loads(lines[-1])
        result["trace_file"] = os.path.relpath(harness.trace_path(workload, seed), ROOT)
        metrics = result["metrics"]
        units = {name: per_layer_unit(name) for name in metrics}
        return result, metrics, units
    setups = []
    warmups = {"attempted": 0, "failed": 0}

    def setup_only(count):
        for _ in range(count):
            t_ready, lines = spawn(common + ["--mode", "setup"], SETUP_TIMEOUT_S)
            setups.append(t_ready)
            for key, value in json.loads(lines[-1]).items():
                warmups[key] += value

    setup_only(SETUP_SAMPLES // 2)
    t_ready, lines = spawn(common + ["--mode", "run"], run_timeout_s)
    setups.append(t_ready)
    result = json.loads(lines[-1])
    setup_only(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    result["setup_samples_s"] = setups
    result["attempted"] += warmups["attempted"]
    result["failed"] += warmups["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["ops_per_s"],
        "op_s_p50": result["op_s_p50"],
        "op_s_p90": result["op_s_p90"],
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    return result, metrics, END_TO_END_UNITS


def run_one(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "rpn2", "__init__.py")):
        print("bench: no rpn2 sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        result, metrics, units = measure(args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, ValueError, IndexError, KeyError) as exc:
        print("bench: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    result["env"].update(source_record())
    result["workload"] = args.workload
    result["seconds"] = args.seconds
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-s%d-trace%d.json" % (args.workload, args.seed,
                                                                args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("env " + json.dumps(result["env"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    summary = ["%s = %.6g %s" % (k, v, units[k]) for k, v in metrics.items()]
    if not args.trace:
        summary.append("error_rate = %.6g ratio (%d failed of %d attempted)"
                       % (failed / attempted, failed, attempted))
        summary.append("samples = %d (p90 has >= 10 samples beyond it: %s)"
                       % (result["samples"], result["p90_valid"]))
    print("%s seed %d: %s" % (args.workload, args.seed, "; ".join(summary)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def smoke():
    """Every workload briefly, traced and untraced; every named metric is
    printed with the unit BENCHMARK.json gives it, and no op fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = "%s trace %d" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, proc.returncode, proc.stderr))
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(last)))
            if not last["correct"] or last["failed"]:
                problems.append("%s: %d of %d ops failed" % (tag, last["failed"],
                                                             last["attempted"]))
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics %s, BENCHMARK.json names %s" % (tag, got,
                                                                              want[trace]))
            bad = [k for k, v in last["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append("%s: non-finite %s" % (tag, bad))
            print("%-30s %d metrics, %d ops" % (tag, len(got), last["attempted"]))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
