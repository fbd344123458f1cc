"""Record the reference outputs that the train workloads check against.

    python3 bench/record_expected.py

Runs every variant of train_moons and train_series once and writes
bench/expected.json. Run it only on code whose numerics are the reference
(the expectations were recorded on the seed code); after that the file is
an oracle, and a later change that moves a final loss by more than
workloads.LOSS_RTOL is a failure, not a reason to re-record.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads as wl  # noqa: E402

VARIANTS = 64


def main():
    table = {"train_moons": [], "train_series": []}
    for i in range(VARIANTS):
        table["train_moons"].append({"data_seed": 1000 + i, "train_seed": 5000 + i})
        table["train_series"].append({"data_seed": 2000 + i, "train_seed": 6000 + i})
    workdir = harness.work_dir("record", 0)
    try:
        moons = wl.TrainMoons(0, workdir, expected=table)
        for v in table["train_moons"]:
            moons.write_config(v)
            code, text = moons.run(v)
            if code != 0:
                raise SystemExit("train_moons variant %r failed: %s" % (v, text))
            v["loss"], v["accuracy"] = moons.final_row()
            with open(moons.ckpt_path, "r", encoding="utf-8") as fh:
                v["parameters"] = len(json.load(fh)["parameters"])
            moons.cleanup(v)
        series = wl.TrainSeries(0, workdir, expected=table)
        for v in table["train_series"]:
            v["loss"] = series.run(v).epochs[-1]["loss"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    worst = min(v["accuracy"] for v in table["train_moons"])
    print("wrote %s; lowest train_moons accuracy %.4f" % (wl.EXPECTED_PATH, worst))


if __name__ == "__main__":
    main()
