"""Command line front end.

Commands: gen-data, build-matrix, train, equiv, diagnose. Each takes a JSON
config (--config), an optional output path (--out) and an optional seed
override (--seed). Configs are schema-checked; unknown keys are rejected.
"""

import argparse
import json
import sys

import numpy as np

from . import backbone_equiv as be
from . import datasets as ds
from . import interdependence as itd
from . import model as md
from . import reconciliation as rc
from . import transformation as tf
from .numeric_core import Prng, SparseCoo, as_dense


class ConfigError(Exception):
    pass


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key %r at %s" % (key, path or "top level"))


def _require(obj, key, path):
    if key not in obj:
        raise ConfigError("missing key %r at %s" % (key, path or "top level"))
    return obj[key]


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# gen-data


_DATASET_KEYS = {
    "two_moons": {"kind", "n", "noise", "seed"},
    "chain_series": {"kind", "m", "b", "seed"},
    "grid_images": {"kind", "h", "w", "d", "b", "seed"},
    "random_graph": {"kind", "n_v", "edge_prob", "feature_dim", "classes", "seed"},
}


def generate_dataset(spec, seed_override=None):
    kind = _require(spec, "kind", "data")
    if kind not in _DATASET_KEYS:
        raise ConfigError("unknown dataset kind %r" % kind)
    _check_keys(spec, _DATASET_KEYS[kind], "data")
    seed = seed_override if seed_override is not None else spec.get("seed", 0)
    if kind == "two_moons":
        return ds.two_moons(spec.get("n", 200), spec.get("noise", 0.1), seed)
    if kind == "chain_series":
        return ds.chain_series(spec.get("m", 32), spec.get("b", 16), seed)
    if kind == "grid_images":
        return ds.grid_images(spec.get("h", 8), spec.get("w", 8),
                              spec.get("d", 3), spec.get("b", 4), seed)
    return ds.random_graph(spec.get("n_v", 10), spec.get("edge_prob", 0.3),
                           spec.get("feature_dim", 4), spec.get("classes", 2), seed)


def cmd_gen_data(config, out, seed_override=None):
    _check_keys(config, {"data"}, "")
    spec = _require(config, "data", "")
    kind = _require(spec, "kind", "data")
    result = generate_dataset(spec, seed_override)
    if kind == "two_moons":
        x, y = result
        rows = [list(x[i]) + [float(y[i])] for i in range(len(y))]
        _write_csv(out, ["x0", "x1", "label"], rows)
    elif kind == "chain_series":
        x, t = result
        header = ["x%d" % i for i in range(x.shape[1])] + \
                 ["t%d" % i for i in range(t.shape[1])]
        _write_csv(out, header, np.concatenate([x, t], axis=1))
    elif kind == "grid_images":
        x = result
        _write_csv(out, ["v%d" % i for i in range(x.shape[1])], x)
    else:
        edges, x, labels = result
        rows = [list(x[i]) + [float(labels[i])] for i in range(len(labels))]
        _write_csv(out, ["f%d" % i for i in range(x.shape[1])] + ["label"], rows)
        _write_csv(out + ".edges.csv", ["u", "v"],
                   [[float(u), float(v)] for u, v in edges])
    return 0


# ---------------------------------------------------------------------------
# build-matrix


def _matrix_from_config(spec, seed):
    kind = _require(spec, "kind", "matrix")
    if kind == "identity":
        _check_keys(spec, {"kind", "m"}, "matrix")
        return np.eye(int(_require(spec, "m", "matrix")))
    if kind == "chain":
        _check_keys(spec, {"kind", "m", "direction", "variant", "hops",
                           "include_self"}, "matrix")
        return itd.chain_structural_matrix(
            int(_require(spec, "m", "matrix")),
            spec.get("direction", "uni"), spec.get("variant", "onehop"),
            int(spec.get("hops", 1)), bool(spec.get("include_self", False)))
    if kind == "graph":
        _check_keys(spec, {"kind", "n_nodes", "edges", "variant", "hops",
                           "alpha", "normalization"}, "matrix")
        graph = itd.Graph(int(_require(spec, "n_nodes", "matrix")),
                          [tuple(e) for e in spec.get("edges", [])])
        return itd.graph_structural_matrix(
            graph, spec.get("variant", "adjacency"), int(spec.get("hops", 1)),
            float(spec.get("alpha", 0.15)), spec.get("normalization", "none"))
    if kind == "grid":
        _check_keys(spec, {"kind", "h", "w", "d", "shape", "packing", "mode"},
                    "matrix")
        from . import grid_geometry as gg
        grid = gg.GridSpec(int(spec.get("h", 8)), int(spec.get("w", 8)),
                           int(spec.get("d", 1)))
        sh = spec.get("shape", {})
        shape = gg.Cuboid(*(int(sh.get(k, 1)) for k in
                            ("p_h", "p_h2", "p_w", "p_w2", "p_d", "p_d2")))
        pk = spec.get("packing", {})
        packing = gg.PackingSpec(float(pk.get("d_h", 1)), float(pk.get("d_w", 1)),
                                 float(pk.get("d_d", 1)), pk.get("strategy", ""),
                                 bool(pk.get("clip_out_of_grid", False)))
        return itd.grid_structural_matrix(grid, shape, packing,
                                          spec.get("mode", "padding"))
    raise ConfigError("unknown matrix kind %r" % kind)


def cmd_build_matrix(config, out, seed_override=None):
    _check_keys(config, {"matrix", "seed"}, "")
    spec = _require(config, "matrix", "")
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    a = _matrix_from_config(spec, seed)
    if not isinstance(a, SparseCoo):
        a = SparseCoo.from_dense(as_dense(a))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(a.to_matrix_market())
    stats = {"rows": a.rows, "cols": a.cols, "nnz": a.nnz,
             "nnz_ratio": a.nnz / float(a.rows * a.cols)}
    with open(out + ".stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(stats, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# model serialization (restricted schema)


_HEAD_KEYS = {"m", "n", "expansion", "reconciliation", "channels", "remainder",
              "processors", "inst_prior", "attr_prior"}


def _expansion_from(cfg):
    _check_keys(cfg, {"family", "d", "alpha", "wavelet", "s_max", "t_max",
                      "a", "b", "order"}, "expansion")
    return tf.ExpansionSpec(cfg.get("family", "identity"), int(cfg.get("d", 1)),
                            float(cfg.get("alpha", 0.5)),
                            cfg.get("wavelet", "haar"), int(cfg.get("s_max", 1)),
                            int(cfg.get("t_max", 1)), float(cfg.get("a", 2.0)),
                            float(cfg.get("b", 1.0)), int(cfg.get("order", 1)))


def _reconciliation_from(cfg):
    _check_keys(cfg, {"method", "n", "D", "rank", "mid", "input_len", "p",
                      "p_count", "seed"}, "reconciliation")
    return rc.ReconciliationSpec(
        cfg.get("method", "identity"), int(_require(cfg, "n", "reconciliation")),
        int(_require(cfg, "D", "reconciliation")), int(cfg.get("rank", 0)),
        int(cfg.get("mid", 0)), int(cfg.get("input_len", 0)),
        int(cfg.get("p", 0)), int(cfg.get("p_count", 0)), int(cfg.get("seed", 0)))


def _interdep_from(cfg, axis):
    _check_keys(cfg, {"variant", "post_norm", "norm_r", "dim", "rank", "m"},
                "interdependence")
    variant = cfg.get("variant", "identity")
    if variant == "identity":
        v = itd.Identity(int(_require(cfg, "dim", "interdependence")))
    elif variant == "bilinear":
        v = itd.Bilinear(int(_require(cfg, "dim", "interdependence")))
    elif variant == "lowrank_bilinear":
        v = itd.LowRankBilinear(int(_require(cfg, "dim", "interdependence")),
                                int(_require(cfg, "rank", "interdependence")))
    else:
        raise ConfigError("unsupported interdependence variant %r" % variant)
    return itd.InterdependenceSpec(v, axis=axis,
                                   post_norm=cfg.get("post_norm", "none"),
                                   norm_r=int(cfg.get("norm_r", 1)))


# strategies a bare name configures: the config has no weights, learnable,
# target or metric keys, so weighted_sum and concat_linear cannot be expressed
_HEAD_FUSIONS = ("average", "sum", "hadamard", "metric")


def model_from_config(cfg):
    _check_keys(cfg, {"layers"}, "model")
    layers = []
    for li, lcfg in enumerate(_require(cfg, "layers", "model")):
        _check_keys(lcfg, {"heads", "head_fusion"}, "model.layers[%d]" % li)
        heads = []
        for hi, hcfg in enumerate(_require(lcfg, "heads", "model.layers[%d]" % li)):
            _check_keys(hcfg, _HEAD_KEYS, "model.layers[%d].heads[%d]" % (li, hi))
            heads.append(md.HeadConfig(
                m=int(_require(hcfg, "m", "head")),
                n=int(_require(hcfg, "n", "head")),
                expansion=_expansion_from(hcfg.get("expansion", {})),
                reconciliation=_reconciliation_from(
                    _require(hcfg, "reconciliation", "head")),
                channels=int(hcfg.get("channels", 1)),
                remainder=hcfg.get("remainder", "zero"),
                attr_prior=_interdep_from(hcfg["attr_prior"], "attribute")
                if "attr_prior" in hcfg else None,
                inst_prior=_interdep_from(hcfg["inst_prior"], "instance")
                if "inst_prior" in hcfg else None,
                processors=dict(hcfg.get("processors", {}))))
        strategy = lcfg.get("head_fusion", "average")
        if strategy not in _HEAD_FUSIONS:
            raise ConfigError(
                "unsupported head_fusion %r at model.layers[%d]; expected one of %s"
                % (strategy, li, ", ".join(_HEAD_FUSIONS)))
        from . import fusion as fu
        layers.append(md.LayerConfig(heads, fu.FusionSpec(strategy)))
    return md.ModelConfig(layers)


# ---------------------------------------------------------------------------
# train


def cmd_train(config, out, seed_override=None):
    _check_keys(config, {"model", "data", "train", "outputs"}, "")
    tcfg = config.get("train", {})
    _check_keys(tcfg, {"loss", "optimizer", "epochs", "seed"}, "train")
    seed = seed_override if seed_override is not None else int(tcfg.get("seed", 0))
    model = model_from_config(_require(config, "model", ""))
    dspec = _require(config, "data", "")
    kind = _require(dspec, "kind", "data")
    result = generate_dataset(dspec)
    if kind == "two_moons":
        x, y = result
        default_loss = "cross_entropy"
    elif kind == "chain_series":
        x, y = result
        default_loss = "mse"
    else:
        raise ConfigError("training supports two_moons and chain_series data")
    loss = tcfg.get("loss", default_loss)
    history, store = md.train(model, x, y, loss=loss,
                              optimizer=tcfg.get("optimizer", {}),
                              epochs=int(tcfg.get("epochs", 100)), seed=seed)
    outputs = config.get("outputs", {})
    _check_keys(outputs, {"metrics", "checkpoint"}, "outputs")
    metrics_path = outputs.get("metrics", (out or "train") + ".metrics.csv")
    ckpt_path = outputs.get("checkpoint", (out or "train") + ".checkpoint.json")
    _write_csv(metrics_path, ["epoch", "loss", "metric"],
               [[e["epoch"], e["loss"], e["metric"]] for e in history.epochs])
    ckpt = {"config": config, "seed": seed,
            "parameters": store.vector.tolist(),
            "slots": {k: list(v) for k, v in
                      ((name, store.slots[name][:2]) for name in store.slots)}}
    with open(ckpt_path, "w", encoding="utf-8") as fh:
        json.dump(ckpt, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if history.epochs:
        last = history.epochs[-1]
        print("epoch %d loss %.6g metric %.6g" %
              (last["epoch"], last["loss"], last["metric"]))
    else:
        print("no epochs run; checkpoint equals initialization")
    return 0


# ---------------------------------------------------------------------------
# equiv


def cmd_equiv(config, out, seed_override=None):
    _check_keys(config, {"kind", "seed"}, "")
    kind = _require(config, "kind", "")
    seed = seed_override if seed_override is not None else int(config.get("seed", 0))
    diff, tol = be.run_case(kind, Prng(seed).derive("equiv_%s" % kind))
    ok = diff < tol if tol > 0 else diff == 0.0
    status = "PASS" if ok else "FAIL"
    bound = ("< %g" % tol) if tol > 0 else "== 0"
    print("%s max_diff %s (max_diff = %.3e, kind = %s, seed = %d)"
          % (status, bound, diff, kind, seed))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(config, out, seed_override=None):
    _check_keys(config, {"model", "data", "seed"}, "")
    model = model_from_config(_require(config, "model", ""))
    dspec = _require(config, "data", "")
    result = generate_dataset(dspec, seed_override)
    kind = dspec["kind"]
    if kind == "two_moons":
        x = result[0]
    elif kind == "chain_series":
        x = result[0]
    elif kind == "grid_images":
        x = result
    else:
        raise ConfigError("diagnose supports two_moons, chain_series, grid_images")
    seed = seed_override if seed_override is not None else int(config.get("seed", 0))
    store = md.init_store(model, seed)
    report = md.diagnostics(model, x, store)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-matrix": cmd_build_matrix,
    "train": cmd_train,
    "equiv": cmd_equiv,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rpn2")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        out = args.out
        if args.command in ("gen-data", "build-matrix") and out is None:
            raise ConfigError("%s requires --out" % args.command)
        return _COMMANDS[args.command](config, out, args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
