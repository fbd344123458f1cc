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
from . import fusion as fu
from . import grid_geometry as gg
from . import interdependence as itd
from . import model as md
from . import reconciliation as rc
from . import transformation as tf
from .numeric_core import Prng, SparseCoo


class ConfigError(Exception):
    pass


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key %r at %s" % (key, path or "top level"))


_REQUIRED = object()


def _number(value, kind):
    """value as int or float: a number or a string that `kind` parses, never
    a boolean, and an int only from an integral number."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(value)
    return kind(value)


def _edge_list(value):
    return [(_number(u, int), _number(v, int)) for u, v in value]


_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object", _edge_list: "a list of [u, v] pairs"}


def _as(value, kind, what):
    """value as `kind`: int, float and the edge list convert by `_number`;
    bool, str, list and dict check the JSON type. A value of the wrong type
    is a ConfigError naming `what` it is."""
    try:
        if kind in (int, float):
            return _number(value, kind)
        if kind is _edge_list:
            return _edge_list(value)
        if isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError("%s must be %s, got %r" % (what, _KINDS[kind], value))


def _get(obj, key, path, kind, default=_REQUIRED):
    """Config value obj[key] read as `kind` (see `_as`); a missing key gives
    the default, or a ConfigError when there is none."""
    where = path or "top level"
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError("missing key %r at %s" % (key, where))
        return default
    return _as(obj[key], kind, "key %r at %s" % (key, where))


def _fields(obj, fields, path, other=()):
    """{key: value} of obj's (key, kind, default) fields. Keys that are not
    fields or in `other` are rejected."""
    _check_keys(obj, {key for key, _, _ in fields} | set(other), path)
    return {key: _get(obj, key, path, kind, default) for key, kind, default in fields}


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


# fields of each dataset kind, named after a `datasets` function and its arguments
_DATASET_FIELDS = {
    "two_moons": (("n", int, 200), ("noise", float, 0.1)),
    "chain_series": (("m", int, 32), ("b", int, 16)),
    "grid_images": (("h", int, 8), ("w", int, 8), ("d", int, 3), ("b", int, 4)),
    "random_graph": (("n_v", int, 10), ("edge_prob", float, 0.3),
                     ("feature_dim", int, 4), ("classes", int, 2)),
}


def generate_dataset(spec, seed_override=None):
    kind = _get(spec, "kind", "data", str)
    if kind not in _DATASET_FIELDS:
        raise ConfigError("unknown dataset kind %r" % kind)
    args = _fields(spec, _DATASET_FIELDS[kind], "data", ("kind", "seed"))
    args["seed"] = (seed_override if seed_override is not None
                    else _get(spec, "seed", "data", int, 0))
    return getattr(ds, kind)(**args)


def cmd_gen_data(config, out, seed_override=None):
    _check_keys(config, {"data"}, "")
    spec = _get(config, "data", "", dict)
    kind = _get(spec, "kind", "data", str)
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


_MATRIX_FIELDS = {
    "identity": (("m", int, _REQUIRED),),
    "chain": (("m", int, _REQUIRED), ("direction", str, "uni"), ("variant", str, "onehop"),
              ("hops", int, 1), ("include_self", bool, False)),
    "graph": (("n_nodes", int, _REQUIRED), ("edges", _edge_list, []),
              ("variant", str, "adjacency"), ("hops", int, 1), ("alpha", float, 0.15),
              ("normalization", str, "none")),
    "grid": (("h", int, 8), ("w", int, 8), ("d", int, 1), ("shape", dict, {}),
             ("packing", dict, {}), ("mode", str, "padding")),
}
_SHAPE_FIELDS = tuple((key, int, 1) for key in ("p_h", "p_h2", "p_w", "p_w2", "p_d", "p_d2"))
_PACKING_FIELDS = (("d_h", float, 1.0), ("d_w", float, 1.0), ("d_d", float, 1.0),
                   ("strategy", str, ""), ("clip_out_of_grid", bool, False))


def _matrix_from_config(spec):
    kind = _get(spec, "kind", "matrix", str)
    if kind not in _MATRIX_FIELDS:
        raise ConfigError("unknown matrix kind %r" % kind)
    f = _fields(spec, _MATRIX_FIELDS[kind], "matrix", ("kind",))
    if kind == "identity":
        m = f["m"]
        if m < 1:
            raise ValueError("m must be >= 1")
        return SparseCoo(m, m, np.arange(m), np.arange(m), np.ones(m))
    if kind == "chain":
        return itd.chain_structural_coo(**f)
    if kind == "graph":
        try:
            graph = itd.Graph(f.pop("n_nodes"), f.pop("edges"))
        except IndexError as e:
            raise ConfigError("matrix.%s" % e)
        return itd.graph_structural_matrix(graph, **f)
    return itd.grid_structural_matrix(
        gg.GridSpec(f["h"], f["w"], f["d"]),
        gg.Cuboid(**_fields(f["shape"], _SHAPE_FIELDS, "matrix.shape")),
        gg.PackingSpec(**_fields(f["packing"], _PACKING_FIELDS, "matrix.packing")),
        f["mode"])


def cmd_build_matrix(config, out, seed_override=None):
    _check_keys(config, {"matrix", "seed"}, "")
    a = _matrix_from_config(_get(config, "matrix", "", dict))
    if not isinstance(a, SparseCoo):
        a = SparseCoo.from_dense(a)
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


_HEAD_FIELDS = (("m", int, _REQUIRED), ("n", int, _REQUIRED), ("expansion", dict, {}),
                ("reconciliation", dict, _REQUIRED), ("channels", int, 1),
                ("remainder", str, "zero"), ("processors", dict, {}),
                ("attr_prior", dict, None), ("inst_prior", dict, None))
_EXPANSION_FIELDS = (("family", str, "identity"), ("d", int, 1), ("alpha", float, 0.5),
                     ("wavelet", str, "haar"), ("s_max", int, 1), ("t_max", int, 1),
                     ("a", float, 2.0), ("b", float, 1.0), ("order", int, 1))
_RECONCILIATION_FIELDS = (
    ("method", str, "identity"), ("n", int, _REQUIRED), ("D", int, _REQUIRED),
    *((key, int, 0) for key in ("rank", "mid", "input_len", "seed")))
_INTERDEP_FIELDS = (("variant", str, "identity"), ("post_norm", str, "none"),
                    ("norm_r", int, 1))
_INTERDEP_VARIANTS = {"identity": (itd.Identity, ("dim",)),
                      "bilinear": (itd.Bilinear, ("dim",)),
                      "lowrank_bilinear": (itd.LowRankBilinear, ("dim", "rank"))}


def _interdep_from(cfg, axis):
    f = _fields(cfg, _INTERDEP_FIELDS, "interdependence", ("dim", "rank"))
    variant = f.pop("variant")
    if variant not in _INTERDEP_VARIANTS:
        raise ConfigError("unsupported interdependence variant %r" % variant)
    make, sizes = _INTERDEP_VARIANTS[variant]
    v = make(*(_get(cfg, key, "interdependence", int) for key in sizes))
    return itd.InterdependenceSpec(v, axis=axis, **f)


def _processors(cfg, path):
    _check_keys(cfg, md.PROCESSOR_STATIONS, path)
    for station, tag in cfg.items():
        try:
            md.check_processor(tag)
        except ValueError as e:
            raise ConfigError("%s.%s: %s" % (path, station, e))
    return dict(cfg)


# strategies a bare name configures: the config has no weights, target,
# low_rank or metric keys, so weighted_sum and concat_linear cannot be expressed
_HEAD_FUSIONS = ("average", "sum", "hadamard", "metric")


def model_from_config(cfg):
    _check_keys(cfg, {"layers"}, "model")
    layers = []
    for li, lcfg in enumerate(_get(cfg, "layers", "model", list)):
        lpath = "model.layers[%d]" % li
        lcfg = _as(lcfg, dict, lpath)
        _check_keys(lcfg, {"heads", "head_fusion"}, lpath)
        heads = []
        for hi, hcfg in enumerate(_get(lcfg, "heads", lpath, list)):
            hpath = "%s.heads[%d]" % (lpath, hi)
            f = _fields(_as(hcfg, dict, hpath), _HEAD_FIELDS, hpath)
            f["expansion"] = tf.ExpansionSpec(
                **_fields(f["expansion"], _EXPANSION_FIELDS, "expansion"))
            f["reconciliation"] = rc.ReconciliationSpec(
                **_fields(f["reconciliation"], _RECONCILIATION_FIELDS, "reconciliation"))
            for tag, axis in (("attr_prior", "attribute"), ("inst_prior", "instance")):
                if f[tag] is not None:
                    f[tag] = _interdep_from(f[tag], axis)
            f["processors"] = _processors(f["processors"], hpath + ".processors")
            heads.append(md.HeadConfig(**f))
        strategy = _get(lcfg, "head_fusion", lpath, str, "average")
        if strategy not in _HEAD_FUSIONS:
            raise ConfigError(
                "unsupported head_fusion %r at model.layers[%d]; expected one of %s"
                % (strategy, li, ", ".join(_HEAD_FUSIONS)))
        layers.append(md.LayerConfig(heads, fu.FusionSpec(strategy)))
    return md.ModelConfig(layers)


# ---------------------------------------------------------------------------
# train


_TRAIN_FIELDS = (("loss", str, None), ("optimizer", dict, {}), ("epochs", int, 100))
_DEFAULT_LOSS = {"two_moons": "cross_entropy", "chain_series": "mse"}
# optimizer keys that model.train reads; any other is rejected
_OPTIMIZER_KINDS = {"kind": str, "lr": float, "momentum": float, "beta1": float,
                    "beta2": float, "eps": float}


def cmd_train(config, out, seed_override=None):
    _check_keys(config, {"model", "data", "train", "outputs"}, "")
    tcfg = _get(config, "train", "", dict, {})
    t = _fields(tcfg, _TRAIN_FIELDS, "train", ("seed",))
    _check_keys(t["optimizer"], _OPTIMIZER_KINDS, "train.optimizer")
    seed = seed_override if seed_override is not None else _get(tcfg, "seed", "train", int, 0)
    model = model_from_config(_get(config, "model", "", dict))
    dspec = _get(config, "data", "", dict)
    kind = _get(dspec, "kind", "data", str)
    if kind not in _DEFAULT_LOSS:
        raise ConfigError("training supports two_moons and chain_series data")
    x, y = generate_dataset(dspec)
    history, store = md.train(
        model, x, y, loss=_DEFAULT_LOSS[kind] if t["loss"] is None else t["loss"],
        optimizer={key: _get(t["optimizer"], key, "train.optimizer", key_kind)
                   for key, key_kind in _OPTIMIZER_KINDS.items() if key in t["optimizer"]},
        epochs=t["epochs"], seed=seed)
    stem = out or "train"
    paths = _fields(_get(config, "outputs", "", dict, {}),
                    (("metrics", str, stem + ".metrics.csv"),
                     ("checkpoint", str, stem + ".checkpoint.json")), "outputs")
    _write_csv(paths["metrics"], ["epoch", "loss", "metric"],
               [[e["epoch"], e["loss"], e["metric"]] for e in history.epochs])
    ckpt = {"config": config, "seed": seed,
            "parameters": store.vector.tolist(),
            "slots": {k: list(v) for k, v in
                      ((name, store.slots[name][:2]) for name in store.slots)}}
    with open(paths["checkpoint"], "w", encoding="utf-8") as fh:
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
    kind = _get(config, "kind", "", str)
    seed = seed_override if seed_override is not None else _get(config, "seed", "", int, 0)
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
    model = model_from_config(_get(config, "model", "", dict))
    dspec = _get(config, "data", "", dict)
    result = generate_dataset(dspec, seed_override)
    kind = _get(dspec, "kind", "data", str)
    if kind in ("two_moons", "chain_series"):
        x = result[0]
    elif kind == "grid_images":
        x = result
    else:
        raise ConfigError("diagnose supports two_moons, chain_series, grid_images")
    seed = seed_override if seed_override is not None else _get(config, "seed", "", int, 0)
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
        config = _as(_load_config(args.config), dict, "the config")
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
