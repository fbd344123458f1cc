"""Command line front end.

Commands: gen-data, build-matrix, train, equiv, diagnose. Each takes a JSON
config (--config), an optional output path (--out) and an optional seed
override (--seed). Configs are schema-checked; unknown keys are rejected.
The model, matrix and dataset keys are the library's parameters (`_call`).
"""

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from typing import Literal, Union

import numpy as np

from . import backbone_equiv as be
from . import datasets as ds
from . import grid_geometry as gg
from . import interdependence as itd
from . import model as md
from .numeric_core import Prng, SparseCoo


class ConfigError(Exception):
    pass


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key %r at %s" % (key, path or "top level"))


def _number(value, kind):
    """value as int or float: a number or a string that `kind` parses, never
    a boolean, and an int only from an integral number."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(value)
    return kind(value)


def _convert(value, kind):
    """value as `kind` (a Literal one of its values, a tuple from a list) or an error."""
    if kind in (int, float):
        return _number(value, kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if (origin is Literal and value in args
            or origin is None and isinstance(value, kind)):
        return value
    if origin is tuple:  # tuple[x, ...] or a fixed tuple[x, y]
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if isinstance(value, list) and len(kinds) == len(value):
            return tuple(map(_convert, value, kinds))
    raise ValueError(value)


_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object", tuple[float, ...]: "a list of numbers",
          tuple[tuple[int, int], ...]: "a list of [u, v] pairs"}


def _as(value, kind, what):
    """value as `kind` (`_convert`), or a ConfigError naming `what` it is."""
    try:
        return _convert(value, kind)
    except (TypeError, ValueError, OverflowError):
        pass
    name = (_KINDS[kind] if typing.get_origin(kind) is not Literal else
            "one of %s" % ", ".join(map(repr, typing.get_args(kind))))
    raise ConfigError("%s must be %s, got %r" % (what, name, value))


def _get(obj, key, path, kind, *default):
    """obj[key] read as `kind` (`_as`); a missing key gives the default, if any."""
    where = path or "top level"
    if key not in obj:
        if not default:
            raise ConfigError("missing key %r at %s" % (key, where))
        return default[0]
    return _as(obj[key], kind, "key %r at %s" % (key, where))


_SIGNATURES = {}  # callable -> its `_params`, reflected once


def _params(fn):
    """{key: (type, required)} of a callable's config keys: its parameters,
    but init-only ones, each typed by its annotation or else by its default."""
    if fn not in _SIGNATURES:
        hints = typing.get_type_hints(fn)
        _SIGNATURES[fn] = {name: (hints.get(name, type(p.default)), p.default is p.empty)
                           for name, p in inspect.signature(fn).parameters.items()
                           if not isinstance(hints.get(name), dataclasses.InitVar)}
    return _SIGNATURES[fn]


# union tag -> class. Constant and RpnHead hold arrays, so no config names them.
_TAGS = {"identity": itd.Identity, "stat_kernel": itd.StatKernel, "num_kernel": itd.NumKernel,
         "parameterized": itd.Parameterized, "bilinear": itd.Bilinear,
         "lowrank_bilinear": itd.LowRankBilinear, "grid": itd.GridStructural,
         "chain": itd.ChainStructural, "graph": itd.GraphStructural, "hybrid": itd.Hybrid,
         "cuboid": gg.Cuboid, "cylinder": gg.Cylinder, "sphere": gg.Sphere}


def _call(fn, obj, path, **fixed):
    """fn called with the config object obj at key path `path`: its keys are
    fn's parameters (`_params`), read by type (`_read`), and those with no
    default are required. The `fixed` arguments are the caller's, not keys."""
    params = _params(fn)
    _check_keys(obj, params.keys() - fixed.keys(), path)
    for key, (kind, required) in params.items():
        if key in obj:
            fixed[key] = _read(obj[key], kind, "%s.%s" % (path, key),
                               "key %r at %s" % (key, path))
        elif required and key not in fixed:
            raise ConfigError("missing key %r at %s" % (key, path))
    if not isinstance(fn, type):  # a builder: what it raises is its own
        return fn(**fixed)
    try:
        return fn(**fixed)
    except IndexError as e:  # a Graph's value rule names the edge outside its nodes
        raise ConfigError("%s.%s" % (path, e))


def _interdependence(value, path, what):
    """A head station's InterdependenceSpec, on the station's axis. A `variant`
    that is a tag string is the flat form: the variant's keys sit beside it."""
    obj = _as(value, dict, what)
    if isinstance(obj.get("variant"), str):
        keys = _params(itd.InterdependenceSpec)
        obj = dict({k: v for k, v in obj.items() if k in keys},
                   variant={obj["variant"]: {k: v for k, v in obj.items() if k not in keys}})
    axis = "instance" if path.rsplit(".", 1)[-1].startswith("inst_") else "attribute"
    return _call(itd.InterdependenceSpec, obj, path, axis=axis)


def _read(value, kind, path, what):
    """A config value read as `kind` at key path `path`; `what` names it in
    messages. A bare string where a dataclass belongs sets its first field."""
    if kind is itd.InterdependenceSpec:
        return _interdependence(value, path, what)
    if dataclasses.is_dataclass(kind):
        if isinstance(value, str):
            value = {next(iter(_params(kind))): value}
        return _call(kind, _as(value, dict, what), path)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Union:  # {tag: {...}}
        obj = _as(value, dict, what)
        tags = {tag: cls for tag, cls in _TAGS.items() if cls in args}
        if len(obj) != 1 or next(iter(obj)) not in tags:
            raise ConfigError("%s takes one tag, one of %s; got %s"
                              % (path, ", ".join(tags), ", ".join(map(repr, obj)) or "none"))
        (tag, body), = obj.items()
        return _read(body, tags[tag], "%s.%s" % (path, tag), "key %r at %s" % (tag, path))
    if origin in (list, tuple) and kind not in _KINDS:  # a list of objects
        return origin(_read(item, args[0], "%s[%d]" % (path, i), "%s[%d]" % (path, i))
                      for i, item in enumerate(_as(value, list, what)))
    if origin is dict:  # its keys are a Literal's values
        obj = _as(value, dict, what)
        _check_keys(obj, typing.get_args(args[0]), path)
        return {key: _read(item, args[1], "%s.%s" % (path, key), "key %r at %s" % (key, path))
                for key, item in obj.items()}
    return _as(value, kind, what)


def model_from_config(cfg):
    return _call(md.ModelConfig, cfg, "model")


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


def generate_dataset(spec, seed_override=None):
    """The dataset of a `datasets` function, named by the kind; its arguments are the keys."""
    kind = _get(spec, "kind", "data", str)
    fn = getattr(ds, kind, None)
    if not inspect.isfunction(fn):
        raise ConfigError("unknown dataset kind %r" % kind)
    fixed = {} if seed_override is None else {"seed": seed_override}
    args = {key: v for key, v in spec.items() if key != "kind" and key not in fixed}
    return _call(fn, args, "data", **fixed)


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


def _identity_matrix(m: int):
    return itd.chain_structural_coo(m, variant="multihop", hops=0)  # A^0 = I


def _grid_matrix(h: int = 8, w: int = 8, d: int = 1, shape: dict = {},
                 packing: gg.PackingSpec = gg.PackingSpec(), mode: str = "padding"):
    """The grid matrix of a Cuboid patch; an extent that `shape` omits is 1."""
    extents = dict(dict.fromkeys(_params(gg.Cuboid), 1), **shape)
    return itd.grid_structural_matrix(gg.GridSpec(h, w, d),
                                      _call(gg.Cuboid, extents, "matrix.shape"), packing, mode)


_MATRICES = {"identity": _identity_matrix, "chain": itd.chain_structural_coo,
             "graph": itd.graph_structural_matrix, "grid": _grid_matrix}


def _matrix_from_config(spec):
    kind = _get(spec, "kind", "matrix", str)
    if kind not in _MATRICES:
        raise ConfigError("unknown matrix kind %r" % kind)
    args = {key: v for key, v in spec.items() if key != "kind"}
    fixed = {}
    if kind == "graph":  # the Graph's keys sit beside the matrix's
        fixed["graph"] = _call(itd.Graph, {key: args.pop(key) for key in _params(itd.Graph)
                                           if key in args}, "matrix")
    return _call(_MATRICES[kind], args, "matrix", **fixed)


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
# train


_DEFAULT_LOSS = {"two_moons": "cross_entropy", "chain_series": "mse"}
# the keys any optimizer kind reads (`model.OPTIMIZER_KEYS`), any other is
# rejected; the kind is a string, the others numbers
_OPTIMIZER_KINDS = {key: str if key == "kind" else float
                    for keys in md.OPTIMIZER_KEYS.values() for key in keys}


def cmd_train(config, out, seed_override=None):
    _check_keys(config, {"model", "data", "train", "outputs"}, "")
    tcfg = _get(config, "train", "", dict, {})
    _check_keys(tcfg, ("loss", "optimizer", "epochs", "seed"), "train")
    opt = _get(tcfg, "optimizer", "train", dict, {})
    _check_keys(opt, _OPTIMIZER_KINDS, "train.optimizer")
    seed = seed_override if seed_override is not None else _get(tcfg, "seed", "train", int, 0)
    model = model_from_config(_get(config, "model", "", dict))
    dspec = _get(config, "data", "", dict)
    kind = _get(dspec, "kind", "data", str)
    if kind not in _DEFAULT_LOSS:
        raise ConfigError("training supports two_moons and chain_series data")
    outputs = _get(config, "outputs", "", dict, {})
    _check_keys(outputs, ("metrics", "checkpoint"), "outputs")
    paths = {key: _get(outputs, key, "outputs", str, (out or "train") + "." + key + suffix)
             for key, suffix in (("metrics", ".csv"), ("checkpoint", ".json"))}
    x, y = generate_dataset(dspec)
    history, store = md.train(
        model, x, y, loss=_get(tcfg, "loss", "train", str, _DEFAULT_LOSS[kind]),
        optimizer={key: _get(opt, key, "train.optimizer", key_kind)
                   for key, key_kind in _OPTIMIZER_KINDS.items() if key in opt},
        epochs=_get(tcfg, "epochs", "train", int, 100), seed=seed)
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
    kind = _get(dspec, "kind", "data", str)
    if kind == "random_graph":
        raise ConfigError("diagnose supports two_moons, chain_series, grid_images")
    result = generate_dataset(dspec, seed_override)
    x = result if kind == "grid_images" else result[0]
    seed = seed_override if seed_override is not None else _get(config, "seed", "", int, 0)
    report = md.diagnostics(model, x, md.init_store(model, seed))
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
